#include "src/util/threadpool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/format.h"

namespace llmnpu {

namespace {

/** True inside a pool worker (or inside a running ParallelFor body): nested
 *  parallel regions run inline instead of deadlocking on the shared pool. */
thread_local bool tls_in_parallel = false;

/** How long an idle worker polls for the next job before it sleeps. */
constexpr std::chrono::microseconds kSpin(100);

/** 0 = not a pool worker; workers get 1..N at spawn, fixed for life. */
thread_local int tls_worker_id = 0;

/** Per-thread busy-time counter, resolved once per thread (the registry
 *  lookup takes a mutex; block execution must not). */
obs::Counter&
BusyCounterForThisThread()
{
    thread_local obs::Counter* counter =
        &obs::MetricsRegistry::Global().GetCounter(
            tls_worker_id == 0
                ? "threadpool.busy_ns.caller"
                : StrFormat("threadpool.busy_ns.pool-worker-%d",
                            tls_worker_id));
    return *counter;
}

/** Remaining blocks of the in-flight job (updated under the pool mutex). */
obs::Gauge&
QueueDepthGauge()
{
    static obs::Gauge* gauge =
        &obs::MetricsRegistry::Global().GetGauge("threadpool.queue_depth");
    return *gauge;
}

}  // namespace

ThreadPool&
ThreadPool::Global()
{
    static ThreadPool pool;
    return pool;
}

int
ThreadPool::RequestedThreads()
{
    if (const char* env = std::getenv("LLMNPU_NUM_THREADS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1) {
            return static_cast<int>(
                std::min<long>(v, ThreadPool::kMaxThreads));
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) return 1;
    return static_cast<int>(
        std::min<unsigned>(hw, static_cast<unsigned>(kMaxThreads)));
}

int
ThreadPool::CurrentWorkerId()
{
    return tls_worker_id;
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
}

void
ThreadPool::EnsureWorkersLocked(int count)
{
    while (static_cast<int>(workers_.size()) < count) {
        const int worker_id = static_cast<int>(workers_.size()) + 1;
        workers_.emplace_back([this, worker_id] { WorkerLoop(worker_id); });
    }
}

void
ThreadPool::WorkerLoop(int worker_id)
{
    tls_in_parallel = true;  // anything fn() spawns runs inline
    tls_worker_id = worker_id;
    obs::Tracer::SetThreadName(
        StrFormat("pool-worker-%d", worker_id));
    uint64_t seen = 0;
    for (;;) {
        // Poll briefly before sleeping: back-to-back kernel calls then find
        // the worker awake on its own core instead of waking it onto the
        // submitter's, where it would wait for the submitter to yield.
        const auto spin_until = std::chrono::steady_clock::now() + kSpin;
        while (published_job_.load(std::memory_order_acquire) == seen &&
               std::chrono::steady_clock::now() < spin_until) {
            std::this_thread::yield();
        }
        std::unique_lock<std::mutex> lock(mu_);
        wake_cv_.wait(lock, [&] { return stop_ || job_id_ != seen; });
        if (stop_) return;
        const uint64_t id = job_id_;
        seen = id;
        lock.unlock();
        RunBlocks(id);
    }
}

void
ThreadPool::RunBlocks(uint64_t id)
{
    obs::Counter& busy_ns = BusyCounterForThisThread();
    obs::Gauge& queue_depth = QueueDepthGauge();
    for (;;) {
        int block;
        int blocks;
        int64_t n;
        const std::function<void(int64_t, int64_t)>* fn;
        {
            std::lock_guard<std::mutex> lock(mu_);
            // A stale participant (woken after the job it saw completed)
            // must not touch the counters of a newer job.
            if (job_id_ != id || next_block_ >= job_blocks_) return;
            block = next_block_++;
            blocks = job_blocks_;
            n = job_n_;
            fn = job_fn_;
            queue_depth.Set(
                static_cast<double>(job_blocks_ - next_block_));
        }
        const auto t0 = std::chrono::steady_clock::now();
        (*fn)(n * block / blocks, n * (block + 1) / blocks);
        busy_ns.Add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
        {
            std::lock_guard<std::mutex> lock(mu_);
            // The job cannot have changed: the submitter is blocked until
            // every grabbed block reports back through this decrement.
            if (--blocks_left_ == 0) done_cv_.notify_all();
        }
    }
}

void
ThreadPool::ParallelFor(int64_t n, int64_t grain,
                        const std::function<void(int64_t, int64_t)>& fn)
{
    if (n <= 0) return;
    grain = std::max<int64_t>(grain, 1);
    const int64_t max_blocks = n / grain;
    const int threads = static_cast<int>(
        std::min<int64_t>(RequestedThreads(), max_blocks));
    if (threads <= 1 || tls_in_parallel) {
        fn(0, n);
        return;
    }

    // One job at a time: a second application thread submitting
    // concurrently waits here (it is never needed for the first job's
    // progress, so this cannot deadlock).
    std::lock_guard<std::mutex> submit_lock(submit_mu_);

    {
        static obs::Counter* jobs =
            &obs::MetricsRegistry::Global().GetCounter("threadpool.jobs");
        jobs->Add(1);
    }

    uint64_t id;
    {
        std::lock_guard<std::mutex> lock(mu_);
        EnsureWorkersLocked(threads - 1);
        id = ++job_id_;
        published_job_.store(id, std::memory_order_release);
        job_fn_ = &fn;
        job_n_ = n;
        job_blocks_ = threads;
        next_block_ = 0;
        blocks_left_ = threads;
    }
    wake_cv_.notify_all();

    tls_in_parallel = true;  // the caller participates; nested calls inline
    RunBlocks(id);
    tls_in_parallel = false;

    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return blocks_left_ == 0; });
    job_fn_ = nullptr;
}

}  // namespace llmnpu
