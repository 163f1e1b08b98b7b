/**
 * @file
 * Persistent worker-thread pool shared by the numeric-plane kernels.
 *
 * The pool exists so that the tiled matmul kernels (src/tensor) can split
 * row blocks across cores without paying a thread spawn per call. Design
 * constraints, in order:
 *
 *  1. Determinism: ParallelFor partitions [0, n) into contiguous blocks, so
 *     a kernel whose per-row results are independent produces bitwise
 *     identical output at any thread count.
 *  2. TSan-cleanliness: all shared job state is guarded by one mutex; block
 *     grabbing takes the lock (blocks are big — at most one per
 *     participant — so contention is irrelevant).
 *  3. Zero cost when single-threaded: with one configured thread (the
 *     default on single-core hosts) ParallelFor degenerates to a direct
 *     call with no locking.
 *  4. Back-to-back jobs scale: an idle worker polls for the next job for
 *     about 100 us before it sleeps on the condition variable. A worker
 *     woken from sleep tends to be queued on the submitter's core and
 *     to start only after the submitter has run every block itself, which
 *     left the kernels flat from 1 to 4 threads.
 *
 * Thread count is read from LLMNPU_NUM_THREADS at every ParallelFor call
 * (falling back to std::thread::hardware_concurrency), so tests and benches
 * can sweep thread counts with setenv() without rebuilding the pool.
 */
#ifndef LLMNPU_UTIL_THREADPOOL_H
#define LLMNPU_UTIL_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace llmnpu {

/**
 * Pins LLMNPU_NUM_THREADS for one scope, restoring any pre-existing value
 * on exit. Used by tests and benches to sweep thread counts; not
 * thread-safe (setenv), so only from a single-threaded context.
 */
class ScopedNumThreads
{
  public:
    explicit ScopedNumThreads(int n)
    {
        if (const char* prev = std::getenv("LLMNPU_NUM_THREADS")) {
            previous_ = prev;
        }
        setenv("LLMNPU_NUM_THREADS", std::to_string(n).c_str(), 1);
    }
    ~ScopedNumThreads()
    {
        if (previous_.empty()) {
            unsetenv("LLMNPU_NUM_THREADS");
        } else {
            setenv("LLMNPU_NUM_THREADS", previous_.c_str(), 1);
        }
    }

    ScopedNumThreads(const ScopedNumThreads&) = delete;
    ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

  private:
    std::string previous_;
};

class ThreadPool
{
  public:
    /** The process-wide pool used by all kernels. */
    static ThreadPool& Global();

    /**
     * Threads a ParallelFor call may use right now: LLMNPU_NUM_THREADS if
     * set (clamped to [1, kMaxThreads]), else hardware_concurrency.
     */
    static int RequestedThreads();

    /** Hard upper bound on pool participants (workers + caller). */
    static constexpr int kMaxThreads = 16;

    ThreadPool() = default;
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /**
     * Runs fn(begin, end) over a partition of [0, n) using up to
     * RequestedThreads() participants (the calling thread included).
     *
     * `grain` is the minimum items per block: fewer than 2*grain items run
     * inline. Nested calls (fn itself calling ParallelFor) run inline, so
     * kernels can parallelize unconditionally. Blocks are contiguous and
     * cover [0, n) exactly once. Blocks on all worker exceptions crash via
     * the caller's exception propagation — kernels do not throw.
     */
    void ParallelFor(int64_t n, int64_t grain,
                     const std::function<void(int64_t, int64_t)>& fn);

    /** Workers currently spawned (grown on demand; for tests). */
    int
    NumWorkers() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return static_cast<int>(workers_.size());
    }

    /**
     * Stable id of the calling thread within the pool: 0 for any thread
     * that is not a pool worker (the ParallelFor caller included), 1..N
     * for workers, fixed for the worker's lifetime. Tile-level trace
     * spans land in the matching per-thread tracer buffer, so "which
     * thread ran this tile" is answerable from the trace (the workers
     * also register tracer thread names "pool-worker-<id>").
     */
    static int CurrentWorkerId();

  private:
    void EnsureWorkersLocked(int count);
    void WorkerLoop(int worker_id);
    /** Executes blocks of job `id` until the job is exhausted. */
    void RunBlocks(uint64_t id);

    std::mutex submit_mu_;  ///< serializes submitters: one job at a time
    mutable std::mutex mu_;
    std::condition_variable wake_cv_;  ///< signals a new job (or stop)
    std::condition_variable done_cv_;  ///< signals blocks_left_ == 0
    std::vector<std::thread> workers_;
    bool stop_ = false;

    // Current job; valid while blocks_left_ > 0. All guarded by mu_.
    uint64_t job_id_ = 0;
    /** job_id_, readable without mu_ by workers polling for work. */
    std::atomic<uint64_t> published_job_{0};
    const std::function<void(int64_t, int64_t)>* job_fn_ = nullptr;
    int64_t job_n_ = 0;
    int job_blocks_ = 0;
    int next_block_ = 0;
    int blocks_left_ = 0;
};

}  // namespace llmnpu

#endif  // LLMNPU_UTIL_THREADPOOL_H
