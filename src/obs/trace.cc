#include "src/obs/trace.h"

#include <algorithm>

namespace llmnpu {
namespace obs {

std::atomic<bool> g_trace_runtime_enabled{false};

thread_local ThreadBuffer* Tracer::tls_buffer_ = nullptr;
thread_local std::string Tracer::tls_thread_name_;

Tracer&
Tracer::Global()
{
    // Leaked on purpose: ThreadPool workers hold raw buffer pointers and
    // may record during static destruction of unrelated objects.
    static Tracer* tracer = new Tracer();
    return *tracer;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

uint64_t
Tracer::NowNs() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

void
Tracer::Enable(size_t capacity_per_thread)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (capacity_per_thread > 0 &&
            capacity_per_thread != capacity_) {
            capacity_ = capacity_per_thread;
            for (auto& buffer : buffers_) {
                buffer->ring.assign(capacity_, TraceEvent{});
                buffer->head.store(0, std::memory_order_relaxed);
            }
        }
    }
    g_trace_runtime_enabled.store(true, std::memory_order_relaxed);
}

void
Tracer::Disable()
{
    g_trace_runtime_enabled.store(false, std::memory_order_relaxed);
}

void
Tracer::Reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& buffer : buffers_) {
        buffer->head.store(0, std::memory_order_relaxed);
    }
    sim_events_.clear();
}

ThreadBuffer*
Tracer::RegisterThisThread()
{
    std::lock_guard<std::mutex> lock(mu_);
    auto buffer = std::make_unique<ThreadBuffer>(capacity_);
    buffer->tid = static_cast<int>(buffers_.size());
    buffer->name = tls_thread_name_.empty()
                       ? (buffer->tid == 0 ? "main" : "thread")
                       : tls_thread_name_;
    tls_buffer_ = buffer.get();
    buffers_.push_back(std::move(buffer));
    return tls_buffer_;
}

void
Tracer::SetThreadName(std::string name)
{
    tls_thread_name_ = std::move(name);
    if (tls_buffer_ != nullptr) {
        std::lock_guard<std::mutex> lock(Global().mu_);
        tls_buffer_->name = tls_thread_name_;
    }
}

void
Tracer::RecordSim(SimEvent event)
{
    std::lock_guard<std::mutex> lock(mu_);
    sim_events_.push_back(std::move(event));
}

uint64_t
Tracer::TotalRecorded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& buffer : buffers_) {
        total += buffer->head.load(std::memory_order_acquire);
    }
    return total;
}

uint64_t
Tracer::TotalDropped() const
{
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t dropped = 0;
    for (const auto& buffer : buffers_) {
        const uint64_t head =
            buffer->head.load(std::memory_order_acquire);
        const uint64_t cap = buffer->ring.size();
        if (head > cap) dropped += head - cap;
    }
    return dropped;
}

uint64_t
Tracer::TotalStored() const
{
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t stored = 0;
    for (const auto& buffer : buffers_) {
        const uint64_t head =
            buffer->head.load(std::memory_order_acquire);
        stored += std::min<uint64_t>(head, buffer->ring.size());
    }
    return stored;
}

size_t
Tracer::NumThreadBuffers() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return buffers_.size();
}

std::vector<TraceEvent>
Tracer::StoredEvents() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<TraceEvent> events;
    for (const auto& buffer : buffers_) {
        const uint64_t head =
            buffer->head.load(std::memory_order_acquire);
        const uint64_t cap = buffer->ring.size();
        const uint64_t stored = std::min<uint64_t>(head, cap);
        for (uint64_t e = head - stored; e < head; ++e) {
            events.push_back(
                buffer->ring[static_cast<size_t>(e % cap)]);
        }
    }
    return events;
}

}  // namespace obs
}  // namespace llmnpu
