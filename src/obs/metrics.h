/**
 * @file
 * Process-wide metrics registry: counters and gauges, looked up by stable
 * dotted names.
 *
 * Components publish what they count here: DecodeBackend's CPU/NPU handoff
 * crossings, KvPagePool occupancy, ThreadPool queue depth and per-thread
 * busy time, and the serving simulator's per-run totals. Nothing in the
 * program reads the registry back: a component that reports a number
 * keeps it itself (DecodeBackend::stats(), a run's ServingReport) and adds
 * the same increments here, so two concurrent users never see each
 * other's counts. The readers are the trace export, which embeds
 * DumpJson(), and harnesses that read counters by name.
 *
 * Concurrency: GetCounter/GetGauge take a mutex (cache the returned
 * reference on hot paths); the returned objects have stable addresses for
 * the registry's lifetime. Counter/Gauge updates are lock-free atomics.
 */
#ifndef LLMNPU_OBS_METRICS_H
#define LLMNPU_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace llmnpu {
namespace obs {

/** Monotonic (between resets) lock-free counter. */
class Counter
{
  public:
    void
    Add(int64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void Reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> value_{0};
};

/** Last-writer-wins gauge with a peak-since-reset watermark. */
class Gauge
{
  public:
    void
    Set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
        UpdatePeak(v);
    }

    void
    Add(double delta)
    {
        double prev = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(prev, prev + delta,
                                             std::memory_order_relaxed)) {
        }
        UpdatePeak(prev + delta);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Highest value seen since construction or the last ResetPeak. */
    double
    peak() const
    {
        return peak_.load(std::memory_order_relaxed);
    }

    /** Restarts the watermark from the current value. */
    void ResetPeak() { peak_.store(value(), std::memory_order_relaxed); }

    void
    Reset()
    {
        value_.store(0.0, std::memory_order_relaxed);
        peak_.store(0.0, std::memory_order_relaxed);
    }

  private:
    void
    UpdatePeak(double v)
    {
        double prev = peak_.load(std::memory_order_relaxed);
        while (v > prev &&
               !peak_.compare_exchange_weak(prev, v,
                                            std::memory_order_relaxed)) {
        }
    }

    std::atomic<double> value_{0.0};
    std::atomic<double> peak_{0.0};
};

class MetricsRegistry
{
  public:
    /** Process-wide registry; leaked like the tracer (workers may update
     *  cached counters during static destruction). */
    static MetricsRegistry& Global();

    /** Looks up (creating on first use) the named metric. The reference
     *  stays valid for the registry's lifetime; crashes if the name is
     *  already registered as a different metric type. */
    Counter& GetCounter(const std::string& name);
    Gauge& GetGauge(const std::string& name);

    /** Registered counter names, sorted. */
    std::vector<std::string> CounterNames() const;

    /** One JSON object {"counters": {...}, "gauges": {...}}, embedded in
     *  the trace export. */
    std::string DumpJson() const;

  private:
    MetricsRegistry() = default;

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

}  // namespace obs
}  // namespace llmnpu

#endif  // LLMNPU_OBS_METRICS_H
