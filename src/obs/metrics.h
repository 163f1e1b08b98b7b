/**
 * @file
 * Process-wide metrics registry: counters, gauges, fixed-bucket
 * histograms, looked up by stable dotted names.
 *
 * This is the single source of truth the scattered ad-hoc stats migrated
 * onto: DecodeBackend's HandoffStats, KvPagePool occupancy, ThreadPool
 * queue depth and per-thread busy time, and the per-request TTFT/TPOT
 * histograms behind ServingReport. Old accessors remain as thin reads
 * (usually "global counter minus a snapshot taken at construction/reset"),
 * so callers and tests are unchanged while every number flows through one
 * place. The serving simulator is the exception: its counts are per-run
 * state (concurrent runs must not share them), published here once each
 * run finishes and never read back.
 *
 * Concurrency: GetCounter/GetGauge/GetHistogram take a mutex (cache the
 * returned reference on hot paths); the returned objects have stable
 * addresses for the registry's lifetime. Counter/Gauge updates are
 * lock-free atomics; Histogram::Add is mutex-guarded (cold, per-request
 * granularity).
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

#include "src/obs/histogram.h"

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
    /** `bounds` applies only on first creation (empty = default
     *  millisecond-latency buckets). */
    Histogram& GetHistogram(const std::string& name,
                            std::vector<double> bounds = {});

    /** Registered counter names, sorted. */
    std::vector<std::string> CounterNames() const;

    /** One JSON object {"counters": {...}, "gauges": {...},
     *  "histograms": {...}} — embedded in the trace export. */
    std::string DumpJson() const;

  private:
    MetricsRegistry() = default;

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace llmnpu

#endif  // LLMNPU_OBS_METRICS_H
