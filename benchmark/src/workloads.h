/**
 * @file
 * The three benchmark workloads. Each runs a fixed amount of work per
 * round, the same on every commit, and is timed from outside the program:
 *
 *  - ui_automation: closed loop, one client, DroidTask prompts of 528-798
 *    tokens prefilled in 256-token chunks on the NPU path (prefill-bound);
 *  - decode_b16: closed loop, 16 lockstep clients decoding on the CPU
 *    float path (weight streaming + decode attention);
 *  - sim_sweep: a grid of serving-simulator runs, no tensors.
 *
 * A workload never sees the clock: it reports its operations' latencies
 * and its round's work, and the run loop in main.cc decides how many
 * rounds fit.
 */
#ifndef LLMNPU_BENCHMARK_WORKLOADS_H
#define LLMNPU_BENCHMARK_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "benchmark/src/layers.h"
#include "benchmark/src/sut.h"

namespace llmnpu {
namespace bench {

/** What one timed round did. */
struct Round {
    /** Latency of every operation in the round (ms): time to first token,
     *  a decode step or a simulator run. Every round lists the same
     *  operations in the same order, the i-th doing the same amount of
     *  work in each round. */
    std::vector<double> op_ms;
    /** Work completed, the same in every round: prompt tokens, decoded
     *  tokens or simulated requests. */
    double items = 0.0;
    /** Forward passes (prefill chunks and decode steps) in the round. */
    int64_t steps = 0;
};

/** Correctness bookkeeping of one run. */
struct Tally {
    int64_t attempted = 0;  ///< operations in the timed rounds
    int64_t failed = 0;     ///< operations that failed a correctness check
    /** Failed checks and mechanism assertions, one line each. */
    std::vector<std::string> errors;

    /** Records an operation that failed a correctness check. */
    void Fail(const std::string& what);
    /** Records a failed mechanism assertion (the workload did not
     *  exercise what it exists for). */
    void MechanismFailed(const std::string& what);
    bool mechanisms_ok = true;
};

/** Per-layer values a workload reports for its traced round. */
using LayerValues = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Builds the system under test anew and returns its phase
     *  times; the run loop times and repeats the call. */
    virtual SetupTimes Setup() = 0;
    /** Set-ups the run loop repeats after each timed round, so that
     *  set-up is sampled across the whole run. Nonzero only where set-up
     *  is cheap next to a round and leaves the rounds' state alone. */
    virtual int SetupsPerRound() const { return 0; }
    /** Untimed: spawns pool threads, faults pages in, fills memo caches. */
    virtual void Warmup() = 0;
    /** One round of the workload's fixed work. */
    virtual Round RunRound() = 0;
    /** Untimed correctness checks over what the rounds produced. */
    virtual void Check(Tally& tally) = 0;
    /** Fails loudly when the rounds did not exercise the mechanism the
     *  workload exists for. */
    virtual void AssertMechanisms(Tally& tally) = 0;

    /** Routes linears through span-recording wrappers (traced round). */
    virtual void SetTraced(bool traced) { (void)traced; }
    /** Snapshots the workload's own counters before the traced round. */
    virtual void BeginTracedRound() {}
    /** Adds the workload's own per-layer values for the traced round of
     *  `ops` operations, and asserts mechanisms only the trace shows. */
    virtual void EndTracedRound(const SpanTable& spans, int64_t ops,
                                LayerValues& values, Tally& tally)
    {
        (void)spans;
        (void)ops;
        (void)values;
        (void)tally;
    }
    /** Model shapes for linear flop accounting; nullptr without tensors. */
    virtual const ModelConfig* config() const { return nullptr; }
};

/** Workload names in run order. */
const std::vector<std::string>& WorkloadNames();

/** The named workload with inputs from `seed`; `smoke` shrinks every
 *  round to a few seconds of work. Fatal on unknown names. */
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, bool smoke);

}  // namespace bench
}  // namespace llmnpu

#endif  // LLMNPU_BENCHMARK_WORKLOADS_H
