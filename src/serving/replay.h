/**
 * @file
 * Serving→numeric bridge: replays a simulated serving schedule on real
 * tensors.
 *
 * The simulator batches at the cost-model level; this module takes the
 * per-step batch composition it exports (ServingResult::replay_steps) and
 * executes it through Transformer::ForwardBatch — every prefill chunk and
 * every continuously batched decode step runs as one stacked matmul over
 * the member sequences, each sequence keeping its own KV slot. Token
 * streams are synthetic and teacher-forced (deterministic per request id),
 * so the same schedule can also be re-run sequence-by-sequence with plain
 * Forward() and compared bitwise — the §3.2 chunk-exactness argument
 * extended to multi-request batches.
 */
#ifndef LLMNPU_SERVING_REPLAY_H
#define LLMNPU_SERVING_REPLAY_H

#include <optional>
#include <string>
#include <vector>

#include "src/model/decode_backend.h"
#include "src/model/transformer.h"
#include "src/serving/simulator.h"

namespace llmnpu {

/**
 * Placements of a placement-aware replay: where prefill chunks execute,
 * and where a decode step executes when the trace recorded no per-member
 * placements for it (ReplayStep::placements empty). The bitwise reference
 * of a placed replay is the solo run with the *same* per-step placements.
 */
struct ReplayPlacement {
    /** Placement of every prefill chunk (the paper's deployment prefills
     *  on the NPU, so the quantized path is the default). */
    DecodePlacement prefill = DecodePlacement::kNpuQuant;
    /** Placement of every member of a decode step without recorded
     *  placements. */
    DecodePlacement decode = DecodePlacement::kCpuFloat;
};

/** Options scaling a served trace down to a tractable numeric replay. */
struct ReplayOptions {
    /** Replayed prompt length: the serving-trace prompt length clamped to
     *  [num_chunks, max_prompt_tokens] (each chunk needs >= 1 token). */
    int max_prompt_tokens = 24;
    /** Decode tokens replayed per request; members past the cap drop out of
     *  later decode steps (their truncated memberships are counted). */
    int max_output_tokens = 4;
    /** Re-run every sequence alone and compare hidden states and logits
     *  bitwise against the batched replay. */
    bool check_bitwise = true;
    /** Placement-aware replay: set to route every step through a
     *  DecodeBackend with per-member placements — prefill chunks on
     *  placement->prefill, each decode member on the trace-recorded
     *  placement when present (fault failovers, PredictedPlacement), else
     *  on placement->decode. Requires `linears` to actually be
     *  a DecodeBackend (fatal otherwise). */
    std::optional<ReplayPlacement> placement;
    /** Non-empty: the replay runs with host-plane tracing on and writes a
     *  Chrome/Perfetto trace of its spans to this path (the predictor's
     *  handoff / chunk-dispatch training source). A tracer that was
     *  already enabled keeps its buffer and stays enabled; otherwise the
     *  tracer is enabled for the replay and restored after. */
    std::string trace_sink;
};

/** What the replay executed and whether it matched sequential execution. */
struct ReplayOutcome {
    int sequences = 0;
    int steps_executed = 0;
    int prefill_steps = 0;
    int decode_steps = 0;
    /** Largest decode batch actually stacked (the m of the m=B matmul). */
    int max_decode_batch = 0;
    /** Total activation rows pushed through ForwardBatch. */
    int64_t stacked_rows = 0;
    /** Decode-step memberships dropped by max_output_tokens. */
    int64_t truncated_memberships = 0;
    /** Sequences forked off a shared-prefix template
     *  (AddSequenceSharingPrefix), eviction re-forks included. */
    int shared_prefix_forks = 0;
    /** Copy-on-write page clones the replay cache performed — a fork whose
     *  replayed prefix is not page-aligned clones its frontier page on the
     *  first divergent write. */
    int64_t cow_page_clones = 0;
    /** true when every sequence's hidden states and logits were bitwise
     *  identical to running it alone (always true when check_bitwise was
     *  off and no comparison ran). */
    bool bitwise_match = true;
    /** First mismatch description, empty when bitwise_match. */
    std::string first_mismatch;
};

/**
 * Replays `steps` (from a ServingResult) through `model` with `linears`.
 * The single entry point: placement-aware routing and trace capture are
 * both ReplayOptions fields (`placement`, `trace_sink`). With
 * options.placement set, `linears` must be a DecodeBackend; one batched
 * decode step may then mix NPU-quantized and CPU-float sequences, and the
 * bitwise check re-runs every sequence alone with the same per-step
 * placements.
 *
 * @param steps   per-step batch composition, execution order.
 * @param records per-request records of the same run (prompt/output
 *                lengths), indexed by request id.
 */
ReplayOutcome ReplayServingTrace(const std::vector<ReplayStep>& steps,
                                 const std::vector<RequestRecord>& records,
                                 const Transformer& model,
                                 LinearExecutor& linears,
                                 const ReplayOptions& options = {});

}  // namespace llmnpu

#endif  // LLMNPU_SERVING_REPLAY_H
