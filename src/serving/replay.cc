#include "src/serving/replay.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/format.h"
#include "src/util/rng.h"

namespace llmnpu {

namespace {

/** Seed of the per-request synthetic token streams. */
constexpr uint64_t kTokenSeed = 0xb47c;

/** Per-request replay state: synthetic streams and collected outputs. */
struct SeqState {
    int slot = -1;  ///< BatchedKvCache slot, -1 until first prefill chunk
    /** Replayed shared-prefix length: > 0 means this sequence forks off
     *  the prefix template instead of starting empty, and `prompt` holds
     *  only the private suffix tokens (the serving plane prefills sharers
     *  on the suffix alone). */
    int prefix_len = 0;
    /** Serving-trace prefix length — the template-group key. */
    int prefix_key = 0;
    std::vector<int> prompt;
    std::vector<int> outputs;
    int chunks_done = 0;
    int tokens_decoded = 0;
    /** Placement each decoded token actually executed at (placement-aware
     *  replays only), parallel to the decoded stream. Recorded from the
     *  batched pass so the solo reference re-runs a mid-stream failover
     *  with the exact same per-token placements. */
    std::vector<DecodePlacement> decode_placements;
    /** Hidden/logit rows in execution order, for the bitwise check. */
    std::vector<float> hidden_rows;
    std::vector<float> logit_rows;
};

/** The tokens of prompt chunk `c` of `C` under the near-even partition. */
std::vector<int>
ChunkTokens(const std::vector<int>& prompt, int c, int num_chunks)
{
    const int p = static_cast<int>(prompt.size());
    const int base = p / num_chunks;
    const int rem = p % num_chunks;
    int start = 0;
    for (int i = 0; i < c; ++i) start += base + (i < rem ? 1 : 0);
    const int len = base + (c < rem ? 1 : 0);
    LLMNPU_CHECK_GT(len, 0);
    return std::vector<int>(prompt.begin() + start,
                            prompt.begin() + start + len);
}

/** Appends every row of `t` to `dst`. */
void
AppendRows(std::vector<float>& dst, const Tensor& t)
{
    const float* p = t.Data<float>();
    dst.insert(dst.end(), p, p + t.NumElements());
}

/**
 * Shared replay core. When `placement` is non-null, `linears` is the
 * DecodeBackend `backend` and every step (batched and solo reference) sets
 * per-member placements on it before forwarding.
 */
ReplayOutcome
ReplayTraceImpl(const std::vector<ReplayStep>& steps,
                const std::vector<RequestRecord>& records,
                const Transformer& model, LinearExecutor& linears,
                const ReplayPlacement* placement, DecodeBackend* backend,
                const ReplayOptions& options)
{
    LLMNPU_CHECK_GT(options.max_prompt_tokens, 0);
    LLMNPU_CHECK_GT(options.max_output_tokens, 0);
    const int vocab = model.config().vocab_size;

    ReplayOutcome outcome;
    std::map<int, SeqState> seqs;

    // ---- Synthetic teacher-forced token streams, derived from the trace.
    // Prompt length is the serving-trace length clamped to a tractable
    // range; chunk boundaries are the near-even partition into the number
    // of chunks the scheduler actually dispatched.
    std::map<int, int> num_chunks;  // request id -> chunk count
    for (const ReplayStep& step : steps) {
        if (!step.is_prefill) continue;
        LLMNPU_CHECK_EQ(step.request_ids.size(), 1u);
        num_chunks[step.request_ids.front()] = step.num_chunks;
    }
    // Shared-prefix token streams are per *group*, not per request: every
    // sharer of the same serving prefix length replays the same prefix
    // tokens, computed once into a template sequence and forked from there.
    std::map<int, std::vector<int>> prefix_tokens;  // serving len -> tokens
    for (const auto& [id, chunks] : num_chunks) {
        LLMNPU_CHECK_GE(id, 0);
        LLMNPU_CHECK_LT(static_cast<size_t>(id), records.size());
        const ServingRequest& request =
            records[static_cast<size_t>(id)].request;
        SeqState state;
        // Sharers replay the private suffix as their prompt; the replayed
        // prefix is the serving prefix clamped like any prompt would be.
        const int served_prompt = request.shared_prefix_len > 0
                                      ? request.PrivatePromptLen()
                                      : request.prompt_len;
        const int prompt_len = std::max(
            chunks, std::min(options.max_prompt_tokens, served_prompt));
        const int output_len =
            std::min(options.max_output_tokens, request.output_len);
        if (request.shared_prefix_len > 0) {
            state.prefix_key = request.shared_prefix_len;
            state.prefix_len = std::min(request.shared_prefix_len,
                                        options.max_prompt_tokens);
            auto [it, fresh] =
                prefix_tokens.try_emplace(state.prefix_key);
            if (fresh) {
                Rng group_rng(kTokenSeed ^
                              (0xda3e39cb94b95bdbULL *
                               static_cast<uint64_t>(state.prefix_key)));
                for (int i = 0; i < state.prefix_len; ++i) {
                    it->second.push_back(static_cast<int>(
                        group_rng.Next() % static_cast<uint64_t>(vocab)));
                }
            }
        }
        Rng rng(kTokenSeed ^ (0x9e3779b97f4a7c15ULL *
                              static_cast<uint64_t>(id + 1)));
        for (int i = 0; i < prompt_len; ++i) {
            state.prompt.push_back(
                static_cast<int>(rng.Next() % static_cast<uint64_t>(vocab)));
        }
        for (int i = 0; i < output_len; ++i) {
            state.outputs.push_back(
                static_cast<int>(rng.Next() % static_cast<uint64_t>(vocab)));
        }
        seqs.emplace(id, std::move(state));
    }
    outcome.sequences = static_cast<int>(seqs.size());

    // ---- Batched replay: execute each step through ForwardBatch.
    BatchedKvCache cache = model.MakeBatchedCache();
    // Prefix templates, materialized lazily at the first fork: the group's
    // prefix tokens run once through ForwardBatch (rows discarded — the
    // prefix KV is the asset, matching the serving plane's shared-cache
    // pricing), then every sharer forks the template's pages. The template
    // is never retired, so eviction re-forks land on the same pages.
    std::map<int, int> template_slots;  // serving prefix len -> slot
    auto ensure_template = [&](int prefix_key) -> int {
        auto it = template_slots.find(prefix_key);
        if (it != template_slots.end()) return it->second;
        const int slot = cache.AddSequence();
        if (placement != nullptr) {
            backend->SetStepPlacements({placement->prefill});
        }
        (void)model.ForwardBatch({{slot, prefix_tokens.at(prefix_key)}},
                                 cache, linears);
        template_slots.emplace(prefix_key, slot);
        return slot;
    };
    for (const ReplayStep& step : steps) {
        std::vector<BatchSeq> batch;
        std::vector<int> member_ids;
        std::vector<DecodePlacement> step_placements;
        if (step.is_prefill) {
            const int id = step.request_ids.front();
            SeqState& state = seqs.at(id);
            if (step.chunk_index == 0 && state.chunks_done > 0) {
                // Eviction restart: the simulator released this request's
                // KV pages mid-decode and re-ran its prefill from chunk 0.
                // Mirror it — retire the slot (pages back to the pool) and
                // recompute from scratch. Collected rows reset too: the
                // bitwise reference is the *uninterrupted* solo run of the
                // final pass, so eviction-then-readmit must reproduce it
                // exactly.
                cache.RetireSequence(state.slot);
                state.slot = -1;
                state.chunks_done = 0;
                state.tokens_decoded = 0;
                state.decode_placements.clear();
                state.hidden_rows.clear();
                state.logit_rows.clear();
            }
            if (state.slot < 0) {
                if (state.prefix_len > 0) {
                    const int tmpl = ensure_template(state.prefix_key);
                    state.slot = cache.AddSequenceSharingPrefix(
                        tmpl, state.prefix_len);
                    ++outcome.shared_prefix_forks;
                } else {
                    state.slot = cache.AddSequence();
                }
                // The join key between the serving plane (request ids) and
                // the numeric plane (cache slots): args carry both.
                LLMNPU_TRACE_INSTANT_ID("replay.seq_map", "replay", id,
                                        state.slot, -1);
            }
            LLMNPU_CHECK_EQ(state.chunks_done, step.chunk_index);
            batch.push_back({state.slot,
                             ChunkTokens(state.prompt, step.chunk_index,
                                         step.num_chunks)});
            member_ids.push_back(id);
            if (placement != nullptr) {
                step_placements.push_back(placement->prefill);
            }
            ++state.chunks_done;
        } else {
            for (size_t mi = 0; mi < step.request_ids.size(); ++mi) {
                const int id = step.request_ids[mi];
                SeqState& state = seqs.at(id);
                LLMNPU_CHECK_EQ(state.chunks_done,
                                num_chunks.at(id));  // prefilled
                if (state.tokens_decoded >=
                    static_cast<int>(state.outputs.size())) {
                    ++outcome.truncated_memberships;
                    continue;
                }
                batch.push_back(
                    {state.slot,
                     {state.outputs[static_cast<size_t>(
                         state.tokens_decoded)]}});
                member_ids.push_back(id);
                if (placement != nullptr) {
                    // Trace-recorded placements win over the replay's
                    // one decode placement: a fault-plane run's circuit
                    // breaker can switch a request NPU->CPU mid-stream,
                    // and the executed schedule is what must replay.
                    const DecodePlacement member_placement =
                        mi < step.placements.size() ? step.placements[mi]
                                                    : placement->decode;
                    step_placements.push_back(member_placement);
                    state.decode_placements.push_back(member_placement);
                }
                ++state.tokens_decoded;
            }
            if (batch.empty()) continue;  // all members past the cap
            outcome.max_decode_batch =
                std::max(outcome.max_decode_batch,
                         static_cast<int>(batch.size()));
        }

        if (placement != nullptr) {
            backend->SetStepPlacements(std::move(step_placements));
        }
        Tensor hidden, logits;
        {
            // Prefill spans carry the chunk's token-row count — the
            // predictor's chunk-dispatch training feature; decode spans
            // keep the batch size.
            int step_rows = 0;
            for (const BatchSeq& seq : batch) {
                step_rows += static_cast<int>(seq.tokens.size());
            }
            LLMNPU_TRACE_SPAN_TILE(
                step.is_prefill ? "replay.prefill" : "replay.decode",
                "replay", member_ids.front(), batch.front().seq, -1,
                step.is_prefill ? "rows" : "batch",
                step.is_prefill ? step_rows
                                : static_cast<int>(batch.size()));
            hidden = model.ForwardBatch(batch, cache, linears);
            logits = model.Logits(hidden);
        }
        ++outcome.steps_executed;
        outcome.stacked_rows += hidden.Rows();
        if (step.is_prefill) {
            ++outcome.prefill_steps;
        } else {
            ++outcome.decode_steps;
        }

        int64_t row = 0;
        for (size_t i = 0; i < batch.size(); ++i) {
            const int64_t rows =
                static_cast<int64_t>(batch[i].tokens.size());
            SeqState& state = seqs.at(member_ids[i]);
            AppendRows(state.hidden_rows, hidden.CopyRows(row, rows));
            AppendRows(state.logit_rows, logits.CopyRows(row, rows));
            row += rows;
        }
    }

    outcome.cow_page_clones = cache.pool().cow_clones();

    if (!options.check_bitwise) return outcome;

    // ---- Reference: every sequence alone, same per-step token groups,
    // through Forward on a one-slot cache. Bitwise comparison against the
    // batched rows catches any batch-size dependence anywhere in the stack.
    for (auto& [id, state] : seqs) {
        if (state.slot < 0) continue;  // never dispatched in the trace
        BatchedKvCache solo = model.MakeCache();
        std::vector<float> hidden_rows, logit_rows;
        if (state.prefix_len > 0) {
            // The sharer's solo reference owns no template: it prefills
            // the group's prefix tokens itself (rows discarded, like the
            // template materialization) and then runs the suffix chunks
            // over that KV — bitwise-identical state to attending over
            // the shared pages.
            if (placement != nullptr) {
                backend->SetStepPlacements({placement->prefill});
            }
            (void)model.Forward(prefix_tokens.at(state.prefix_key), solo,
                                linears);
        }
        for (int c = 0; c < state.chunks_done; ++c) {
            if (placement != nullptr) {
                backend->SetStepPlacements({placement->prefill});
            }
            Tensor h = model.Forward(
                ChunkTokens(state.prompt, c, num_chunks.at(id)), solo,
                linears);
            AppendRows(hidden_rows, h);
            AppendRows(logit_rows, model.Logits(h));
        }
        for (int t = 0; t < state.tokens_decoded; ++t) {
            if (placement != nullptr) {
                backend->SetStepPlacements(
                    {state.decode_placements[static_cast<size_t>(t)]});
            }
            Tensor h = model.Forward(
                {state.outputs[static_cast<size_t>(t)]}, solo, linears);
            AppendRows(hidden_rows, h);
            AppendRows(logit_rows, model.Logits(h));
        }
        const bool hidden_ok =
            hidden_rows.size() == state.hidden_rows.size() &&
            std::memcmp(hidden_rows.data(), state.hidden_rows.data(),
                        hidden_rows.size() * sizeof(float)) == 0;
        const bool logits_ok =
            logit_rows.size() == state.logit_rows.size() &&
            std::memcmp(logit_rows.data(), state.logit_rows.data(),
                        logit_rows.size() * sizeof(float)) == 0;
        if (!hidden_ok || !logits_ok) {
            outcome.bitwise_match = false;
            if (outcome.first_mismatch.empty()) {
                outcome.first_mismatch = StrFormat(
                    "request %d: batched %s differ from sequential", id,
                    hidden_ok ? "logits" : "hidden states");
            }
        }
    }
    return outcome;
}

}  // namespace

ReplayOutcome
ReplayServingTrace(const std::vector<ReplayStep>& steps,
                   const std::vector<RequestRecord>& records,
                   const Transformer& model, LinearExecutor& linears,
                   const ReplayOptions& options)
{
    DecodeBackend* backend = nullptr;
    const ReplayPlacement* placement = nullptr;
    if (options.placement.has_value()) {
        backend = dynamic_cast<DecodeBackend*>(&linears);
        LLMNPU_FATAL_IF(backend == nullptr,
                        "ReplayOptions::placement requires `linears` to be "
                        "a DecodeBackend (per-member placement routing)");
        placement = &*options.placement;
    }
    // Trace capture: a replay with a sink runs with the host-plane tracer
    // on, so the handoff and chunk-dispatch spans land somewhere the
    // predictor's training extractor can read them back.
    const bool want_trace = !options.trace_sink.empty();
    const bool was_enabled = obs::TraceEnabled();
    if (want_trace && !was_enabled) {
        obs::Tracer::Global().Enable();
        obs::Tracer::Global().Reset();
    }
    ReplayOutcome outcome = ReplayTraceImpl(steps, records, model, linears,
                                            placement, backend, options);
    if (want_trace) {
        obs::Tracer::Global().WriteChromeTrace(options.trace_sink);
        if (!was_enabled) obs::Tracer::Global().Disable();
    }
    return outcome;
}

}  // namespace llmnpu
