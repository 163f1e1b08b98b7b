#include "src/serving/simulator.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serving/kv_ledger.h"
#include "src/sim/thermal.h"
#include "src/util/check.h"
#include "src/util/format.h"

namespace llmnpu {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** A request between admission and prefill completion. */
struct PendingPrefill {
    int id = 0;
    int next_chunk = 0;
    const ServingCostProfile* profile = nullptr;
    /** Fault-plane retry attempt of the *next* chunk (0 = first try). */
    int attempt = 0;
    /** Backoff gate: the chunk may not dispatch before this time. */
    double ready_ms = 0.0;

    double RemainingMs() const
    {
        double total = 0.0;
        for (size_t c = static_cast<size_t>(next_chunk);
             c < profile->chunk_ms.size(); ++c) {
            total += profile->chunk_ms[c];
        }
        return total;
    }
};

/** Per-request run state, indexed by request id. */
struct RequestState {
    /** The request's cost profile, resolved once at admission. */
    const ServingCostProfile* profile = nullptr;
    int decode_attempt = 0;        ///< retries of the *current* token
    int consec_faults = 0;         ///< consecutive NPU faults (breaker)
    double decode_ready_ms = 0.0;  ///< decode backoff gate
};

/** One simulation run: the machine, the queues, the KV ledger and the
 *  fault plane's live state, driven event by event by Run(). */
class ServingRun
{
  public:
    ServingRun(ServingCostModel& costs,
               const std::vector<DatasetProfile>& mix,
               const ServingOptions& options)
        : costs_(costs),
          options_(options),
          fopts_(options.faults),
          queue_policy_(options.queue_policy
                            ? *options.queue_policy
                            : QueuePolicy(SchedPolicy::kFcfs)),
          predictor_(options.placement_policy.get()),
          fault_plane_(options.faults),
          inject_on_(options.faults.Enabled()),
          thermal_(options.faults.thermal),
          peak_temp_c_(thermal_.temperature_c()),
          shrink_pending_(options.faults.pool_shrink_at_ms >= 0.0),
          ledger_(options.num_requests, options.kv_pool_pages,
                  options.shared_prefix.prefix_len),
          state_(static_cast<size_t>(options.num_requests)),
          sampler_(mix, options.seed)
    {
        result_.records.reserve(static_cast<size_t>(options_.num_requests));
        sampler_.SetSharedPrefix(options_.shared_prefix);
        if (options_.closed_loop) {
            const int first_wave =
                std::min(options_.num_clients, options_.num_requests);
            client_wakeups_.assign(static_cast<size_t>(first_wave), 0.0);
            issued_ = first_wave;
        } else {
            open_arrivals_ = GeneratePoissonArrivals(
                mix, options_.rate_rps, options_.num_requests,
                options_.seed, options_.shared_prefix);
            issued_ = options_.num_requests;
        }
    }

    /** Advances to the earliest of {arrival, chunk completion, decode-step
     *  completion at the current interference-dependent rate, fault-plane
     *  wake-up} and handles it; false once all is quiet. A wake-up (retry
     *  backoff or queued deadline expiring, the pool shrink) is handled by
     *  the sweeps and dispatch attempts that follow every event. */
    bool HandleNextEvent()
    {
        double t_arrival = kInf;
        if (options_.closed_loop) {
            for (double t : client_wakeups_) t_arrival = std::min(t_arrival, t);
        } else if (next_open_ < open_arrivals_.size()) {
            t_arrival = open_arrivals_[next_open_].arrival_ms;
        }
        const double t_npu = npu_busy_ ? npu_end_ : kInf;
        const double t_step =
            step_active_
                ? step_last_update_ + step_remaining_work_ / DecodeRate()
                : kInf;
        double t_aux = kInf;
        if (inject_on_ || options_.shed_expired_queued) {
            for (const PendingPrefill& pending : prefill_queue_) {
                if (pending.ready_ms > now_) {
                    t_aux = std::min(t_aux, pending.ready_ms);
                }
                if (options_.shed_expired_queued) {
                    const double deadline =
                        Record(pending.id).request.deadline_ms;
                    if (deadline > now_) t_aux = std::min(t_aux, deadline);
                }
            }
            for (int id : decode_pool_) {
                const double ready =
                    state_[static_cast<size_t>(id)].decode_ready_ms;
                if (ready > now_) t_aux = std::min(t_aux, ready);
            }
            if (shrink_pending_ && fopts_.pool_shrink_at_ms > now_) {
                t_aux = std::min(t_aux, fopts_.pool_shrink_at_ms);
            }
        }
        const double t_next = std::min({t_arrival, t_npu, t_step, t_aux});
        if (t_next == kInf) return false;
        AdvanceTo(t_next);
        if (t_next == t_arrival) {
            Arrive();
        } else if (npu_busy_ && t_next == t_npu) {
            FinishChunk();
        } else if (step_active_ && t_next == t_step) {
            FinishStep();
        }
        return true;
    }

    /** The fault plane's shedding sweeps, run after every event. */
    void Sweep()
    {
        if (shrink_pending_ && now_ >= fopts_.pool_shrink_at_ms) Shrink();
        if (options_.shed_expired_queued) {
            // Deadline expiry while queued: a request whose SLO deadline
            // passed before it ever dispatched is a lost cause — shed it
            // at the deadline (an accounted SLO miss) and release any
            // reserved pages instead of burning prefill on it.
            ShedQueuedIf(
                [this](const PendingPrefill& pending) {
                    return Record(pending.id).request.deadline_ms <= now_;
                },
                "deadline_expired");
        }
        if (ledger_.prefix_pages() > 0 && ledger_.bounded() &&
            ledger_.prefix_holders() == 0) {
            // A sharer admitted while the prefix was resident was charged
            // only its private suffix. With the prefix dropped, one whose
            // whole once-counted demand no longer fits the live budget can
            // never dispatch — shed it rather than starving the queue.
            ShedQueuedIf(
                [this](const PendingPrefill& pending) {
                    return ledger_.held(pending.id) == 0 &&
                           Record(pending.id).request.shared_prefix_len > 0 &&
                           WholeDemand(pending.id) > ledger_.live_budget();
                },
                "prefix_dropped");
        }
        if (inject_on_ && fopts_.brownout_shedding && thermal_.Throttled()) {
            // Brownout: while the die is throttled, queued requests whose
            // deadline is infeasible even optimistically (remaining prefill
            // at the current slowdown plus their decode stream) are shed
            // rather than heating the NPU for work that can only miss.
            const double scale = thermal_.ServiceScale();
            ShedQueuedIf(
                [this, scale](const PendingPrefill& pending) {
                    const ServingRequest& request =
                        Record(pending.id).request;
                    if (request.deadline_ms >= 1e300) return false;
                    return now_ + pending.RemainingMs() * scale +
                               pending.profile->IsolatedDecodeMs(
                                   request.output_len) >
                           request.deadline_ms;
                },
                "brownout");
        }
    }

    void StartChunkIfIdle()
    {
        if (npu_busy_ || prefill_queue_.empty()) return;
        std::vector<QueueEntry>& entries = chunk_entries_;
        std::vector<size_t>& eligible = chunk_eligible_;
        entries.clear();
        eligible.clear();
        for (size_t qi = 0; qi < prefill_queue_.size(); ++qi) {
            const PendingPrefill& pending = prefill_queue_[qi];
            const RequestRecord& record = Record(pending.id);
            // Backoff gate: a chunk that faulted waits out its capped
            // exponential delay before redispatching.
            if (pending.ready_ms > now_) continue;
            // A first chunk reserves its prompt's pages up front. Skip
            // candidates the pool cannot hold right now (they stay queued
            // until retirements or evictions free pages). Requests already
            // holding their reservation — mid-prefill, or a faulted chunk
            // 0 awaiting retry — stay eligible.
            if (ledger_.bounded() && pending.next_chunk == 0 &&
                ledger_.held(pending.id) == 0 &&
                ledger_.ReserveCharge(record.request) > ledger_.free()) {
                continue;
            }
            QueueEntry entry;
            entry.request_id = pending.id;
            entry.arrival_ms = record.request.arrival_ms;
            entry.deadline_ms = record.request.deadline_ms;
            entry.remaining_prefill_ms = pending.RemainingMs();
            entry.remaining_total_ms =
                entry.remaining_prefill_ms +
                pending.profile->IsolatedDecodeMs(record.request.output_len);
            entries.push_back(entry);
            eligible.push_back(qi);
        }
        if (entries.empty()) return;  // backpressured: NPU idles for pages
        const size_t pick = eligible[queue_policy_.Pick(entries, now_)];
        npu_job_ = prefill_queue_[pick];
        prefill_queue_.erase(prefill_queue_.begin() +
                             static_cast<long>(pick));
        RequestRecord& record = Record(npu_job_.id);
        if (npu_job_.next_chunk == 0) {
            // Queueing delay is measured to the *first ever* dispatch; an
            // eviction's re-prefill must not reset it.
            if (record.first_dispatch_ms < 0.0) {
                record.first_dispatch_ms = now_;
            }
            if (ledger_.held(npu_job_.id) == 0) {
                ledger_.Reserve(record.request, now_);
            }
        }
        double duration = npu_job_.profile->chunk_ms[static_cast<size_t>(
            npu_job_.next_chunk)];
        // Thermal throttling inflates the whole chunk by the service scale
        // at dispatch (gated so thermal-off runs never touch the value).
        if (fopts_.thermal.enabled) duration *= thermal_.ServiceScale();
        // Fate of this attempt. A kFail attempt dies partway through; a
        // kStall attempt hangs until the watchdog declares it dead at
        // kWatchdogTimeoutFactor x the nominal service time.
        npu_fate_ = fault_plane_.Chunk(npu_job_.id, npu_job_.next_chunk,
                                       npu_job_.attempt);
        if (npu_fate_ == FaultPlane::ChunkFate::kFail) {
            duration *= fault_plane_.ChunkFailFraction(
                npu_job_.id, npu_job_.next_chunk, npu_job_.attempt);
        } else if (npu_fate_ == FaultPlane::ChunkFate::kStall) {
            duration *= kWatchdogTimeoutFactor;
        }
        npu_busy_ = true;
        ++npu_attempts_;
        npu_start_ = now_;
        npu_end_ = now_ + duration;
        // The chunk slows whichever side the active step runs on: the
        // float processor its float stages hold, or the NPU itself.
        chunk_float_factor_ = npu_job_.profile->float_decode_interference;
        chunk_npu_factor_ = npu_job_.profile->npu_decode_interference;
        if (npu_fate_ == FaultPlane::ChunkFate::kOk) {
            result_.npu_busy_ms += duration;
        } else {
            result_.npu_faulted_ms += duration;
        }
        if (step_active_) {
            // The chunk's float stages steal decode bandwidth from the
            // step already in flight: that's a preemption.
            ++result_.preemptions;
            for (int id : step_members_) ++Record(id).preemptions;
            Instant("sim.preempt", npu_job_.id);
        }
    }

    void StartStepIfIdle()
    {
        if (step_active_ || decode_pool_.empty()) return;
        step_members_.clear();
        step_placements_.clear();
        std::vector<int> to_shed;
        // The two groups of a step run on different processors: the CPU
        // members at the largest CPU token price, the NPU members at the
        // oracle's price for their deepest context.
        double cpu_token_ms = 0.0;
        int cpu_members = 0;
        int64_t npu_ctx = 0;
        int npu_members = 0;
        // Placement decisions see the depth this step would run at and one
        // signal snapshot per step boundary (not per member), so every
        // decision is a pure function of the boundary's state and the
        // recorded placements replay bitwise.
        const int step_depth =
            std::min(options_.max_decode_batch,
                     static_cast<int>(decode_pool_.size()));
        const PolicySignals step_signals = Signals();
        for (size_t pi = 0;
             pi < decode_pool_.size() &&
             static_cast<int>(step_members_.size()) <
                 options_.max_decode_batch;
             ++pi) {
            const int id = decode_pool_[pi];
            RequestRecord& record = Record(id);
            RequestState& state = State(id);
            const ServingCostProfile& profile = *state.profile;
            const int64_t context_len =
                static_cast<int64_t>(record.request.prompt_len) +
                record.tokens_out;
            // The breaker rule: failover is permanent, so a failed-over
            // member decodes on the CPU whatever the predictor or the
            // profile would say.
            DecodePlacement place = profile.decode_placement;
            if (record.failed_over) {
                place = DecodePlacement::kCpuFloat;
            } else if (predictor_ != nullptr) {
                PlacementQuery query;
                query.context_len = context_len;
                query.batch_depth = step_depth;
                query.signals = step_signals;
                place = predictor_->Place(query);
            }
            if (inject_on_) {
                // Backoff gate after a faulted dispatch.
                if (state.decode_ready_ms > now_) continue;
                if (place == DecodePlacement::kNpuQuant &&
                    fault_plane_.DecodeFaults(id, record.tokens_out,
                                              state.decode_attempt)) {
                    // The NPU dispatch for this member faults: it sits the
                    // step out (replay membership stays exactly what was
                    // executed) and either fails over, retries after
                    // backoff, or — retry budget gone — is shed.
                    ++npu_attempts_;  // tried and lost
                    CountFault(id);
                    FaultEvent("fault.decode", id, now_, now_, [&] {
                        return StrFormat("\"token\": %d, \"attempt\": %d",
                                         record.tokens_out,
                                         state.decode_attempt);
                    });
                    ++state.decode_attempt;
                    MaybeFailover(id);
                    if (record.failed_over) {
                        // Breaker fired: this very step runs on the CPU
                        // fallback — the mid-stream switch happens at a
                        // step boundary, never inside one.
                        place = DecodePlacement::kCpuFloat;
                    } else if (state.decode_attempt >= kMaxFaultAttempts) {
                        to_shed.push_back(id);
                        continue;
                    } else {
                        CountRetry(id);
                        state.decode_ready_ms =
                            now_ +
                            fault_plane_.BackoffMs(state.decode_attempt);
                        continue;
                    }
                }
                // Successful NPU dispatch heals the breaker window; the
                // token's retry counter starts fresh for the next token.
                if (place == DecodePlacement::kNpuQuant) {
                    state.consec_faults = 0;
                }
                state.decode_attempt = 0;
            }
            if (place == DecodePlacement::kNpuQuant) {
                npu_ctx = std::max(npu_ctx, context_len);
                ++npu_members;
            } else {
                cpu_token_ms =
                    std::max(cpu_token_ms, profile.cpu_decode_token_ms);
                ++cpu_members;
            }
            step_members_.push_back(id);
            step_placements_.push_back(place);
        }
        for (int id : to_shed) {
            EraseFromDecodePool(id);
            Shed(id, "decode_retry_budget");
        }
        if (step_members_.empty()) return;  // everyone backing off or shed
        // A step holding both groups lasts as long as the slower one.
        double step_ms =
            cpu_members > 0 ? CpuDecodeStepMs(cpu_token_ms, cpu_members) : 0.0;
        if (npu_members > 0) {
            double npu_ms = costs_.StepMs(DecodePlacement::kNpuQuant,
                                          npu_ctx, npu_members);
            if (fopts_.thermal.enabled) npu_ms *= thermal_.ServiceScale();
            step_ms = std::max(step_ms, npu_ms);
        }
        step_on_npu_ = npu_members > 0;
        npu_attempts_ += npu_members;
        step_active_ = true;
        step_remaining_work_ = step_ms;
        step_last_update_ = now_;
        step_start_ = now_;
    }

    /** Why Run() gave up on this run after `events` events. */
    std::string Runaway(int64_t events) const
    {
        return StrFormat(
            "serving run did not end: %lld events for %d requests "
            "(cap %lld per request), now %.3f ms, %zu queued for prefill, "
            "%zu in the decode pool, %lld of %lld KV pages used",
            static_cast<long long>(events), options_.num_requests,
            static_cast<long long>(kMaxEventsPerRequest), now_,
            prefill_queue_.size(), decode_pool_.size(),
            static_cast<long long>(ledger_.used()),
            static_cast<long long>(ledger_.live_budget()));
    }

    ServingResult Finish()
    {
        if (result_.makespan_ms > 0.0) {
            result_.kv_pages_mean = ledger_.integral() / result_.makespan_ms;
            result_.npu_throttled_frac = throttled_ms_ / result_.makespan_ms;
        }
        result_.peak_temp_c = peak_temp_c_;
        result_.kv_pool_pages = options_.kv_pool_pages;
        result_.kv_pool_pages_live = ledger_.live_budget();
        result_.kv_pages_peak = ledger_.peak();
        result_.kv_pages_peak_post_shrink = ledger_.post_shrink_peak();
        result_.shared_prefix_pages = ledger_.prefix_pages();
        result_.shared_prefix_materializations = ledger_.materializations();
        result_.shared_prefix_drops = ledger_.drops();
        result_.shared_prefix_refs_peak = ledger_.refs_peak();

        // The execution trace as a TimelineResult so the shared
        // schedule-validity helpers apply (per-unit busy, spans, makespan).
        TimelineResult& trace = result_.trace;
        trace.makespan_ms = result_.makespan_ms;
        for (size_t i = 0; i < result_.trace_tasks.size(); ++i) {
            const size_t unit =
                static_cast<size_t>(result_.trace_tasks[i].unit);
            const TaskRecord& record = trace.records[i];
            trace.busy_ms[unit] += record.end_ms - record.start_ms;
            if (trace.span_end_ms[unit] == 0.0) {
                trace.span_start_ms[unit] = record.start_ms;
            }
            trace.span_start_ms[unit] =
                std::min(trace.span_start_ms[unit], record.start_ms);
            trace.span_end_ms[unit] =
                std::max(trace.span_end_ms[unit], record.end_ms);
        }

        // The process-wide registry gets the finished run's totals. Nothing
        // in the result is read back from it, so runs on concurrent
        // threads never see each other's numbers.
        obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
        reg.GetCounter("sim.evictions").Add(result_.evictions);
        reg.GetCounter("sim.preemptions").Add(result_.preemptions);
        reg.GetCounter("sim.rejections").Add(result_.rejected);
        reg.GetCounter("sim.faults").Add(result_.faults);
        reg.GetCounter("sim.retries").Add(result_.retries);
        reg.GetCounter("sim.shed").Add(result_.shed);
        reg.GetCounter("sim.failovers").Add(result_.failovers);
        // The KV gauge ends at the final usage with this run's peak as its
        // watermark.
        obs::Gauge& kv_gauge = reg.GetGauge("sim.kv_used_pages");
        kv_gauge.Reset();
        kv_gauge.Set(static_cast<double>(result_.kv_pages_peak));
        kv_gauge.Set(static_cast<double>(ledger_.used()));
        if (fopts_.thermal.enabled) {
            reg.GetGauge("sim.npu_temp_c").Set(thermal_.temperature_c());
        }
        return std::move(result_);
    }

  private:
    /** Drains decode work, KV occupancy and die heat up to `t_ms`. */
    void AdvanceTo(double t_ms)
    {
        if (step_active_) {
            step_remaining_work_ -=
                (t_ms - step_last_update_) * DecodeRate();
            step_last_update_ = t_ms;
        }
        ledger_.Accrue(t_ms - now_);
        if (fopts_.thermal.enabled) {
            thermal_.Advance(t_ms - now_, npu_busy_);
            if (thermal_.Throttled()) throttled_ms_ += t_ms - now_;
            peak_temp_c_ = std::max(peak_temp_c_, thermal_.temperature_c());
            if (obs::TraceEnabled()) {
                obs::SimEvent event;
                event.name = "sim.npu_temp_c";
                event.phase = obs::TracePhase::kCounter;
                event.lane = obs::SimLane::kFaults;
                event.t0_ms = t_ms;
                event.value = thermal_.temperature_c();
                obs::Tracer::Global().RecordSim(std::move(event));
            }
        }
        now_ = t_ms;
        result_.makespan_ms = std::max(result_.makespan_ms, now_);
    }

    void Arrive()
    {
        if (options_.closed_loop) {
            client_wakeups_.erase(std::min_element(client_wakeups_.begin(),
                                                   client_wakeups_.end()));
            ArrivalEvent event = sampler_.Sample();
            event.arrival_ms = now_;
            Admit(event);
        } else {
            Admit(open_arrivals_[next_open_++]);
        }
    }

    void FinishChunk()
    {
        npu_busy_ = false;
        if (npu_fate_ != FaultPlane::ChunkFate::kOk) {
            // Faulted attempt: discarded work. No trace task, no replay
            // step (precedent: an eviction's cancelled in-flight chunk) —
            // the occupancy lives on the faults lane instead, so the trace
            // still shows where the NPU's time actually went.
            CountFault(npu_job_.id);
            FaultEvent(npu_fate_ == FaultPlane::ChunkFate::kFail
                           ? "fault.chunk_fail"
                           : "fault.chunk_stall",
                       npu_job_.id, npu_start_, npu_end_, [this] {
                           return StrFormat("\"chunk\": %d, \"attempt\": %d",
                                            npu_job_.next_chunk,
                                            npu_job_.attempt);
                       });
            npu_fate_ = FaultPlane::ChunkFate::kOk;
            MaybeFailover(npu_job_.id);
            ++npu_job_.attempt;
            if (npu_job_.attempt >= kMaxFaultAttempts) {
                // Retry budget exhausted: the request terminates as shed —
                // accounted, pages released, never goodput.
                Shed(npu_job_.id, "chunk_retry_budget");
                return;
            }
            CountRetry(npu_job_.id);
            npu_job_.ready_ms =
                now_ + fault_plane_.BackoffMs(npu_job_.attempt);
            FaultEvent("fault.retry", npu_job_.id, now_, now_, [this] {
                return StrFormat("\"attempt\": %d, \"not_before\": %.3f",
                                 npu_job_.attempt, npu_job_.ready_ms);
            });
            prefill_queue_.push_back(npu_job_);
            return;
        }
        result_.trace_tasks.push_back(
            {StrFormat("req%d.chunk%d", npu_job_.id, npu_job_.next_chunk),
             Unit::kNpu, npu_end_ - npu_start_, {}, npu_job_.next_chunk, -1});
        result_.trace.records.push_back({npu_start_, npu_end_});
        if (obs::TraceEnabled()) {
            Trace(obs::SimLane::kNpu, result_.trace_tasks.back().label,
                  npu_job_.id, npu_start_, npu_end_,
                  StrFormat("\"chunk\": %d", npu_job_.next_chunk));
        }
        result_.replay_steps.push_back(
            {/*is_prefill=*/true, {npu_job_.id}, npu_job_.next_chunk,
             static_cast<int>(npu_job_.profile->chunk_ms.size()), {}});
        State(npu_job_.id).consec_faults = 0;
        ++npu_job_.next_chunk;
        npu_job_.attempt = 0;
        npu_job_.ready_ms = 0.0;
        if (static_cast<size_t>(npu_job_.next_chunk) <
            npu_job_.profile->chunk_ms.size()) {
            prefill_queue_.push_back(npu_job_);
        } else {
            Record(npu_job_.id).prefill_done_ms = now_;
            decode_pool_.push_back(npu_job_.id);
        }
    }

    void FinishStep()
    {
        const double elapsed = now_ - step_start_;
        // Decode steps are traced on the CPU lane even when NPU-placed: an
        // NPU-resident step time-slices the accelerator with in-flight
        // chunks (priced by npu_decode_interference), so it is not an
        // exclusive NPU interval and would break the trace's
        // one-task-per-unit invariant. npu_busy_ms stays chunks-only.
        result_.trace_tasks.push_back(
            {StrFormat("decode.step%d(B=%zu)", step_counter_,
                       step_members_.size()),
             Unit::kCpu, elapsed, {}, -1, -1});
        result_.trace.records.push_back({step_start_, now_});
        if (obs::TraceEnabled()) {
            Trace(obs::SimLane::kDecode,
                  StrFormat("decode.step%d", step_counter_), -1, step_start_,
                  now_,
                  StrFormat("\"batch\": %d",
                            static_cast<int>(step_members_.size())));
        }
        ReplayStep replay;
        replay.request_ids = step_members_;
        if (inject_on_ || predictor_ != nullptr) {
            replay.placements = step_placements_;
        }
        result_.replay_steps.push_back(std::move(replay));
        ++step_counter_;
        result_.decode_busy_ms += elapsed;
        step_active_ = false;
        for (int id : step_members_) {
            RequestRecord& record = Record(id);
            // A mid-step pool shrink can shed or evict a member while its
            // step is still draining; the discarded computation emits
            // nothing.
            if (record.shed || !InDecodePool(id)) continue;
            ++record.tokens_out;
            // TTFT is to the first token *ever* emitted; an evicted
            // request's re-decode must not reset it.
            if (record.tokens_out == 1 && record.first_token_ms < 0.0) {
                record.first_token_ms = now_;
                Instant("sim.first_token", id);
            }
            if (record.tokens_out >= record.request.output_len) {
                record.finish_ms = now_;
                Instant("sim.complete", id);
                EraseFromDecodePool(id);
                ledger_.Release(id, now_);
                ClientReturns();
            }
        }
        // KV growth for the members that stay in the pool: each just
        // appended one position, charged against its private pages
        // (generated tokens extend the suffix, never the shared prefix).
        // Growth past the free pages runs the eviction order.
        for (int id : step_members_) {
            if (!InDecodePool(id)) continue;  // finished, shed, or evicted
            const RequestRecord& record = Record(id);
            int64_t delta =
                ledger_.Shortfall(record.request, record.tokens_out);
            if (delta <= 0) continue;
            while (ledger_.bounded() && delta > ledger_.free()) {
                if (EvictOneFor(id)) continue;
                // Only holders older than the grower remain: the grower
                // itself is preempted and recomputes later.
                EraseFromDecodePool(id);
                prefill_queue_.push_back(Evict(id));
                delta = 0;
                break;
            }
            if (delta > 0) ledger_.Grow(id, delta, now_);
        }
        step_members_.clear();
        step_placements_.clear();
    }

    RequestRecord& Record(int id)
    {
        return result_.records[static_cast<size_t>(id)];
    }
    const RequestRecord& Record(int id) const
    {
        return result_.records[static_cast<size_t>(id)];
    }
    RequestState& State(int id) { return state_[static_cast<size_t>(id)]; }
    int64_t WholeDemand(int id) const
    {
        return ledger_.Demand(Record(id).request);
    }
    bool InDecodePool(int id) const
    {
        return std::find(decode_pool_.begin(), decode_pool_.end(), id) !=
               decode_pool_.end();
    }
    void EraseFromDecodePool(int id)
    {
        decode_pool_.erase(
            std::find(decode_pool_.begin(), decode_pool_.end(), id));
    }
    /** A queue entry that prefills `id` from chunk 0. */
    PendingPrefill FreshPrefill(int id)
    {
        PendingPrefill pending;
        pending.id = id;
        pending.profile = State(id).profile;
        return pending;
    }

    double DecodeRate() const
    {
        const double interference =
            step_on_npu_ ? chunk_npu_factor_ : chunk_float_factor_;
        return npu_busy_ ? std::max(0.05, 1.0 - interference) : 1.0;
    }

    /** Live degradation + load signals for placement and admission:
     *  thermal state, the observed fault rate, current decode load. */
    PolicySignals Signals() const
    {
        PolicySignals signals;
        signals.now_ms = now_;
        signals.npu_service_scale =
            fopts_.thermal.enabled ? thermal_.ServiceScale() : 1.0;
        signals.npu_fault_rate =
            npu_attempts_ > 0 ? static_cast<double>(result_.faults) /
                                    static_cast<double>(npu_attempts_)
                              : 0.0;
        signals.decode_pool_depth = static_cast<int>(decode_pool_.size());
        return signals;
    }

    void Admit(const ArrivalEvent& event)
    {
        RequestRecord record;
        record.request.id = static_cast<int>(result_.records.size());
        record.request.arrival_ms = event.arrival_ms;
        record.request.prompt_len = event.request.prompt_len;
        record.request.output_len = event.request.output_len;
        record.request.profile_index = event.profile_index;
        record.request.shared_prefix_len = event.shared_prefix_len;
        // Sharers are costed on what they actually compute: the private
        // suffix (the shared prefix's KV is served from the cache, not
        // re-prefilled). Their SLO baseline tightens accordingly.
        const double isolated_e2e =
            costs_.IsolatedE2eMs(record.request.ServedInference());
        if (options_.slo_factor > 0.0) {
            record.request.deadline_ms =
                event.arrival_ms + options_.slo_factor * isolated_e2e;
        }
        // Admission control. A request whose *whole* KV demand exceeds
        // the pool budget is refused — it could never run to completion,
        // only starve or thrash the pool. Requests that merely don't fit
        // right now are not rejected; they queue and wait for pages.
        // Predicted-SLO admission additionally turns away arrivals whose
        // predicted finish already misses their deadline.
        record.rejected =
            ledger_.bounded() &&
            ledger_.AdmissionCharge(record.request) > ledger_.live_budget();
        if (!record.rejected && options_.predicted_slo_admission) {
            AdmissionQuery admission;
            admission.deadline_ms = record.request.deadline_ms;
            admission.isolated_e2e_ms = isolated_e2e;
            admission.queued_prefill_ms = npu_busy_ ? npu_end_ - now_ : 0.0;
            for (const PendingPrefill& pending : prefill_queue_) {
                admission.queued_prefill_ms += pending.RemainingMs();
            }
            admission.signals = Signals();
            record.rejected = !PredictedSloAdmits(admission);
        }
        result_.records.push_back(record);
        if (record.rejected) {
            ++result_.rejected;
            Instant("sim.reject", record.request.id);
            ClientReturns();
            return;
        }
        if (record.request.shared_prefix_len > 0) ++result_.shared_requests;
        State(record.request.id).profile =
            &costs_.Costs(record.request.ServedInference());
        prefill_queue_.push_back(FreshPrefill(record.request.id));
        Instant("sim.arrive", record.request.id);
    }

    /** One trace event on `lane`: a span over [t0, t1] when t1 > t0,
     *  else an instant. Callers build `name` and `args` only while
     *  obs::TraceEnabled(), so an untraced run formats no strings. */
    static void Trace(obs::SimLane lane, std::string name, int req,
                      double t0, double t1, std::string args = {})
    {
        obs::SimEvent event;
        event.name = std::move(name);
        event.lane = lane;
        event.phase = t1 > t0 ? obs::TracePhase::kSpan
                              : obs::TracePhase::kInstant;
        event.t0_ms = t0;
        event.t1_ms = t1;
        event.req = req;
        event.args_json = std::move(args);
        obs::Tracer::Global().RecordSim(std::move(event));
    }
    void Instant(const char* name, int req) const
    {
        if (!obs::TraceEnabled()) return;
        Trace(obs::SimLane::kEvents, name, req, now_, now_);
    }
    /** Fault-plane events render on their own Perfetto lane so degraded
     *  runs read as "what went wrong / what the defense did". `args()`
     *  returns the event's JSON args and runs only while tracing. */
    template <typename Args>
    void FaultEvent(const char* name, int req, double t0, double t1,
                    Args args) const
    {
        if (!obs::TraceEnabled()) return;
        Trace(obs::SimLane::kFaults, name, req, t0, t1, args());
    }

    /** A closed-loop client whose request just ended (completed, shed or
     *  rejected) comes back after its think time. */
    void ClientReturns()
    {
        if (options_.closed_loop && issued_ < options_.num_requests) {
            client_wakeups_.push_back(now_ + options_.think_time_ms);
            ++issued_;
        }
    }
    void CountFault(int id)
    {
        ++Record(id).faults;
        ++result_.faults;
        ++State(id).consec_faults;
    }
    void CountRetry(int id)
    {
        ++Record(id).retries;
        ++result_.retries;
    }

    // Circuit breaker: after K consecutive NPU faults on one request
    // (chunk faults during its prefill, decode-dispatch faults during its
    // stream), its decode placement fails over to the packed-fp32 CPU
    // fallback — permanently, mid-stream, at the next step boundary.
    void MaybeFailover(int id)
    {
        if (fopts_.circuit_breaker_k <= 0) return;
        if (State(id).consec_faults < fopts_.circuit_breaker_k) return;
        RequestRecord& record = Record(id);
        if (record.failed_over) return;
        record.failed_over = true;
        record.failover_ms = now_;
        ++result_.failovers;
        FaultEvent("fault.failover", id, now_, now_,
                   [] { return std::string("\"to\": \"cpu_float\""); });
    }

    // Terminal degraded-mode outcome for an admitted request: its pages go
    // back to the pool and it counts as an SLO miss (never goodput). The
    // caller removes the request from whatever container held it.
    void Shed(int id, const char* reason)
    {
        ledger_.Release(id, now_);
        RequestRecord& record = Record(id);
        record.shed = true;
        record.shed_ms = now_;
        ++result_.shed;
        FaultEvent("fault.shed", id, now_, now_, [reason] {
            return StrFormat("\"reason\": \"%s\"", reason);
        });
        ClientReturns();
    }

    /** Sheds every queued request `pred` picks, youngest first. */
    template <typename Pred>
    void ShedQueuedIf(Pred pred, const char* reason)
    {
        for (size_t j = prefill_queue_.size(); j-- > 0;) {
            if (!pred(prefill_queue_[j])) continue;
            const int id = prefill_queue_[j].id;
            prefill_queue_.erase(prefill_queue_.begin() +
                                 static_cast<long>(j));
            Shed(id, reason);
        }
    }

    // Cancels the in-flight chunk. Its partial execution is discarded
    // untimed (no trace task, full duration backed out of the matching
    // busy accumulator) so trace busy-time conservation and the
    // trace↔replay parallelism hold.
    void CancelInFlight()
    {
        if (npu_fate_ == FaultPlane::ChunkFate::kOk) {
            result_.npu_busy_ms -= npu_end_ - npu_start_;
        } else {
            result_.npu_faulted_ms -= npu_end_ - npu_start_;
        }
        npu_busy_ = false;
    }

    // Preemption by recompute: `id`'s pages go back to the pool and its
    // prefill restarts from chunk 0. Returns the restarted queue entry;
    // the caller has already taken the request out of wherever it was.
    PendingPrefill Evict(int id)
    {
        ledger_.Release(id, now_);
        RequestRecord& record = Record(id);
        record.tokens_out = 0;
        record.prefill_done_ms = -1.0;
        ++record.evictions;
        ++result_.evictions;
        State(id).decode_attempt = 0;
        State(id).decode_ready_ms = 0.0;
        Instant("sim.evict", id);
        return FreshPrefill(id);
    }

    // KV growth past the free pages preempts other page holders —
    // preemption by recompute (pages released, prefill restarted from
    // chunk 0). Also the back-pressure valve of the fault plane's pool
    // shrink, with grower = -1 ("the pool itself shrank; any holder is
    // fair game, youngest first").
    //
    // Victim order is what makes this terminate: (1) decode-pool members
    // strictly *younger* than the grower, youngest first; (2) queued
    // mid-prefill reservations; (3) the in-flight chunk; (4) the grower
    // itself, only when members older than it hold the pages. The oldest
    // decode member is thus never evicted — victims are always younger
    // than whoever demands the pages — so it always reaches completion and
    // frees its pages, and by induction every request eventually does.
    // (Evicting victims *older* than the grower would livelock: two
    // requests whose reservations overlap can ping-pong evictions forever,
    // neither ever finishing.)
    bool EvictOneFor(int grower)
    {
        long grower_pos = -1;  // -1: no grower, every member evictable
        if (grower >= 0) {
            grower_pos = std::find(decode_pool_.begin(), decode_pool_.end(),
                                   grower) -
                         decode_pool_.begin();
        }
        // Prefer dropping private suffix pages: within each tier, a victim
        // whose eviction would take the shared prefix down with it (the
        // last referencer) is passed over on the first sweep and picked
        // only when that tier has nobody else — the prefix drops only when
        // its last referencing sequence is the eviction choice. The tier
        // *order* (younger-than-grower decode members, then queued
        // reservations, then the in-flight chunk) is untouched; that order
        // is what makes eviction terminate.
        const int passes = ledger_.prefix_pages() > 0 ? 2 : 1;
        for (int pass = 0; pass < passes; ++pass) {
            for (size_t j = decode_pool_.size();
                 j-- > 0 && static_cast<long>(j) > grower_pos;) {
                const int victim = decode_pool_[j];
                if (pass == 0 && ledger_.DropsPrefix(victim)) continue;
                decode_pool_.erase(decode_pool_.begin() +
                                   static_cast<long>(j));
                prefill_queue_.push_back(Evict(victim));
                return true;
            }
        }
        for (int pass = 0; pass < passes; ++pass) {
            for (size_t j = prefill_queue_.size(); j-- > 0;) {
                PendingPrefill& pending = prefill_queue_[j];
                // Queued entries holding a reservation (mid-prefill, or a
                // faulted chunk 0 awaiting retry) are evictable; entries
                // that never dispatched hold nothing.
                if (ledger_.held(pending.id) == 0) continue;
                if (pass == 0 && ledger_.DropsPrefix(pending.id)) continue;
                pending = Evict(pending.id);
                return true;
            }
        }
        if (npu_busy_ && npu_job_.id != grower) {
            CancelInFlight();
            prefill_queue_.push_back(Evict(npu_job_.id));
            return true;
        }
        return false;
    }

    // Memory pressure: the rest of the device claims pages back and the
    // live budget drops mid-run. Defense, in order: shed every admitted
    // request whose *whole* demand no longer fits (it could never complete
    // and would thrash the smaller pool forever), then evict youngest-
    // first through the termination-safe order until usage fits.
    void Shrink()
    {
        shrink_pending_ = false;
        ledger_.Shrink(std::max<int64_t>(
            1, static_cast<int64_t>(
                   static_cast<double>(options_.kv_pool_pages) *
                   fopts_.pool_shrink_to)));
        const int64_t budget = ledger_.live_budget();
        FaultEvent("fault.pool_shrink", -1, now_, now_, [budget] {
            return StrFormat("\"live_pages\": %lld",
                             static_cast<long long>(budget));
        });
        ShedQueuedIf(
            [this, budget](const PendingPrefill& pending) {
                return WholeDemand(pending.id) > budget;
            },
            "pool_shrink");
        if (npu_busy_ && WholeDemand(npu_job_.id) > budget) {
            CancelInFlight();
            Shed(npu_job_.id, "pool_shrink");
        }
        for (size_t j = decode_pool_.size(); j-- > 0;) {
            const int id = decode_pool_[j];
            if (WholeDemand(id) > budget) {
                decode_pool_.erase(decode_pool_.begin() +
                                   static_cast<long>(j));
                Shed(id, "pool_shrink");
            }
        }
        while (ledger_.free() < 0) LLMNPU_CHECK(EvictOneFor(-1));
        // The degraded-mode invariant starts *after* the defense settles:
        // from here on, usage never exceeds the live budget.
        ledger_.SettleShrink();
    }

    ServingCostModel& costs_;
    const ServingOptions& options_;
    const FaultOptions& fopts_;

    // Control plane: the queue order (FCFS when unset) and the optional
    // placement predictor (null: follow the engine profiles).
    const QueuePolicy queue_policy_;
    const PredictedPlacement* const predictor_;

    // Fault plane. A rate-zero plane draws nothing, so every path
    // degenerates bitwise to the fault-free simulator.
    const FaultPlane fault_plane_;
    const bool inject_on_;
    ThermalModel thermal_;
    double throttled_ms_ = 0.0;
    double peak_temp_c_;
    bool shrink_pending_;

    ServingResult result_;
    KvLedger ledger_;
    std::vector<RequestState> state_;

    // Arrivals. Open loop: the whole Poisson trace up front. Closed loop:
    // a sampler plus the scheduled client wake-ups.
    RequestSampler sampler_;
    std::vector<ArrivalEvent> open_arrivals_;
    size_t next_open_ = 0;
    std::vector<double> client_wakeups_;  // closed loop, unsorted
    int issued_ = 0;

    // Machine state.
    double now_ = 0.0;
    std::vector<PendingPrefill> prefill_queue_;
    // StartChunkIfIdle's eligible queue entries and their prefill_queue_
    // indices, kept across calls to reuse their storage.
    std::vector<QueueEntry> chunk_entries_;
    std::vector<size_t> chunk_eligible_;
    bool npu_busy_ = false;
    double npu_end_ = 0.0;
    PendingPrefill npu_job_;
    double npu_start_ = 0.0;
    // Fate of the in-flight chunk attempt, drawn at dispatch.
    FaultPlane::ChunkFate npu_fate_ = FaultPlane::ChunkFate::kOk;

    std::vector<int> decode_pool_;  // prefilled requests, admission order
    std::vector<int> step_members_;
    std::vector<DecodePlacement> step_placements_;  // parallel
    bool step_active_ = false;
    double step_remaining_work_ = 0.0;  // unscaled service ms still owed
    double step_last_update_ = 0.0;
    double step_start_ = 0.0;
    int step_counter_ = 0;
    // NPU dispatch attempts so far (chunk dispatches + NPU-placed decode
    // dispatches), denominator of the live fault-rate policy signal.
    int64_t npu_attempts_ = 0;
    // The in-flight chunk's interference factor on each side of the
    // active step.
    double chunk_float_factor_ = 0.0;
    double chunk_npu_factor_ = 0.0;
    bool step_on_npu_ = false;  // any member of the active step NPU-placed
};

}  // namespace

void
ServingOptions::Validate() const
{
    LLMNPU_FATAL_IF(num_requests <= 0, "serving num_requests must be > 0");
    LLMNPU_FATAL_IF(max_decode_batch <= 0,
                    "serving max_decode_batch must be > 0");
    LLMNPU_FATAL_IF(kv_pool_pages < 0,
                    "serving kv_pool_pages must be >= 0 (0 = unbounded)");
    LLMNPU_FATAL_IF(!closed_loop && rate_rps <= 0.0,
                    "serving rate_rps must be > 0 in open-loop mode");
    LLMNPU_FATAL_IF(closed_loop && num_clients <= 0,
                    "serving num_clients must be > 0 in closed-loop mode");
    LLMNPU_FATAL_IF(closed_loop && think_time_ms < 0.0,
                    "serving think_time_ms must be >= 0");
    LLMNPU_FATAL_IF(predicted_slo_admission && slo_factor <= 0.0,
                    "serving predicted_slo_admission needs slo_factor > 0 "
                    "(no deadlines to predict against otherwise)");
    LLMNPU_FATAL_IF(shed_expired_queued && slo_factor <= 0.0,
                    "serving shed_expired_queued needs slo_factor > 0 "
                    "(no deadlines to expire otherwise)");
    LLMNPU_FATAL_IF(shared_prefix.prefix_len < 0,
                    "serving shared_prefix.prefix_len must be >= 0");
    LLMNPU_FATAL_IF(shared_prefix.prefix_len % kKvPageSize != 0,
                    "serving shared_prefix.prefix_len must be page-aligned "
                    "(whole shared pages are what admission counts once)");
    LLMNPU_FATAL_IF(shared_prefix.share_fraction < 0.0 ||
                        shared_prefix.share_fraction > 1.0,
                    "serving shared_prefix.share_fraction must be in [0, 1]");
    LLMNPU_FATAL_IF(faults.pool_shrink_at_ms >= 0.0 && kv_pool_pages == 0,
                    "serving faults.pool_shrink_at_ms needs kv_pool_pages > 0");
    LLMNPU_FATAL_IF(faults.brownout_shedding && !faults.thermal.enabled,
                    "serving faults.brownout_shedding needs thermal.enabled");
    LLMNPU_FATAL_IF(faults.brownout_shedding && slo_factor <= 0.0,
                    "serving faults.brownout_shedding needs slo_factor > 0 "
                    "(no deadlines to shed against otherwise)");
    faults.Validate();
}

ServingReport
ServingResult::Report() const
{
    ServingReport report = BuildReport(records, makespan_ms, npu_busy_ms,
                                       decode_busy_ms, preemptions);
    report.kv_pool_pages = kv_pool_pages;
    report.kv_pages_peak = kv_pages_peak;
    report.kv_pages_mean = kv_pages_mean;
    report.npu_throttled_frac = npu_throttled_frac;
    report.kv_pool_pages_live = kv_pool_pages_live;
    report.kv_pages_peak_post_shrink = kv_pages_peak_post_shrink;
    return report;
}

ServingSimulator::ServingSimulator(ServingCostModel& costs,
                                   std::vector<DatasetProfile> mix,
                                   ServingOptions options)
    : costs_(costs), mix_(std::move(mix)), options_(options)
{
    LLMNPU_CHECK(!mix_.empty());
    options_.Validate();
}

ServingResult
ServingSimulator::Run()
{
    ServingRun run(costs_, mix_, options_);
    const int64_t event_cap = kMaxEventsPerRequest * options_.num_requests;
    int64_t events = 0;
    while (run.HandleNextEvent()) {
        LLMNPU_FATAL_IF(++events > event_cap, run.Runaway(events));
        run.Sweep();
        run.StartChunkIfIdle();
        run.StartStepIfIdle();
    }
    return run.Finish();
}

}  // namespace llmnpu
