/**
 * @file
 * A 64-bit fingerprint of a whole serving run, for "did behaviour change"
 * oracles that are stricter than any band check.
 *
 * FNV-1a over the bytes of every RequestRecord field, every ReplayStep
 * (kind, ids, chunk, placements), every executed trace interval, and every
 * scalar of the ServingResult. Fields are hashed one by one (never whole
 * structs), so padding bytes never leak in.
 */
#ifndef LLMNPU_TESTS_SUPPORT_SCHEDULE_HASH_H
#define LLMNPU_TESTS_SUPPORT_SCHEDULE_HASH_H

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "src/serving/simulator.h"

namespace llmnpu {

/** Incremental FNV-1a (64-bit). */
class Fnv1a
{
  public:
    template <typename T>
    void
    Add(const T& value)
    {
        static_assert(std::is_arithmetic<T>::value || std::is_enum<T>::value,
                      "hash scalars field by field");
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        for (unsigned char b : bytes) {
            hash_ = (hash_ ^ b) * 0x100000001b3ULL;
        }
    }

    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Fingerprint of records, replay steps, trace and result scalars. */
inline uint64_t
ScheduleHash(const ServingResult& result)
{
    Fnv1a h;
    h.Add(result.records.size());
    for (const RequestRecord& r : result.records) {
        h.Add(r.request.id);
        h.Add(r.request.arrival_ms);
        h.Add(r.request.prompt_len);
        h.Add(r.request.output_len);
        h.Add(r.request.profile_index);
        h.Add(r.request.deadline_ms);
        h.Add(r.request.shared_prefix_len);
        h.Add(r.first_dispatch_ms);
        h.Add(r.prefill_done_ms);
        h.Add(r.first_token_ms);
        h.Add(r.finish_ms);
        h.Add(r.tokens_out);
        h.Add(r.preemptions);
        h.Add(r.rejected);
        h.Add(r.evictions);
        h.Add(r.shed);
        h.Add(r.shed_ms);
        h.Add(r.faults);
        h.Add(r.retries);
        h.Add(r.failed_over);
        h.Add(r.failover_ms);
    }
    h.Add(result.replay_steps.size());
    for (const ReplayStep& step : result.replay_steps) {
        h.Add(step.is_prefill);
        h.Add(step.request_ids.size());
        for (int id : step.request_ids) h.Add(id);
        h.Add(step.chunk_index);
        h.Add(step.num_chunks);
        h.Add(step.placements.size());
        for (DecodePlacement p : step.placements) h.Add(p);
    }
    h.Add(result.trace.records.size());
    for (const TaskRecord& t : result.trace.records) {
        h.Add(t.start_ms);
        h.Add(t.end_ms);
    }
    h.Add(result.makespan_ms);
    h.Add(result.npu_busy_ms);
    h.Add(result.decode_busy_ms);
    h.Add(result.preemptions);
    h.Add(result.rejected);
    h.Add(result.evictions);
    h.Add(result.kv_pool_pages);
    h.Add(result.kv_pages_peak);
    h.Add(result.kv_pages_mean);
    h.Add(result.shed);
    h.Add(result.faults);
    h.Add(result.retries);
    h.Add(result.failovers);
    h.Add(result.npu_faulted_ms);
    h.Add(result.npu_throttled_frac);
    h.Add(result.peak_temp_c);
    h.Add(result.kv_pool_pages_live);
    h.Add(result.kv_pages_peak_post_shrink);
    h.Add(result.shared_prefix_pages);
    h.Add(result.shared_requests);
    h.Add(result.shared_prefix_materializations);
    h.Add(result.shared_prefix_drops);
    h.Add(result.shared_prefix_refs_peak);
    return h.value();
}

}  // namespace llmnpu

#endif  // LLMNPU_TESTS_SUPPORT_SCHEDULE_HASH_H
