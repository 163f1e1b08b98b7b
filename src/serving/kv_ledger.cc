#include "src/serving/kv_ledger.h"

#include <algorithm>
#include <utility>

#include "src/obs/trace.h"

namespace llmnpu {

KvLedger::KvLedger(int num_requests, int64_t budget_pages,
                   int64_t prefix_len)
    : prefix_pages_(KvPagesFor(prefix_len)),
      live_budget_(budget_pages),
      held_(static_cast<size_t>(num_requests), 0),
      holds_prefix_(static_cast<size_t>(num_requests), 0)
{}

void
KvLedger::Reserve(const ServingRequest& request, double now_ms)
{
    char& holds = holds_prefix_[static_cast<size_t>(request.id)];
    if (request.shared_prefix_len > 0 && !holds) {
        holds = 1;
        if (prefix_holders_++ == 0) {
            used_ += prefix_pages_;
            ++materializations_;
        }
        refs_peak_ = std::max(refs_peak_, prefix_holders_);
        Note(now_ms);
    }
    Grow(request.id, KvPagesFor(request.PrivatePromptLen()), now_ms);
}

void
KvLedger::Release(int id, double now_ms)
{
    int64_t& held = held_[static_cast<size_t>(id)];
    used_ -= held;
    held = 0;
    char& holds = holds_prefix_[static_cast<size_t>(id)];
    if (holds) {
        holds = 0;
        if (--prefix_holders_ == 0) {
            used_ -= prefix_pages_;
            ++drops_;
        }
    }
    Note(now_ms);
}

void
KvLedger::Note(double now_ms)
{
    peak_ = std::max(peak_, used_);
    if (shrink_settled_) {
        post_shrink_peak_ = std::max(post_shrink_peak_, used_);
    }
    if (obs::TraceEnabled()) {
        obs::SimEvent event;
        event.name = "sim.kv_used_pages";
        event.phase = obs::TracePhase::kCounter;
        event.t0_ms = now_ms;
        event.value = static_cast<double>(used_);
        obs::Tracer::Global().RecordSim(std::move(event));
    }
}

}  // namespace llmnpu
