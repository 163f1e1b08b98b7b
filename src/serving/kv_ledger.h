/**
 * @file
 * The serving simulator's KV page ledger. One rule decides every page
 * charge: a request holds its *private* suffix pages, and the page-aligned
 * shared system prefix is charged to the pool once while any referencer
 * holds it — materialized by the first referencer's reservation, dropped
 * with the last referencer's pages (the serving mirror of KvPagePool
 * refcounts). Admission, dispatch gating, decode growth and the shedding
 * sweeps all ask the ledger instead of re-deriving the rule.
 *
 * Usage (peak, post-shrink peak, time integral) is tracked for every run;
 * the budget gates only when bounded. One ledger belongs to one run.
 */
#ifndef LLMNPU_SERVING_KV_LEDGER_H
#define LLMNPU_SERVING_KV_LEDGER_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/model/kv_page_pool.h"
#include "src/serving/request.h"

namespace llmnpu {

class KvLedger
{
  public:
    /** Tracks request ids [0, num_requests) against `budget_pages` (0 =
     *  unbounded) in pages of kKvPageSize positions, charged by the numeric
     *  pool's KvPagesFor; `prefix_len` is the page-aligned shared-prefix
     *  length in positions (0 = none). */
    KvLedger(int num_requests, int64_t budget_pages, int64_t prefix_len);

    /** Whole once-counted demand of `request` through its last token. */
    int64_t Demand(const ServingRequest& request) const
    {
        return WholePrivatePages(request) +
               (request.shared_prefix_len > 0 ? prefix_pages_ : 0);
    }
    /** What admitting `request` costs right now: Demand(), less the
     *  prefix while a referencer already holds it. */
    int64_t AdmissionCharge(const ServingRequest& request) const
    {
        return WholePrivatePages(request) + PrefixCharge(request);
    }
    /** What `request`'s first reservation (its prompt) costs right now. */
    int64_t ReserveCharge(const ServingRequest& request) const
    {
        return KvPagesFor(request.PrivatePromptLen()) + PrefixCharge(request);
    }
    /** Private pages `request` still lacks after `tokens_out` tokens. */
    int64_t Shortfall(const ServingRequest& request, int tokens_out) const
    {
        return KvPagesFor(static_cast<int64_t>(request.PrivatePromptLen()) +
                          tokens_out) -
               held(request.id);
    }
    /** Whether releasing `id` would drop the shared prefix with it. */
    bool DropsPrefix(int id) const
    {
        return holds_prefix(id) && prefix_holders_ == 1;
    }

    /** Takes ReserveCharge(request): a prefix reference for a sharer,
     *  then the prompt's private pages. */
    void Reserve(const ServingRequest& request, double now_ms);
    void Grow(int id, int64_t pages, double now_ms)
    {
        used_ += pages;
        held_[static_cast<size_t>(id)] += pages;
        Note(now_ms);
    }
    /** Returns `id`'s pages and prefix reference; the prefix itself goes
     *  only with its last referencer. */
    void Release(int id, double now_ms);
    /** Lowers the live budget; the caller sheds and evicts until free()
     *  >= 0, then SettleShrink() starts the post-shrink peak. */
    void Shrink(int64_t budget_pages)
    {
        live_budget_ = std::min(live_budget_, budget_pages);
    }
    void SettleShrink()
    {
        shrink_settled_ = true;
        post_shrink_peak_ = used_;
    }
    void Accrue(double dt_ms)
    {
        integral_ += static_cast<double>(used_) * dt_ms;
    }

    bool bounded() const { return live_budget_ > 0; }
    int64_t live_budget() const { return live_budget_; }
    int64_t used() const { return used_; }
    /** Pages left under the live budget (meaningful when bounded). */
    int64_t free() const { return live_budget_ - used_; }
    int64_t held(int id) const { return held_[static_cast<size_t>(id)]; }
    bool holds_prefix(int id) const
    {
        return holds_prefix_[static_cast<size_t>(id)] != 0;
    }
    int64_t prefix_pages() const { return prefix_pages_; }
    int prefix_holders() const { return prefix_holders_; }
    int64_t peak() const { return peak_; }
    int64_t post_shrink_peak() const { return post_shrink_peak_; }
    double integral() const { return integral_; }  ///< pages x ms
    int materializations() const { return materializations_; }
    int drops() const { return drops_; }
    int refs_peak() const { return refs_peak_; }

  private:
    int64_t WholePrivatePages(const ServingRequest& request) const
    {
        return KvPagesFor(static_cast<int64_t>(request.PrivatePromptLen()) +
                          request.output_len);
    }
    /** The prefix pages a sharer's charge adds right now. */
    int64_t PrefixCharge(const ServingRequest& request) const
    {
        return request.shared_prefix_len > 0 && prefix_holders_ == 0
                   ? prefix_pages_
                   : 0;
    }
    /** A usage change: peaks, plus the sim.kv_used_pages trace counter. */
    void Note(double now_ms);

    const int64_t prefix_pages_;
    int64_t live_budget_;
    int64_t used_ = 0;
    std::vector<int64_t> held_;       ///< private pages, by request id
    std::vector<char> holds_prefix_;  ///< prefix reference, by request id
    int prefix_holders_ = 0;

    int64_t peak_ = 0;
    bool shrink_settled_ = false;
    int64_t post_shrink_peak_ = 0;
    double integral_ = 0.0;
    int materializations_ = 0;
    int drops_ = 0;
    int refs_peak_ = 0;
};

}  // namespace llmnpu

#endif  // LLMNPU_SERVING_KV_LEDGER_H
