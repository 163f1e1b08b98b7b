/**
 * @file
 * Shared page pool for KV-cache storage.
 *
 * Dense per-sequence KV storage makes memory the invisible resource: every
 * sequence reserves its worst case and the serving layer can only count
 * bytes after the fact. The pool makes memory page-granular and explicit —
 * fixed-size pages (a run of token positions, all layers, K and V) handed
 * out from one free list, returned on sequence retirement, and shareable
 * across sequences for common prompt prefixes (refcounted). This is the
 * allocation substrate under BatchedKvCache; the serving simulator models
 * the same page arithmetic so admission control and preemption-by-eviction
 * rehearse against an honest memory budget.
 *
 * Layout: one contiguous buffer per physical page holding
 * [layer][k|v][page_size x kv_dim] so a page is the unit of both
 * allocation and locality. Page ids are stable for the pool's lifetime;
 * released pages are recycled LIFO (the hottest page comes back first).
 */
#ifndef LLMNPU_MODEL_KV_PAGE_POOL_H
#define LLMNPU_MODEL_KV_PAGE_POOL_H

#include <cstdint>
#include <limits>
#include <vector>

#include "src/util/check.h"

namespace llmnpu {

/** free_pages() of an unbounded pool: headroom is limited by host memory,
 *  not the pool, so consumers comparing demand against it always fit. */
constexpr int64_t kUnboundedFreePages = std::numeric_limits<int64_t>::max();

/** Token positions per KV page, in the numeric pool and in the serving
 *  simulator's page ledger. 16 keeps page tables short for mobile context
 *  lengths while wasting at most 15 positions per sequence. */
constexpr int64_t kKvPageSize = 16;

/** Geometry and budget of a paged KV allocation. */
struct PagedKvOptions {
    /** Token positions per page (tests shrink it for page-edge cases). */
    int64_t page_size = kKvPageSize;
    /** Total pages the pool may hand out; 0 = grow on demand (no budget,
     *  the legacy dense behavior's memory envelope). */
    int64_t max_pages = 0;
};

/** Fixed-geometry pool of refcounted KV pages. */
class KvPagePool
{
  public:
    KvPagePool(int num_layers, int64_t kv_dim, PagedKvOptions options);

    /**
     * Hands out a page (refcount 1), recycling released pages LIFO before
     * allocating new storage. @return page id, or -1 when a bounded pool
     * (max_pages > 0) is exhausted — callers turn that into admission
     * rejection or eviction, never into silent growth.
     */
    int64_t AllocPage();

    /**
     * Allocates a fresh page and copies `src`'s whole buffer (every layer,
     * K and V) into it — the copy-on-write step of a shared-page write.
     * `src` keeps its references; the clone comes back with refcount 1.
     * @return the clone's page id, or -1 when a bounded pool is exhausted.
     */
    int64_t ClonePage(int64_t src);

    /** Adds a reference to a live page (prefix sharing). */
    void AddRef(int64_t page);

    /** Drops one reference; the page returns to the free list at zero. */
    void Release(int64_t page);

    /** References currently held on `page` (0 = free). */
    int64_t RefCount(int64_t page) const;

    /** Mutable K block of one page/layer: [page_size x kv_dim] row-major. */
    float* PageK(int64_t page, int layer);
    const float* PageK(int64_t page, int layer) const;

    /** Mutable V block of one page/layer: [page_size x kv_dim] row-major. */
    float* PageV(int64_t page, int layer);
    const float* PageV(int64_t page, int layer) const;

    int num_layers() const { return num_layers_; }
    int64_t kv_dim() const { return kv_dim_; }
    int64_t page_size() const { return options_.page_size; }
    int64_t max_pages() const { return options_.max_pages; }

    /** Pages needed to hold `positions` token positions. */
    int64_t PagesFor(int64_t positions) const;

    /** Pages currently referenced by at least one sequence. */
    int64_t used_pages() const { return used_pages_; }

    /** Pages available right now: the free list plus (for a bounded pool)
     *  the unallocated remainder of the budget. An unbounded pool grows on
     *  demand, so it reports kUnboundedFreePages — reporting only the free
     *  list would understate headroom to CanAppend/PolicySignals consumers
     *  and spuriously backpressure an unlimited pool. */
    int64_t free_pages() const;

    /** Copy-on-write clones performed over the pool's lifetime. */
    int64_t cow_clones() const { return cow_clones_; }

    /** Physical pages ever allocated (the high-water mark). */
    int64_t allocated_pages() const
    {
        return static_cast<int64_t>(pages_.size());
    }

    /** Bytes of one page across all layers, K and V (f32). */
    int64_t PageBytes() const;

    /** Bytes of pages currently in use — the honest footprint the serving
     *  layer accounts against, page-granular by construction. */
    int64_t SizeBytes() const { return used_pages_ * PageBytes(); }

    /** Bytes of all pages ever allocated (capacity high-water mark). */
    int64_t CapacityBytes() const { return allocated_pages() * PageBytes(); }

  private:
    /** Floats in one page buffer: num_layers * 2 * page_size * kv_dim. */
    int64_t PageFloats() const;

    int num_layers_;
    int64_t kv_dim_;
    PagedKvOptions options_;
    std::vector<std::vector<float>> pages_;
    std::vector<int64_t> refcount_;
    std::vector<int64_t> free_list_;  ///< LIFO recycle order
    int64_t used_pages_ = 0;
    int64_t cow_clones_ = 0;
};

}  // namespace llmnpu

#endif  // LLMNPU_MODEL_KV_PAGE_POOL_H
