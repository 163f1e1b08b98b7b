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
 * allocation substrate under BatchedKvCache. The pool has no budget; the
 * serving simulator's KvLedger charges pages by the same KvPagesFor, so
 * admission control and preemption-by-eviction rehearse against an honest
 * memory budget.
 *
 * Layout: one contiguous buffer per physical page holding
 * [layer][k|v][kKvPageSize x kv_dim] so a page is the unit of both
 * allocation and locality. Page ids are stable for the pool's lifetime;
 * released pages are recycled LIFO (the hottest page comes back first).
 */
#ifndef LLMNPU_MODEL_KV_PAGE_POOL_H
#define LLMNPU_MODEL_KV_PAGE_POOL_H

#include <cstdint>
#include <vector>

#include "src/util/check.h"

namespace llmnpu {

/** Token positions per KV page, in the numeric pool and in the serving
 *  simulator's page ledger. 16 keeps page tables short for mobile context
 *  lengths while wasting at most 15 positions per sequence. */
constexpr int64_t kKvPageSize = 16;

/** Pages needed to hold `positions` token positions. */
inline int64_t
KvPagesFor(int64_t positions)
{
    return (positions + kKvPageSize - 1) / kKvPageSize;
}

/** Pool of refcounted kKvPageSize-position KV pages, grown on demand. */
class KvPagePool
{
  public:
    KvPagePool(int num_layers, int64_t kv_dim);

    /**
     * Hands out a page (refcount 1), recycling released pages LIFO before
     * allocating new storage. @return the page id.
     */
    int64_t AllocPage();

    /**
     * Allocates a fresh page and copies `src`'s whole buffer (every layer,
     * K and V) into it — the copy-on-write step of a shared-page write.
     * `src` keeps its references; the clone comes back with refcount 1.
     * @return the clone's page id.
     */
    int64_t ClonePage(int64_t src);

    /** Adds a reference to a live page (prefix sharing). */
    void AddRef(int64_t page);

    /** Drops one reference; the page returns to the free list at zero. */
    void Release(int64_t page);

    /** References currently held on `page` (0 = free). */
    int64_t RefCount(int64_t page) const;

    /** Mutable K block of one page/layer: [kKvPageSize x kv_dim]
     *  row-major. */
    float* PageK(int64_t page, int layer);
    const float* PageK(int64_t page, int layer) const;

    /** Mutable V block of one page/layer: [kKvPageSize x kv_dim]
     *  row-major. */
    float* PageV(int64_t page, int layer);
    const float* PageV(int64_t page, int layer) const;

    /** Pages currently referenced by at least one sequence. */
    int64_t used_pages() const { return used_pages_; }

    /** Copy-on-write clones performed over the pool's lifetime. */
    int64_t cow_clones() const { return cow_clones_; }

    /** Physical pages ever allocated (the high-water mark). */
    int64_t allocated_pages() const
    {
        return static_cast<int64_t>(pages_.size());
    }

    /** Bytes of one page across all layers, K and V (f32). */
    int64_t PageBytes() const;

    /** Bytes of pages currently in use, page-granular by construction.
     *  The serving simulator accounts KV memory against its own KvLedger
     *  (src/serving/kv_ledger.h), not against this footprint. */
    int64_t SizeBytes() const { return used_pages_ * PageBytes(); }

  private:
    /** Floats in one page buffer: num_layers * 2 * kKvPageSize * kv_dim. */
    int64_t PageFloats() const;

    int num_layers_;
    int64_t kv_dim_;
    std::vector<std::vector<float>> pages_;
    std::vector<int64_t> refcount_;
    std::vector<int64_t> free_list_;  ///< LIFO recycle order
    int64_t used_pages_ = 0;
    int64_t cow_clones_ = 0;
};

}  // namespace llmnpu

#endif  // LLMNPU_MODEL_KV_PAGE_POOL_H
