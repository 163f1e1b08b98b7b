/**
 * @file
 * Paged multi-sequence KV cache, the model's only KV cache.
 *
 * The cache is what makes chunk-wise prefill exact: chunk i's attention
 * reads the keys/values of chunks 0..i (paper §3.2, Figure 7). The forward
 * path (Transformer::ForwardBatch; Forward is its one-slot case) runs B
 * sequences of possibly different lengths through one set of stacked
 * matmuls, with attention reading each sequence's own K/V history. Storage is
 * page-granular: every sequence owns a page table into one shared
 * KvPagePool instead of a private dense buffer, so
 *
 *  - retiring a sequence returns its pages to the pool immediately (the
 *    free list feeds the next admission),
 *  - a bounded pool turns KV memory into the admission-control resource
 *    the serving simulator models (CanAppend is the backpressure signal),
 *  - sequences can share the pages of a common prompt prefix (refcounted),
 *    with copy-on-write isolation: appending into a page another sequence
 *    still references clones the page, rewrites only the appender's page
 *    table entry, and releases one reference — so forks may start at any
 *    position (the partial frontier page is shared until the first
 *    divergent write) and diverge bitwise-identically to sequences that
 *    never shared, and
 *  - the fused attention kernel (src/model/paged_attention.h) reads K/V
 *    straight out of the pages, eliminating the per-sequence dense
 *    materialization and segment copies of the old decode hot path.
 *
 * Page tables are shared across layers: page id p of a sequence holds that
 * sequence's positions [i*page_size, (i+1)*page_size) for *every* layer
 * (the pool lays pages out as [layer][k|v][page_size x kv_dim]). Layers
 * append in lockstep within a forward step, layer 0 first, so page
 * allocation happens on the layer-0 append and later layers land in
 * already-mapped pages.
 *
 * All page/position arithmetic is int64 — a thousand-sequence pool at
 * mobile context lengths overflows 32-bit element counts long before it
 * overflows memory.
 */
#ifndef LLMNPU_MODEL_BATCHED_KV_CACHE_H
#define LLMNPU_MODEL_BATCHED_KV_CACHE_H

#include <cstdint>
#include <vector>

#include "src/model/kv_page_pool.h"
#include "src/tensor/tensor.h"

namespace llmnpu {

/** Growable set of paged per-sequence KV views over one shared pool. */
class BatchedKvCache
{
  public:
    /**
     * @param num_layers number of transformer blocks.
     * @param kv_dim per-position K (and V) width = num_kv_heads * head_dim.
     * @param num_sequences initial sequence slots (may be grown later).
     * @param options page geometry and pool budget.
     */
    BatchedKvCache(int num_layers, int64_t kv_dim, int num_sequences = 0,
                   PagedKvOptions options = {});

    /** Adds an empty sequence slot; @return its index. */
    int AddSequence();

    /**
     * Adds a sequence sharing the first `positions` positions of `src`'s
     * pages (a common system-prompt run). `positions` may fall anywhere
     * <= SeqLen(src): whole pages below it are shared outright, and a
     * partial frontier page is shared too — the first write past the fork
     * point (by either side) copy-on-writes it, so divergence never leaks
     * between siblings. The caller asserts the shared positions hold
     * identical tokens; the cache only shares the storage.
     * @return the new slot's index.
     */
    int AddSequenceSharingPrefix(int src, int64_t positions);

    /** Releases a sequence's pages back to the pool and marks the slot
     *  retired. Retired slots reject all further access; the slot index is
     *  never reused (page *storage* is what gets recycled). */
    void RetireSequence(int seq);

    bool IsRetired(int seq) const;

    /** True when the pool can absorb `positions` more positions appended
     *  to `seq` — growth pages plus one copy-on-write clone for each
     *  still-shared page the write range touches (the admission / eviction
     *  backpressure signal). Always true for an unbounded pool. */
    bool CanAppend(int seq, int64_t positions) const;

    /**
     * Appends rows [row_begin, row_begin + row_count) of `k`/`v`
     * ([* x kv_dim]) for one layer of one sequence, straight from a
     * stacked batch tensor into the pages — no segment copy. A target page
     * still referenced by a sibling (shared prefix frontier) is cloned
     * first: only this sequence's page table moves to the copy, and one
     * reference on the original is released. Enforces the layer-lockstep
     * invariant: layer 0 of a step appends first, no layer may lead the
     * shortest layer by more than the in-flight chunk, and a layer > 0
     * never leads layer 0. Panics if a bounded pool runs out of pages —
     * callers gate on CanAppend.
     */
    void AppendRows(int seq, int layer, const Tensor& k, const Tensor& v,
                    int64_t row_begin, int64_t row_count);

    /** AppendRows over all rows of `k`/`v`. */
    void Append(int seq, int layer, const Tensor& k, const Tensor& v);

    /** All cached keys of one layer of one sequence, materialized dense
     *  ([len x kv_dim]) — reference/test path; the fused kernel reads the
     *  pages directly instead. */
    Tensor Keys(int seq, int layer) const;
    Tensor Values(int seq, int layer) const;

    /** Positions cached for one slot (layer-0 length). */
    int64_t SeqLen(int seq) const;
    int64_t SeqLen(int seq, int layer) const;

    /** The slot's page table (page ids into the pool, position order). */
    const std::vector<int64_t>& PageTable(int seq) const;

    int num_sequences() const { return static_cast<int>(seqs_.size()); }
    /** Slots added and not yet retired. */
    int live_sequences() const { return live_; }
    int num_layers() const { return num_layers_; }
    int64_t kv_dim() const { return kv_dim_; }
    int64_t page_size() const { return pool_.page_size(); }

    KvPagePool& pool() { return pool_; }
    const KvPagePool& pool() const { return pool_; }

    /** Bytes of pool pages currently in use (page-granular, shared prefix
     *  pages counted once — the honest footprint). */
    int64_t SizeBytes() const { return pool_.SizeBytes(); }

  private:
    struct SeqState {
        std::vector<int64_t> pages;      ///< page table, position order
        std::vector<int64_t> layer_len;  ///< positions appended per layer
        bool retired = false;
    };

    const SeqState& CheckedSeq(int seq) const;
    SeqState& CheckedSeq(int seq);

    int num_layers_;
    int64_t kv_dim_;
    KvPagePool pool_;
    std::vector<SeqState> seqs_;
    int live_ = 0;
};

/** Old name of the one-slot cache Transformer::MakeCache() returns; kept
 *  only for benchmark/src/workloads.cc. */
using KvCache = BatchedKvCache;

}  // namespace llmnpu

#endif  // LLMNPU_MODEL_BATCHED_KV_CACHE_H
