#include "src/model/batched_kv_cache.h"

#include <algorithm>
#include <cstring>

namespace llmnpu {

BatchedKvCache::BatchedKvCache(int num_layers, int64_t kv_dim,
                               int num_sequences, PagedKvOptions options)
    : num_layers_(num_layers),
      kv_dim_(kv_dim),
      pool_(num_layers, kv_dim, options)
{
    LLMNPU_CHECK_GE(num_sequences, 0);
    seqs_.reserve(static_cast<size_t>(num_sequences));
    for (int i = 0; i < num_sequences; ++i) AddSequence();
}

const BatchedKvCache::SeqState&
BatchedKvCache::CheckedSeq(int seq) const
{
    LLMNPU_CHECK_GE(seq, 0);
    LLMNPU_CHECK_LT(seq, num_sequences());
    const SeqState& state = seqs_[static_cast<size_t>(seq)];
    LLMNPU_CHECK(!state.retired);
    return state;
}

BatchedKvCache::SeqState&
BatchedKvCache::CheckedSeq(int seq)
{
    return const_cast<SeqState&>(
        static_cast<const BatchedKvCache*>(this)->CheckedSeq(seq));
}

int
BatchedKvCache::AddSequence()
{
    SeqState state;
    state.layer_len.assign(static_cast<size_t>(num_layers_), 0);
    seqs_.push_back(std::move(state));
    ++live_;
    return static_cast<int>(seqs_.size()) - 1;
}

int
BatchedKvCache::AddSequenceSharingPrefix(int src, int64_t positions)
{
    {
        const SeqState& source = CheckedSeq(src);
        LLMNPU_CHECK_GE(positions, 0);
        for (int64_t len : source.layer_len) LLMNPU_CHECK_LE(positions, len);
    }
    // AddSequence() grows seqs_ and may reallocate it — re-acquire the
    // source after, never across, the push.
    const int seq = AddSequence();
    const SeqState& source = seqs_[static_cast<size_t>(src)];
    SeqState& state = seqs_[static_cast<size_t>(seq)];
    // A non-aligned fork shares the partial frontier page too; the first
    // write past `positions` (by either sibling) copy-on-writes it.
    const int64_t shared_pages = pool_.PagesFor(positions);
    state.pages.assign(source.pages.begin(),
                       source.pages.begin() + shared_pages);
    for (int64_t page : state.pages) pool_.AddRef(page);
    state.layer_len.assign(static_cast<size_t>(num_layers_), positions);
    return seq;
}

void
BatchedKvCache::RetireSequence(int seq)
{
    SeqState& state = CheckedSeq(seq);
    for (int64_t page : state.pages) pool_.Release(page);
    state.pages.clear();
    state.pages.shrink_to_fit();
    std::fill(state.layer_len.begin(), state.layer_len.end(), 0);
    state.retired = true;
    --live_;
}

bool
BatchedKvCache::IsRetired(int seq) const
{
    LLMNPU_CHECK_GE(seq, 0);
    LLMNPU_CHECK_LT(seq, num_sequences());
    return seqs_[static_cast<size_t>(seq)].retired;
}

bool
BatchedKvCache::CanAppend(int seq, int64_t positions) const
{
    const SeqState& state = CheckedSeq(seq);
    LLMNPU_CHECK_GE(positions, 0);
    const int64_t free = pool_.free_pages();
    if (free == kUnboundedFreePages) return true;
    const int64_t mapped = static_cast<int64_t>(state.pages.size());
    const int64_t len = state.layer_len[0];
    const int64_t needed = pool_.PagesFor(len + positions);
    // Mapped pages in the write range that a sibling still references each
    // cost one extra page: the append copy-on-writes them, and the sibling
    // keeps the original alive.
    int64_t cow = 0;
    for (int64_t p = len / page_size(); p < std::min(mapped, needed); ++p) {
        if (pool_.RefCount(state.pages[static_cast<size_t>(p)]) > 1) ++cow;
    }
    return needed - mapped + cow <= free;
}

void
BatchedKvCache::AppendRows(int seq, int layer, const Tensor& k,
                           const Tensor& v, int64_t row_begin,
                           int64_t row_count)
{
    SeqState& state = CheckedSeq(seq);
    LLMNPU_CHECK_GE(layer, 0);
    LLMNPU_CHECK_LT(layer, num_layers_);
    LLMNPU_CHECK_EQ(k.Rank(), 2);
    LLMNPU_CHECK_EQ(k.Cols(), kv_dim_);
    LLMNPU_CHECK(k.shape() == v.shape());
    LLMNPU_CHECK_GE(row_begin, 0);
    LLMNPU_CHECK_GT(row_count, 0);
    LLMNPU_CHECK_LE(row_begin + row_count, k.Rows());

    const int64_t ps = page_size();
    const int64_t len = state.layer_len[static_cast<size_t>(layer)];

    // Map any pages the new positions spill into. Layers append in
    // lockstep with layer 0 first, so this allocates on the layer-0 append
    // and is a no-op for the later layers of the same step.
    const int64_t needed = pool_.PagesFor(len + row_count);
    while (static_cast<int64_t>(state.pages.size()) < needed) {
        const int64_t page = pool_.AllocPage();
        LLMNPU_CHECK_GE(page, 0);  // exhausted: callers gate on CanAppend
        state.pages.push_back(page);
    }

    // Copy in page-contiguous runs straight from the stacked tensor.
    const float* pk = k.Data<float>() + row_begin * kv_dim_;
    const float* pv = v.Data<float>() + row_begin * kv_dim_;
    int64_t copied = 0;
    while (copied < row_count) {
        const int64_t pos = len + copied;
        const int64_t page_idx = pos / ps;
        const int64_t slot = pos % ps;
        const int64_t run = std::min(row_count - copied, ps - slot);
        int64_t page = state.pages[static_cast<size_t>(page_idx)];
        // Copy-on-write: a page a sibling still references must not see
        // this sequence's divergence. Clone it (whole buffer, all layers —
        // later layers of this step and the shared rows both live there),
        // repoint only this page table, release one reference. Only the
        // append frontier of a fork can be shared, so at most one clone
        // per layer-0 append; later layers of the step land on the copy.
        if (pool_.RefCount(page) > 1) {
            const int64_t clone = pool_.ClonePage(page);
            LLMNPU_CHECK_GE(clone, 0);  // callers gate on CanAppend
            pool_.Release(page);
            state.pages[static_cast<size_t>(page_idx)] = clone;
            page = clone;
        }
        std::memcpy(pool_.PageK(page, layer) + slot * kv_dim_,
                    pk + copied * kv_dim_,
                    static_cast<size_t>(run * kv_dim_) * sizeof(float));
        std::memcpy(pool_.PageV(page, layer) + slot * kv_dim_,
                    pv + copied * kv_dim_,
                    static_cast<size_t>(run * kv_dim_) * sizeof(float));
        copied += run;
    }
    state.layer_len[static_cast<size_t>(layer)] = len + row_count;

    // Layer-lockstep invariant: no layer may lead the shortest layer by
    // more than the in-flight chunk, and a later layer never leads layer 0.
    int64_t min_len = state.layer_len[0], max_len = min_len;
    for (int l = 1; l < num_layers_; ++l) {
        const int64_t llen = state.layer_len[static_cast<size_t>(l)];
        min_len = std::min(min_len, llen);
        max_len = std::max(max_len, llen);
    }
    LLMNPU_CHECK_LE(max_len - min_len, row_count);
    if (layer > 0) {
        LLMNPU_CHECK_LE(state.layer_len[static_cast<size_t>(layer)],
                        state.layer_len[0]);
    }
}

void
BatchedKvCache::Append(int seq, int layer, const Tensor& k, const Tensor& v)
{
    AppendRows(seq, layer, k, v, 0, k.Rows());
}

Tensor
BatchedKvCache::Keys(int seq, int layer) const
{
    const SeqState& state = CheckedSeq(seq);
    LLMNPU_CHECK_GE(layer, 0);
    LLMNPU_CHECK_LT(layer, num_layers_);
    const int64_t len = state.layer_len[static_cast<size_t>(layer)];
    const int64_t ps = page_size();
    Tensor out({len, kv_dim_}, DType::kF32);
    float* p = out.Data<float>();
    for (int64_t pos = 0; pos < len;) {
        const int64_t run = std::min(len - pos, ps - pos % ps);
        const int64_t page = state.pages[static_cast<size_t>(pos / ps)];
        std::memcpy(p + pos * kv_dim_,
                    pool_.PageK(page, layer) + (pos % ps) * kv_dim_,
                    static_cast<size_t>(run * kv_dim_) * sizeof(float));
        pos += run;
    }
    return out;
}

Tensor
BatchedKvCache::Values(int seq, int layer) const
{
    const SeqState& state = CheckedSeq(seq);
    LLMNPU_CHECK_GE(layer, 0);
    LLMNPU_CHECK_LT(layer, num_layers_);
    const int64_t len = state.layer_len[static_cast<size_t>(layer)];
    const int64_t ps = page_size();
    Tensor out({len, kv_dim_}, DType::kF32);
    float* p = out.Data<float>();
    for (int64_t pos = 0; pos < len;) {
        const int64_t run = std::min(len - pos, ps - pos % ps);
        const int64_t page = state.pages[static_cast<size_t>(pos / ps)];
        std::memcpy(p + pos * kv_dim_,
                    pool_.PageV(page, layer) + (pos % ps) * kv_dim_,
                    static_cast<size_t>(run * kv_dim_) * sizeof(float));
        pos += run;
    }
    return out;
}

int64_t
BatchedKvCache::SeqLen(int seq) const
{
    return SeqLen(seq, 0);
}

int64_t
BatchedKvCache::SeqLen(int seq, int layer) const
{
    LLMNPU_CHECK_GE(layer, 0);
    LLMNPU_CHECK_LT(layer, num_layers_);
    return CheckedSeq(seq).layer_len[static_cast<size_t>(layer)];
}

const std::vector<int64_t>&
BatchedKvCache::PageTable(int seq) const
{
    return CheckedSeq(seq).pages;
}

}  // namespace llmnpu
