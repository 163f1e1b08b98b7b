#include "src/model/paged_attention.h"

#include "src/obs/trace.h"
#include "src/tensor/attention_kernel.h"
#include "src/util/check.h"
#include "src/util/threadpool.h"

namespace llmnpu {

Tensor
PagedCausalAttention(const Tensor& q, const std::vector<int64_t>& segments,
                     const std::vector<int>& seqs,
                     const std::vector<int64_t>& pos_offsets,
                     const BatchedKvCache& cache, int layer, int num_heads,
                     int num_kv_heads)
{
    LLMNPU_CHECK_EQ(q.Rank(), 2);
    LLMNPU_CHECK_GE(segments.size(), 2u);
    const size_t b = segments.size() - 1;
    LLMNPU_CHECK_EQ(seqs.size(), b);
    LLMNPU_CHECK_EQ(pos_offsets.size(), b);
    LLMNPU_CHECK_EQ(segments.front(), 0);
    LLMNPU_CHECK_EQ(segments.back(), q.Rows());
    LLMNPU_CHECK_EQ(q.Cols() % num_heads, 0);
    LLMNPU_CHECK_EQ(num_heads % num_kv_heads, 0);
    const int head_dim = static_cast<int>(q.Cols()) / num_heads;
    LLMNPU_CHECK_EQ(static_cast<int64_t>(num_kv_heads) * head_dim,
                    cache.kv_dim());

    const int heads_per_kv = num_heads / num_kv_heads;
    const int64_t kv_dim = cache.kv_dim();
    const int64_t ps = kKvPageSize;
    const KvPagePool& pool = cache.pool();

    // Every member's history (this step's rows included) must already be
    // appended, and the page tables must cover it.
    for (size_t i = 0; i < b; ++i) {
        const int64_t q_len = segments[i + 1] - segments[i];
        LLMNPU_CHECK_GE(cache.SeqLen(seqs[i], layer),
                        pos_offsets[i] + q_len);
    }

    Tensor out({q.Rows(), q.Cols()}, DType::kF32);
    const float* pq = q.Data<float>();
    float* po = out.Data<float>();
    const int64_t q_cols = q.Cols();

    // One tile = one (sequence, head) pair: disjoint output regions, and
    // each row's arithmetic fixed by CausalAttentionHead, hence
    // bitwise-deterministic output for any block partition the pool picks.
    const int64_t tiles = static_cast<int64_t>(b) * num_heads;
    LLMNPU_TRACE_SPAN_ID("attention.paged", "attention", -1, -1, layer);
    ThreadPool::Global().ParallelFor(
        tiles, /*grain=*/1, [&](int64_t begin, int64_t end) {
            std::vector<const float*> k_pages, v_pages;
            for (int64_t tile = begin; tile < end; ++tile) {
                const size_t i = static_cast<size_t>(tile / num_heads);
                const int h = static_cast<int>(tile % num_heads);
                LLMNPU_TRACE_SPAN_TILE("attention.tile", "attention", -1,
                                       seqs[i], layer, "head", h);
                const int64_t q_off = static_cast<int64_t>(h) * head_dim;
                const int64_t kv_off =
                    static_cast<int64_t>(h / heads_per_kv) * head_dim;
                const int64_t r0 = segments[i];
                const int64_t q_len = segments[i + 1] - r0;
                const std::vector<int64_t>& pages =
                    cache.PageTable(seqs[i]);
                const int64_t visible = pos_offsets[i] + q_len;
                const size_t used = static_cast<size_t>(KvPagesFor(visible));
                k_pages.resize(used);
                v_pages.resize(used);
                for (size_t p = 0; p < used; ++p) {
                    k_pages[p] = pool.PageK(pages[p], layer) + kv_off;
                    v_pages[p] = pool.PageV(pages[p], layer) + kv_off;
                }
                CausalAttentionHead(pq + r0 * q_cols + q_off, q_cols, q_len,
                                    pos_offsets[i],
                                    KvHeadRows{k_pages.data(), v_pages.data(),
                                               ps, kv_dim},
                                    head_dim, po + r0 * q_cols + q_off,
                                    q_cols);
            }
        });
    return out;
}

}  // namespace llmnpu
