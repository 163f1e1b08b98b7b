/**
 * @file
 * Fused batched causal attention over paged KV.
 *
 * One call covers every sequence of the batch: it reads K/V directly out
 * of the pool pages through each sequence's page table, writes straight
 * into the stacked output, and tile-parallels the work across the
 * persistent ThreadPool. One tile = one (sequence, query head) pair, so B
 * sequences x H heads tiles per call.
 *
 * The arithmetic is CausalAttentionHead (src/tensor/attention_kernel.h):
 * each tile hands it the sequence's pages as page-contiguous K/V runs.
 * Its two primitives, the q.k scores over a run of K rows and
 * the w.V accumulate over a run of V rows, fix every reduction order by
 * head_dim alone. A dot takes 8-float chunks alternately into two 8-lane
 * accumulators, reduces the lanes as (i, i+4) -> (i, i+2) -> (0, 1), then
 * adds the head_dim % 8 tail in ascending d; each output element sums its
 * weighted V values in ascending position. The AVX-512 level keeps this
 * order: its 16-lane accumulator is the [a0 | a1] pair, and it reduces 16
 * dots at a time with the same three steps (attention_kernel.h explains
 * why the bits match). No order depends on the page size, where a
 * position sits in its page, how many query rows a tile computes together,
 * the kernel level or the thread count. Output is therefore bitwise
 * identical at any thread count, at any page size and to each sequence
 * attended alone, and the batched-equals-sequential contract extends
 * through this kernel.
 */
#ifndef LLMNPU_MODEL_PAGED_ATTENTION_H
#define LLMNPU_MODEL_PAGED_ATTENTION_H

#include <cstdint>
#include <vector>

#include "src/model/batched_kv_cache.h"
#include "src/tensor/tensor.h"

namespace llmnpu {

/**
 * Causal grouped-query attention for B stacked sequences over paged KV.
 *
 * @param q stacked RoPE'd queries [sum(m_i) x num_heads*head_dim]; rows
 *        [segments[i], segments[i+1]) belong to sequence i.
 * @param segments stacked-row boundaries, size B+1.
 * @param seqs cache slot of each batch member, size B.
 * @param pos_offsets global position of each member's first Q row, size B;
 *        member i attends to its cache positions <= pos_offsets[i] + r.
 * @param cache the paged KV holding every member's appended K/V history
 *        for `layer` (this step's rows included).
 * @return stacked attention output, same shape as `q`.
 */
Tensor PagedCausalAttention(const Tensor& q, const std::vector<int64_t>& segments,
                            const std::vector<int>& seqs,
                            const std::vector<int64_t>& pos_offsets,
                            const BatchedKvCache& cache, int layer,
                            int num_heads, int num_kv_heads);

}  // namespace llmnpu

#endif  // LLMNPU_MODEL_PAGED_ATTENTION_H
