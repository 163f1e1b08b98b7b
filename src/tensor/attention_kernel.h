/**
 * @file
 * The attention inner loops of the fused PagedCausalAttention
 * (src/model/paged_attention.cc).
 *
 * It hands one (sequence, query head) tile to CausalAttentionHead, which
 * walks the K/V history as page-contiguous runs and calls two run-level
 * primitives in kernels.cc, the TU built with target SIMD flags:
 *
 *  - scores: q . k_j * scale for a run of K rows `stride` floats apart;
 *  - accumulate: out += w_j * v_j over a run of V rows, j ascending.
 *
 * Lane order of one dot over head_dim: two 8-lane accumulators take
 * alternate 8-float chunks (a0 += chunks 0, 2, 4, ...; a1 += chunks 1, 3,
 * ...); a last odd chunk goes to a0. Then s = a0 + a1 is reduced as
 * (s0+s4, s1+s5, s2+s6, s3+s7) -> pairs (0,2), (1,3) -> their sum, and
 * the head_dim % 8 tail is added to that sum in ascending d. Each output
 * element of the accumulate is a chain over j ascending. Neither order
 * depends on the page size, a position's place within its page, the
 * number of query rows computed together or the thread count, so a
 * sequence's output is the same bits whatever its page size and whatever
 * else shares its batch.
 *
 * Both primitives have an AVX-512 level (kernel_isa.h) with the same
 * order. A 16-lane load at offset d holds chunk d/8 in its low half and
 * chunk d/8 + 1 in its high half, so one 16-lane accumulator is [a0 | a1]
 * lane for lane, each chunk entering with the same multiply-add; the odd
 * last chunk is added to the low half only. Its low + high half is
 * s = a0 + a1. The scores primitive then reduces up to 16 dots (4 query
 * rows x 4 keys for prefill, 16 keys for a decode row) together: four
 * permute-and-add levels whose sums are, per dot, exactly a0 + a1, then
 * (i, i+4), then (i, i+2), then (0, 1). Float addition is commutative, and
 * every sum adds the same two partial sums as above, so each dot rounds
 * identically; the tail stays scalar. The accumulate runs 16 columns per
 * vector, still one chain over j ascending per element. Between the two,
 * the softmax's exp runs eight lanes at a time with glibc's expf
 * algorithm (kernel_isa.h), which rounds every weight as std::exp does.
 */
#ifndef LLMNPU_TENSOR_ATTENTION_KERNEL_H
#define LLMNPU_TENSOR_ATTENTION_KERNEL_H

#include <cstdint>

namespace llmnpu {

/**
 * One KV head's K and V rows, stored in pages of `page_size` consecutive
 * positions: position j's K row starts at
 * k_pages[j / page_size] + (j % page_size) * stride, and likewise for V.
 * The page pointers already include the head's column offset.
 */
struct KvHeadRows {
    const float* const* k_pages = nullptr;
    const float* const* v_pages = nullptr;
    int64_t page_size = 0;
    int64_t stride = 0;
};

/**
 * Causal softmax attention of `rows` query rows of one head.
 *
 * Query row r (at q + r * q_stride) sits at position first_pos + r and
 * attends to positions [0, first_pos + r]; its head_dim outputs overwrite
 * out + r * out_stride. Prefill tiles compute up to four query rows per
 * loaded K/V row; a row's result does not depend on that blocking.
 */
void CausalAttentionHead(const float* q, int64_t q_stride, int64_t rows,
                         int64_t first_pos, const KvHeadRows& kv,
                         int head_dim, float* out, int64_t out_stride);

}  // namespace llmnpu

#endif  // LLMNPU_TENSOR_ATTENTION_KERNEL_H
