/**
 * @file
 * The per-element RoPE formula: pow, cos and sin evaluated in double for
 * every (row, head, dim) element. RopeTable computes each (position,
 * frequency) pair once instead; this is the reference it must match bit
 * for bit.
 */
#ifndef LLMNPU_TESTS_SUPPORT_ROPE_REFERENCE_H
#define LLMNPU_TESTS_SUPPORT_ROPE_REFERENCE_H

#include <cmath>
#include <cstdint>

#include "src/tensor/tensor.h"

namespace llmnpu {

/** Rotates rows [row_begin, row_begin + row_count) of `x` in place, row
 *  `row_begin` at global position `pos_offset`. */
inline void
ReferenceRopeRows(Tensor& x, int64_t row_begin, int64_t row_count,
                  int num_heads, int head_dim, int64_t pos_offset,
                  float theta = 10000.0f)
{
    const int half = head_dim / 2;
    float* p = x.Data<float>() + row_begin * x.Cols();
    for (int64_t s = 0; s < row_count; ++s) {
        const double pos = static_cast<double>(pos_offset + s);
        for (int h = 0; h < num_heads; ++h) {
            float* head = p + s * x.Cols() + static_cast<int64_t>(h) * head_dim;
            for (int d = 0; d < half; ++d) {
                const double freq =
                    std::pow(static_cast<double>(theta),
                             -2.0 * static_cast<double>(d) / head_dim);
                const double angle = pos * freq;
                const float cos_a = static_cast<float>(std::cos(angle));
                const float sin_a = static_cast<float>(std::sin(angle));
                const float x0 = head[d];
                const float x1 = head[d + half];
                head[d] = x0 * cos_a - x1 * sin_a;
                head[d + half] = x0 * sin_a + x1 * cos_a;
            }
        }
    }
}

}  // namespace llmnpu

#endif  // LLMNPU_TESTS_SUPPORT_ROPE_REFERENCE_H
