/**
 * @file
 * The row-block split shared by every row-wise pass of the numeric plane:
 * the tiled matmuls (kernels.cc), the float epilogue ops (ops.cc) and the
 * shadow-term accumulate (src/core/shadow_executor.cc).
 *
 * ThreadPool::ParallelFor hands out contiguous blocks, so a pass in which
 * every row is computed on its own, with a fixed per-element expression,
 * gives bitwise identical results at any thread count: only the thread
 * that computes a row changes.
 */
#ifndef LLMNPU_TENSOR_ROW_PARALLEL_H
#define LLMNPU_TENSOR_ROW_PARALLEL_H

#include <cstdint>

#include "src/util/threadpool.h"

namespace llmnpu {

/** Work (multiply-accumulates of a matmul, elements of an element-wise
 *  pass) below which a call runs inline: under it the pool barrier costs
 *  more than the split saves. A constant, so whether a pass splits depends
 *  on its shape only; an m=16 decode step's epilogues stay inline. */
constexpr int64_t kParallelWorkCutoff = 64 * 1024;

/** Runs fn(r0, r1) over row blocks covering [0, m): inline when
 *  m * work_per_row < kParallelWorkCutoff, else over the shared pool. */
template <typename Fn>
void
RowParallel(int64_t m, int64_t work_per_row, const Fn& fn)
{
    if (m <= 0) return;
    if (m * work_per_row < kParallelWorkCutoff) {
        fn(static_cast<int64_t>(0), m);
        return;
    }
    ThreadPool::Global().ParallelFor(m, 1, fn);
}

}  // namespace llmnpu

#endif  // LLMNPU_TENSOR_ROW_PARALLEL_H
