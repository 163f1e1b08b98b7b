#include "tests/support/row_subset_reference.h"

#include "src/util/check.h"

namespace llmnpu {

Tensor
ReferenceRowSubset(const Tensor& a_sub, const Tensor& w,
                   const std::vector<int>& rows)
{
    LLMNPU_CHECK(a_sub.dtype() == DType::kF32);
    LLMNPU_CHECK(w.dtype() == DType::kF32);
    LLMNPU_CHECK_EQ(a_sub.Cols(), static_cast<int64_t>(rows.size()));
    const int64_t m = a_sub.Rows(), n = w.Cols();
    const int64_t num_rows = static_cast<int64_t>(rows.size());
    for (int row : rows) {
        LLMNPU_CHECK_GE(row, 0);
        LLMNPU_CHECK_LT(row, w.Rows());
    }
    Tensor c = Tensor::Zeros({m, n});
    const float* pa = a_sub.Data<float>();
    const float* pw = w.Data<float>();
    float* pc = c.Data<float>();
    for (int64_t i = 0; i < m; ++i) {
        float* __restrict crow = pc + i * n;
        for (int64_t t = 0; t < num_rows; ++t) {
            const float av = pa[i * num_rows + t];
            if (av == 0.0f) continue;
            const float* __restrict wrow =
                pw + rows[static_cast<size_t>(t)] * n;
            for (int64_t j = 0; j < n; ++j) crow[j] += av * wrow[j];
        }
    }
    return c;
}

bool
KernelFlagsHaveFma()
{
#if defined(__FMA__)
    return true;
#else
    return false;
#endif
}

}  // namespace llmnpu
