/**
 * @file
 * Dense row-major tensor with explicit element type.
 *
 * This is the numeric substrate for the whole repository: the reference
 * transformer, every quantization algorithm, and llm.npu's shadow outlier
 * execution all compute on these tensors, so accuracy results are real
 * computations rather than estimates.
 */
#ifndef LLMNPU_TENSOR_TENSOR_H
#define LLMNPU_TENSOR_TENSOR_H

#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <numeric>
#include <utility>
#include <vector>

#include "src/tensor/dtype.h"
#include "src/util/check.h"

namespace llmnpu {

/** std::allocator whose value-less construct() default-initializes, so a
 *  vector's resize() leaves new elements uninitialized (no zero fill). */
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
        using other = DefaultInitAllocator<U>;
    };
    using std::allocator<T>::allocator;

    template <typename U>
    void construct(U* p)
    {
        ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args)
    {
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
};

/**
 * A dense, row-major, owning tensor.
 *
 * Copyable (deep copy) and movable. Rank is arbitrary but most of the code
 * uses rank-2 [rows x cols] matrices; convenience accessors assume that.
 */
class Tensor
{
  public:
    /** Empty tensor (rank 0, no elements). */
    Tensor() : dtype_(DType::kF32) {}

    /** Uninitialized tensor of the given shape: its storage is not
     *  zero-filled, so the caller writes every element. */
    Tensor(std::vector<int64_t> shape, DType dtype)
        : shape_(std::move(shape)), dtype_(dtype)
    {
        for (int64_t d : shape_) LLMNPU_CHECK_GE(d, 0);
        data_.resize(static_cast<size_t>(NumElements()) * DTypeSize(dtype_));
    }

    /** Zero-initialized tensor. */
    static Tensor
    Zeros(std::vector<int64_t> shape, DType dtype = DType::kF32)
    {
        Tensor t(std::move(shape), dtype);
        if (!t.data_.empty()) {  // memset(nullptr, 0, 0) is UB
            std::memset(t.data_.data(), 0, t.data_.size());
        }
        return t;
    }

    /** Constant-filled f32 tensor. */
    static Tensor
    Full(std::vector<int64_t> shape, float value)
    {
        Tensor t(std::move(shape), DType::kF32);
        float* p = t.Data<float>();
        for (int64_t i = 0; i < t.NumElements(); ++i) p[i] = value;
        return t;
    }

    /** f32 tensor from an explicit value list (row-major). */
    static Tensor
    FromValues(std::vector<int64_t> shape, const std::vector<float>& values)
    {
        Tensor t(std::move(shape), DType::kF32);
        LLMNPU_CHECK_EQ(static_cast<int64_t>(values.size()), t.NumElements());
        if (!values.empty()) {  // memcpy from nullptr is UB even for n=0
            std::memcpy(t.Data<float>(), values.data(),
                        values.size() * sizeof(float));
        }
        return t;
    }

    const std::vector<int64_t>& shape() const { return shape_; }
    DType dtype() const { return dtype_; }
    int Rank() const { return static_cast<int>(shape_.size()); }

    /** Total number of elements. */
    int64_t
    NumElements() const
    {
        return std::accumulate(shape_.begin(), shape_.end(),
                               static_cast<int64_t>(1),
                               std::multiplies<int64_t>());
    }

    /** Total storage in bytes. */
    size_t SizeBytes() const { return data_.size(); }

    /** Dimension i (supports negative indexing from the back). */
    int64_t
    Dim(int i) const
    {
        if (i < 0) i += Rank();
        LLMNPU_CHECK_GE(i, 0);
        LLMNPU_CHECK_LT(i, Rank());
        return shape_[static_cast<size_t>(i)];
    }

    /** Rows of a rank-2 tensor. */
    int64_t
    Rows() const
    {
        LLMNPU_CHECK_EQ(Rank(), 2);
        return shape_[0];
    }

    /** Cols of a rank-2 tensor. */
    int64_t
    Cols() const
    {
        LLMNPU_CHECK_EQ(Rank(), 2);
        return shape_[1];
    }

    /** Typed mutable pointer; the template type must match dtype. */
    template <typename T>
    T*
    Data()
    {
        CheckType<T>();
        return reinterpret_cast<T*>(data_.data());
    }

    /** Typed const pointer; the template type must match dtype. */
    template <typename T>
    const T*
    Data() const
    {
        CheckType<T>();
        return reinterpret_cast<const T*>(data_.data());
    }

    /** Element access for rank-2 f32 tensors. */
    float&
    At(int64_t r, int64_t c)
    {
        LLMNPU_CHECK_EQ(Rank(), 2);
        BoundsCheck(r, c);
        return Data<float>()[r * shape_[1] + c];
    }

    float
    At(int64_t r, int64_t c) const
    {
        LLMNPU_CHECK_EQ(Rank(), 2);
        BoundsCheck(r, c);
        return Data<float>()[r * shape_[1] + c];
    }

    /** Copies rows [start, start+n) of a rank-2 tensor. */
    Tensor
    CopyRows(int64_t start, int64_t n) const
    {
        LLMNPU_CHECK_EQ(Rank(), 2);
        LLMNPU_CHECK_GE(start, 0);
        LLMNPU_CHECK_LE(start + n, Rows());
        Tensor out({n, Cols()}, dtype_);
        const size_t row_bytes = static_cast<size_t>(Cols()) *
                                 DTypeSize(dtype_);
        if (n > 0 && row_bytes > 0) {
            std::memcpy(out.data_.data(),
                        data_.data() + static_cast<size_t>(start) * row_bytes,
                        static_cast<size_t>(n) * row_bytes);
        }
        return out;
    }

    /** Overwrites rows [start, start + src.Rows()) with the rows of `src`
     *  (the scatter counterpart of CopyRows, used to write one sequence's
     *  segment back into a stacked batch tensor). */
    void
    PasteRows(const Tensor& src, int64_t start)
    {
        LLMNPU_CHECK_EQ(Rank(), 2);
        LLMNPU_CHECK_EQ(src.Rank(), 2);
        LLMNPU_CHECK_EQ(src.Cols(), Cols());
        LLMNPU_CHECK(src.dtype() == dtype_);
        LLMNPU_CHECK_GE(start, 0);
        LLMNPU_CHECK_LE(start + src.Rows(), Rows());
        const size_t row_bytes = static_cast<size_t>(Cols()) *
                                 DTypeSize(dtype_);
        if (src.Rows() > 0 && row_bytes > 0) {
            std::memcpy(data_.data() +
                            static_cast<size_t>(start) * row_bytes,
                        src.data_.data(),
                        static_cast<size_t>(src.Rows()) * row_bytes);
        }
    }

    /** Returns a reshaped deep-copy sharing no storage. */
    Tensor
    Reshape(std::vector<int64_t> new_shape) const
    {
        Tensor out(std::move(new_shape), dtype_);
        LLMNPU_CHECK_EQ(out.NumElements(), NumElements());
        if (!data_.empty()) {
            std::memcpy(out.data_.data(), data_.data(), data_.size());
        }
        return out;
    }

    /** True when shapes, dtypes and bytes are identical. */
    bool
    BitEquals(const Tensor& other) const
    {
        return shape_ == other.shape_ && dtype_ == other.dtype_ &&
               data_ == other.data_;
    }

  private:
    template <typename T>
    void
    CheckType() const
    {
        if constexpr (std::is_same_v<T, float>) {
            LLMNPU_CHECK(dtype_ == DType::kF32);
        } else if constexpr (std::is_same_v<T, int8_t>) {
            LLMNPU_CHECK(dtype_ == DType::kI8);
        } else if constexpr (std::is_same_v<T, int32_t>) {
            LLMNPU_CHECK(dtype_ == DType::kI32);
        } else {
            static_assert(sizeof(T) == 0, "unsupported tensor element type");
        }
    }

    void
    BoundsCheck(int64_t r, int64_t c) const
    {
        LLMNPU_CHECK_GE(r, 0);
        LLMNPU_CHECK_LT(r, shape_[0]);
        LLMNPU_CHECK_GE(c, 0);
        LLMNPU_CHECK_LT(c, shape_[1]);
    }

    std::vector<int64_t> shape_;
    DType dtype_;
    std::vector<uint8_t, DefaultInitAllocator<uint8_t>> data_;
};

/** Max absolute difference between two equally-shaped f32 tensors. */
inline double
MaxAbsDiff(const Tensor& a, const Tensor& b)
{
    LLMNPU_CHECK(a.shape() == b.shape());
    const float* pa = a.Data<float>();
    const float* pb = b.Data<float>();
    double m = 0.0;
    for (int64_t i = 0; i < a.NumElements(); ++i) {
        const double d = std::abs(static_cast<double>(pa[i]) - pb[i]);
        if (d > m) m = d;
    }
    return m;
}

/** Mean squared error between two equally-shaped f32 tensors. */
inline double
MeanSquaredError(const Tensor& a, const Tensor& b)
{
    LLMNPU_CHECK(a.shape() == b.shape());
    const float* pa = a.Data<float>();
    const float* pb = b.Data<float>();
    double acc = 0.0;
    for (int64_t i = 0; i < a.NumElements(); ++i) {
        const double d = static_cast<double>(pa[i]) - pb[i];
        acc += d * d;
    }
    return a.NumElements() ? acc / static_cast<double>(a.NumElements()) : 0.0;
}

}  // namespace llmnpu

#endif  // LLMNPU_TENSOR_TENSOR_H
