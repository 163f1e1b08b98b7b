#include "src/model/kv_page_pool.h"

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace llmnpu {

namespace {

/** Registry handles resolved once; the registry leaks, so these are safe
 *  to cache for the process lifetime. */
struct KvPoolMetrics
{
    obs::Counter& alloc =
        obs::MetricsRegistry::Global().GetCounter("kv_pool.alloc");
    obs::Counter& release =
        obs::MetricsRegistry::Global().GetCounter("kv_pool.release");
    obs::Counter& cow_clone =
        obs::MetricsRegistry::Global().GetCounter("kv_pool.cow_clone");
    obs::Gauge& used =
        obs::MetricsRegistry::Global().GetGauge("kv_pool.used_pages");
};

KvPoolMetrics&
PoolMetrics()
{
    static KvPoolMetrics* m = new KvPoolMetrics();
    return *m;
}

}  // namespace

KvPagePool::KvPagePool(int num_layers, int64_t kv_dim)
    : num_layers_(num_layers), kv_dim_(kv_dim)
{
    LLMNPU_CHECK_GT(num_layers, 0);
    LLMNPU_CHECK_GT(kv_dim, 0);
}

int64_t
KvPagePool::PageFloats() const
{
    return static_cast<int64_t>(num_layers_) * 2 * kKvPageSize * kv_dim_;
}

int64_t
KvPagePool::PageBytes() const
{
    return PageFloats() * static_cast<int64_t>(sizeof(float));
}

int64_t
KvPagePool::AllocPage()
{
    int64_t page;
    if (!free_list_.empty()) {
        page = free_list_.back();
        free_list_.pop_back();
    } else {
        page = allocated_pages();
        pages_.emplace_back(static_cast<size_t>(PageFloats()));
        refcount_.push_back(0);
    }
    LLMNPU_CHECK_EQ(refcount_[static_cast<size_t>(page)], 0);
    refcount_[static_cast<size_t>(page)] = 1;
    ++used_pages_;
    PoolMetrics().alloc.Add(1);
    PoolMetrics().used.Set(static_cast<double>(used_pages_));
    LLMNPU_TRACE_COUNTER("kv_pool.used_pages",
                         static_cast<double>(used_pages_));
    return page;
}

int64_t
KvPagePool::ClonePage(int64_t src)
{
    LLMNPU_CHECK_GE(src, 0);
    LLMNPU_CHECK_LT(src, allocated_pages());
    LLMNPU_CHECK_GT(refcount_[static_cast<size_t>(src)], 0);
    const int64_t clone = AllocPage();
    // Whole-buffer copy: a CoW write targets one layer, but the sibling
    // layers' shared rows live in the same physical page and the cloning
    // sequence still needs them after its table points at the copy.
    pages_[static_cast<size_t>(clone)] = pages_[static_cast<size_t>(src)];
    ++cow_clones_;
    PoolMetrics().cow_clone.Add(1);
    LLMNPU_TRACE_INSTANT("kv_pool.cow_clone", "kv");
    return clone;
}

void
KvPagePool::AddRef(int64_t page)
{
    LLMNPU_CHECK_GE(page, 0);
    LLMNPU_CHECK_LT(page, allocated_pages());
    LLMNPU_CHECK_GT(refcount_[static_cast<size_t>(page)], 0);
    ++refcount_[static_cast<size_t>(page)];
}

void
KvPagePool::Release(int64_t page)
{
    LLMNPU_CHECK_GE(page, 0);
    LLMNPU_CHECK_LT(page, allocated_pages());
    int64_t& refs = refcount_[static_cast<size_t>(page)];
    LLMNPU_CHECK_GT(refs, 0);
    if (--refs == 0) {
        free_list_.push_back(page);
        --used_pages_;
        PoolMetrics().release.Add(1);
        PoolMetrics().used.Set(static_cast<double>(used_pages_));
        LLMNPU_TRACE_COUNTER("kv_pool.used_pages",
                             static_cast<double>(used_pages_));
    }
}

int64_t
KvPagePool::RefCount(int64_t page) const
{
    LLMNPU_CHECK_GE(page, 0);
    LLMNPU_CHECK_LT(page, allocated_pages());
    return refcount_[static_cast<size_t>(page)];
}

float*
KvPagePool::PageK(int64_t page, int layer)
{
    LLMNPU_CHECK_GE(page, 0);
    LLMNPU_CHECK_LT(page, allocated_pages());
    LLMNPU_CHECK_GE(layer, 0);
    LLMNPU_CHECK_LT(layer, num_layers_);
    return pages_[static_cast<size_t>(page)].data() +
           static_cast<int64_t>(layer) * 2 * kKvPageSize * kv_dim_;
}

const float*
KvPagePool::PageK(int64_t page, int layer) const
{
    return const_cast<KvPagePool*>(this)->PageK(page, layer);
}

float*
KvPagePool::PageV(int64_t page, int layer)
{
    return PageK(page, layer) + kKvPageSize * kv_dim_;
}

const float*
KvPagePool::PageV(int64_t page, int layer) const
{
    return const_cast<KvPagePool*>(this)->PageV(page, layer);
}

}  // namespace llmnpu
