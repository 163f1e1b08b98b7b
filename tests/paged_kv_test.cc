/**
 * @file
 * Paged KV subsystem tests (CTest label `paged-kv`).
 *
 * Covers the KvPagePool allocator (free-list reuse, on-demand growth,
 * refcounted prefix sharing, released-page misuse, the kv_pool.* registry
 * counters), the paged BatchedKvCache (page-table reuse after retirement,
 * retired-slot access, CoW fork-write divergence and the pages a fork
 * write takes, randomized refcount accounting), all at kKvPageSize
 * positions per page,
 * the shared-system-prompt serving scenario (once-counted admission,
 * eviction with a resident prefix, nested fraction marking, bitwise
 * replay through CoW forks), the fused PagedCausalAttention kernel
 * (causal mask and GQA head sharing, chunked prefill bitwise equal to
 * full-prompt attention (§3.2), bitwise equality to each sequence
 * attended alone over its whole history and over 1- and 3-position page
 * runs, 1/2/4-thread determinism, and agreement with a double oracle
 * across head_dim and query-row counts), B=64 ragged batched forward vs sequential,
 * the serving layer's KV admission/eviction model (including
 * eviction-then-readmit bitwise replay), the simulator's KvLedger page
 * accounting, per-run KV state under concurrent simulator runs, and the
 * empty-input guards of the metrics path (Percentile, all-rejected
 * reports, config validation).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/llmnpu_engine.h"
#include "src/model/batched_kv_cache.h"
#include "src/model/kv_page_pool.h"
#include "src/model/paged_attention.h"
#include "src/model/weights.h"
#include "src/obs/metrics.h"
#include "src/serving/kv_ledger.h"
#include "src/serving/replay.h"
#include "src/serving/simulator.h"
#include "src/tensor/attention_kernel.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/threadpool.h"
#include "src/workloads/datasets.h"
#include "tests/support/schedule_hash.h"
#include "tests/support/tiny_model.h"
#include "tests/support/token_streams.h"

namespace llmnpu {
namespace {

Tensor
RandomTensor(Rng& rng, int64_t rows, int64_t cols)
{
    Tensor t({rows, cols}, DType::kF32);
    float* p = t.Data<float>();
    for (int64_t i = 0; i < t.NumElements(); ++i) {
        p[i] = static_cast<float>(rng.Normal(0.0, 1.0));
    }
    return t;
}

bool
BitwiseEqual(const Tensor& a, const Tensor& b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.Data<float>(), b.Data<float>(),
                       static_cast<size_t>(a.NumElements()) *
                           sizeof(float)) == 0;
}

// ------------------------------------------------------------- KvPagePool

TEST(KvPagePoolTest, FreeListRecyclesReleasedPagesLifo)
{
    KvPagePool pool(2, 8);
    const int64_t a = pool.AllocPage();
    const int64_t b = pool.AllocPage();
    const int64_t c = pool.AllocPage();
    EXPECT_EQ(pool.used_pages(), 3);
    EXPECT_EQ(pool.allocated_pages(), 3);

    pool.Release(a);
    pool.Release(c);
    EXPECT_EQ(pool.used_pages(), 1);
    // LIFO: the most recently released page comes back first, and no new
    // physical storage is allocated while the free list can serve.
    EXPECT_EQ(pool.AllocPage(), c);
    EXPECT_EQ(pool.AllocPage(), a);
    EXPECT_EQ(pool.allocated_pages(), 3);
    pool.Release(a);
    pool.Release(b);
    pool.Release(c);
    EXPECT_EQ(pool.used_pages(), 0);
    EXPECT_EQ(pool.SizeBytes(), 0);
}

TEST(KvPagePoolTest, RefcountedSharingKeepsPagesAlive)
{
    KvPagePool pool(1, 4);
    const int64_t page = pool.AllocPage();
    pool.AddRef(page);
    EXPECT_EQ(pool.RefCount(page), 2);
    pool.Release(page);
    EXPECT_EQ(pool.RefCount(page), 1);  // still held by the other owner
    EXPECT_EQ(pool.used_pages(), 1);
    pool.Release(page);
    EXPECT_EQ(pool.used_pages(), 0);
}

TEST(KvPagePoolTest, PoolGrowsOnDemandInsteadOfExhausting)
{
    // The pool has no page budget: with the free list empty, AllocPage and
    // ClonePage each add a fresh physical page with the next id. Budgets
    // live in the serving simulator's KvLedger.
    KvPagePool pool(1, 4);
    constexpr int64_t kPages = 64;
    for (int64_t i = 0; i < kPages; ++i) EXPECT_EQ(pool.AllocPage(), i);
    EXPECT_EQ(pool.used_pages(), kPages);
    EXPECT_EQ(pool.allocated_pages(), kPages);

    pool.PageK(0, 0)[0] = 7.0f;
    pool.PageV(0, 0)[kKvPageSize * 4 - 1] = 9.0f;
    const int64_t clone = pool.ClonePage(0);
    EXPECT_EQ(clone, kPages);
    EXPECT_EQ(pool.allocated_pages(), kPages + 1);
    EXPECT_EQ(pool.PageK(clone, 0)[0], 7.0f);
    EXPECT_EQ(pool.PageV(clone, 0)[kKvPageSize * 4 - 1], 9.0f);
    EXPECT_EQ(pool.RefCount(0), 1);  // the source keeps its reference

    for (int64_t page = 0; page <= kPages; ++page) pool.Release(page);
    EXPECT_EQ(pool.used_pages(), 0);
    // Released storage is kept and recycled; nothing is allocated again.
    EXPECT_EQ(pool.AllocPage(), kPages);
    EXPECT_EQ(pool.allocated_pages(), kPages + 1);
}

TEST(KvPagePoolDeathTest, ReleaseOfFreePagePanics)
{
    KvPagePool pool(1, 4);
    const int64_t page = pool.AllocPage();
    pool.Release(page);
    EXPECT_DEATH(pool.Release(page), "CHECK failed");
    EXPECT_DEATH(pool.AddRef(page), "CHECK failed");
}

TEST(KvPagePoolDeathTest, CloneOfFreePagePanics)
{
    // A copy-on-write clone reads a live page; a released one is a
    // use-after-free, not a page to copy.
    KvPagePool pool(1, 4);
    const int64_t page = pool.AllocPage();
    pool.Release(page);
    EXPECT_DEATH(pool.ClonePage(page), "CHECK failed");
    EXPECT_DEATH(pool.ClonePage(page + 1), "CHECK failed");
}

TEST(KvPagePoolTest, RegistryCountersTrackPoolEvents)
{
    // The kv_pool.* registry entries the benchmark's kv.page_allocs and
    // kv.pages_peak rows read, as deltas across append, a mid-page fork,
    // a CoW write, retirement and one recycled page.
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    obs::Counter& alloc = registry.GetCounter("kv_pool.alloc");
    obs::Counter& release = registry.GetCounter("kv_pool.release");
    obs::Counter& cow_clone = registry.GetCounter("kv_pool.cow_clone");
    obs::Gauge& used = registry.GetGauge("kv_pool.used_pages");
    const int64_t alloc0 = alloc.value();
    const int64_t release0 = release.value();
    const int64_t cow0 = cow_clone.value();

    BatchedKvCache cache(1, 4);
    const KvPagePool& pool = cache.pool();
    // Every hand-out minus every return is the pool's live page count, and
    // the gauge holds it after each event.
    auto expect_counts = [&](int64_t allocs, int64_t releases,
                             int64_t clones) {
        EXPECT_EQ(alloc.value() - alloc0, allocs);
        EXPECT_EQ(release.value() - release0, releases);
        EXPECT_EQ(cow_clone.value() - cow0, clones);
        EXPECT_EQ(clones, pool.cow_clones());
        EXPECT_EQ(allocs - releases, pool.used_pages());
        EXPECT_EQ(used.value(), static_cast<double>(pool.used_pages()));
    };

    const int src = cache.AddSequence();
    cache.Append(src, 0, Tensor::Full({2 * kKvPageSize - 4, 4}, 1.0f),
                 Tensor::Full({2 * kKvPageSize - 4, 4}, 2.0f));
    expect_counts(/*allocs=*/2, /*releases=*/0, /*clones=*/0);
    EXPECT_EQ(pool.allocated_pages(), 2);

    // A mid-page fork shares both pages and allocates nothing.
    const int fork = cache.AddSequenceSharingPrefix(src, kKvPageSize + 2);
    expect_counts(2, 0, 0);

    // The fork's first write clones the shared frontier page; dropping
    // one reference on the original returns no page.
    cache.Append(fork, 0, Tensor::Full({1, 4}, 3.0f),
                 Tensor::Full({1, 4}, 4.0f));
    expect_counts(3, 0, 1);

    // Retiring the source frees only the page nobody else maps.
    cache.RetireSequence(src);
    expect_counts(3, 1, 1);
    cache.RetireSequence(fork);
    expect_counts(3, 3, 1);

    // A recycled page counts as a hand-out but allocates no storage.
    const int next = cache.AddSequence();
    cache.Append(next, 0, Tensor::Full({1, 4}, 5.0f),
                 Tensor::Full({1, 4}, 6.0f));
    expect_counts(4, 3, 1);
    EXPECT_EQ(pool.allocated_pages(), 3);
}

// --------------------------------------------------- paged BatchedKvCache

TEST(PagedKvCacheTest, PageTableReuseAfterRetirement)
{
    BatchedKvCache cache(2, 8, 0);
    const int a = cache.AddSequence();
    Tensor k = Tensor::Full({24, 8}, 1.0f);  // 24 positions -> 2 pages
    Tensor v = Tensor::Full({24, 8}, 2.0f);
    for (int l = 0; l < 2; ++l) cache.Append(a, l, k, v);
    const std::vector<int64_t> a_pages = cache.PageTable(a);
    ASSERT_EQ(a_pages.size(), 2u);
    EXPECT_EQ(cache.pool().used_pages(), 2);

    cache.RetireSequence(a);
    EXPECT_TRUE(cache.IsRetired(a));
    EXPECT_EQ(cache.live_sequences(), 0);
    EXPECT_EQ(cache.pool().used_pages(), 0);

    // A new sequence recycles the retired sequence's physical pages (LIFO
    // free list), with no new storage allocated.
    const int b = cache.AddSequence();
    EXPECT_NE(b, a);  // slot indices are never reused
    Tensor k2 = Tensor::Full({32, 8}, 3.0f);
    Tensor v2 = Tensor::Full({32, 8}, 4.0f);
    for (int l = 0; l < 2; ++l) cache.Append(b, l, k2, v2);
    const std::vector<int64_t>& b_pages = cache.PageTable(b);
    ASSERT_EQ(b_pages.size(), 2u);
    EXPECT_EQ(b_pages[0], a_pages[1]);
    EXPECT_EQ(b_pages[1], a_pages[0]);
    EXPECT_EQ(cache.pool().allocated_pages(), 2);

    // The recycled pages hold the new sequence's data, not the old.
    Tensor keys = cache.Keys(b, 0);
    for (int64_t i = 0; i < keys.NumElements(); ++i) {
        ASSERT_EQ(keys.Data<float>()[i], 3.0f);
    }
}

TEST(PagedKvCacheTest, PrefixSharingSharesWholePagesRefcounted)
{
    BatchedKvCache cache(1, 4, 0);
    const int src = cache.AddSequence();
    Rng rng(11);
    Tensor k = RandomTensor(rng, 40, 4);  // 40 positions -> 3 pages
    Tensor v = RandomTensor(rng, 40, 4);
    cache.Append(src, 0, k, v);

    // Fork sharing the first 32 positions (= 2 whole pages).
    const int fork = cache.AddSequenceSharingPrefix(src, 32);
    EXPECT_EQ(cache.SeqLen(fork), 32);
    EXPECT_EQ(cache.PageTable(fork)[0], cache.PageTable(src)[0]);
    EXPECT_EQ(cache.PageTable(fork)[1], cache.PageTable(src)[1]);
    EXPECT_EQ(cache.pool().RefCount(cache.PageTable(src)[0]), 2);
    EXPECT_EQ(cache.pool().used_pages(), 3);  // shared pages counted once

    // The fork's continuation lands in its own fresh page; the source's
    // view of the shared prefix is untouched.
    Tensor k2 = RandomTensor(rng, 1, 4);
    Tensor v2 = RandomTensor(rng, 1, 4);
    cache.Append(fork, 0, k2, v2);
    EXPECT_EQ(cache.SeqLen(fork), 33);
    EXPECT_NE(cache.PageTable(fork)[2], cache.PageTable(src)[2]);
    Tensor src_keys = cache.Keys(src, 0);
    EXPECT_TRUE(BitwiseEqual(src_keys, k));

    // Retiring the source keeps the shared pages alive for the fork.
    cache.RetireSequence(src);
    EXPECT_EQ(cache.pool().RefCount(cache.PageTable(fork)[0]), 1);
    Tensor fork_keys = cache.Keys(fork, 0);
    EXPECT_EQ(fork_keys.Rows(), 33);
    EXPECT_EQ(std::memcmp(fork_keys.Data<float>(), k.Data<float>(),
                          32 * 4 * sizeof(float)),
              0);
}

TEST(PagedKvCacheTest, CowForkWriteDivergenceIsBitwiseIsolated)
{
    // Non-aligned fork: the partially filled frontier page is shared too,
    // and the first write into it — from either side — copies the page
    // instead of dying on the old write-locked CHECK.
    BatchedKvCache cache(1, 4, 0);
    const int src = cache.AddSequence();
    Rng rng(17);
    Tensor k = RandomTensor(rng, 40, 4);  // 40 positions -> 3 pages
    Tensor v = RandomTensor(rng, 40, 4);
    cache.Append(src, 0, k, v);

    const int fork = cache.AddSequenceSharingPrefix(src, 40);
    EXPECT_EQ(cache.SeqLen(fork), 40);
    EXPECT_EQ(cache.PageTable(fork)[2], cache.PageTable(src)[2]);
    EXPECT_EQ(cache.pool().used_pages(), 3);  // partial page shared once

    // Source writes first, up to the page edge: it clones the frontier
    // page, the fork keeps the original.
    Tensor sk = RandomTensor(rng, 8, 4);
    Tensor sv = RandomTensor(rng, 8, 4);
    cache.Append(src, 0, sk, sv);
    EXPECT_EQ(cache.pool().cow_clones(), 1);
    EXPECT_NE(cache.PageTable(src)[2], cache.PageTable(fork)[2]);
    EXPECT_EQ(cache.pool().RefCount(cache.PageTable(fork)[2]), 1);

    // The fork now owns its frontier page alone — its write is in place
    // and spills into a fresh page.
    Tensor fk = RandomTensor(rng, 12, 4);
    Tensor fv = RandomTensor(rng, 12, 4);
    cache.Append(fork, 0, fk, fv);
    EXPECT_EQ(cache.pool().cow_clones(), 1);

    // A second fork off the grown source CoWs again on its first write.
    const int fork2 = cache.AddSequenceSharingPrefix(src, 40);
    Tensor gk = RandomTensor(rng, 4, 4);
    Tensor gv = RandomTensor(rng, 4, 4);
    cache.Append(fork2, 0, gk, gv);
    EXPECT_EQ(cache.pool().cow_clones(), 2);

    // Every view is bitwise what an independent sequence would hold.
    Tensor src_expect({48, 4}, DType::kF32);
    src_expect.PasteRows(k, 0);
    src_expect.PasteRows(sk, 40);
    EXPECT_TRUE(BitwiseEqual(cache.Keys(src, 0), src_expect));
    Tensor fork_expect({52, 4}, DType::kF32);
    fork_expect.PasteRows(k, 0);
    fork_expect.PasteRows(fk, 40);
    EXPECT_TRUE(BitwiseEqual(cache.Keys(fork, 0), fork_expect));
    Tensor fork2_expect({44, 4}, DType::kF32);
    fork2_expect.PasteRows(k, 0);
    fork2_expect.PasteRows(gk, 40);
    EXPECT_TRUE(BitwiseEqual(cache.Keys(fork2, 0), fork2_expect));
}

TEST(PagedKvCacheTest, ForkWriteChargesCloneAndSpillPages)
{
    // A fork off a half-filled frontier page maps no page of its own; its
    // first write takes one page for the copy-on-write clone, plus one per
    // fresh page the write spills into.
    BatchedKvCache cache(1, 4, 0);
    const int src = cache.AddSequence();
    const int64_t src_len = kKvPageSize + 6;  // page 0 full, page 1 part
    cache.Append(src, 0, Tensor::Full({src_len, 4}, 1.0f),
                 Tensor::Full({src_len, 4}, 2.0f));
    const KvPagePool& pool = cache.pool();
    ASSERT_EQ(pool.used_pages(), 2);

    // Up to the page edge: the write stays on the shared frontier page,
    // so it costs exactly the clone.
    const int fork = cache.AddSequenceSharingPrefix(src, src_len);
    EXPECT_EQ(pool.used_pages(), 2);
    const int64_t to_edge = 2 * kKvPageSize - src_len;
    cache.Append(fork, 0, Tensor::Full({to_edge, 4}, 3.0f),
                 Tensor::Full({to_edge, 4}, 4.0f));
    EXPECT_EQ(pool.cow_clones(), 1);
    EXPECT_EQ(pool.used_pages(), 3);
    EXPECT_EQ(cache.PageTable(fork).size(), 2u);
    EXPECT_EQ(cache.PageTable(fork)[0], cache.PageTable(src)[0]);

    // One position past the edge: clone + a fresh page.
    const int fork2 = cache.AddSequenceSharingPrefix(src, src_len);
    cache.Append(fork2, 0, Tensor::Full({to_edge + 1, 4}, 5.0f),
                 Tensor::Full({to_edge + 1, 4}, 6.0f));
    EXPECT_EQ(pool.cow_clones(), 2);
    EXPECT_EQ(pool.used_pages(), 5);
    EXPECT_EQ(cache.PageTable(fork2).size(), 3u);
    EXPECT_EQ(cache.SeqLen(fork2), 2 * kKvPageSize + 1);
}

TEST(PagedKvCacheTest, RandomizedForkAppendRetireKeepsRefcountsExact)
{
    // Model check of the sharing accounting: after every operation, the
    // pool's used-page count equals the number of distinct pages mapped by
    // live sequences and each page's refcount equals the number of live
    // sequences mapping it. Slot storage starts empty so the run also
    // reallocates the internal sequence vector many times.
    const int64_t kv_dim = 4;
    BatchedKvCache cache(1, kv_dim, 0);
    Rng rng(123);
    std::vector<int> live;
    std::map<int, std::vector<float>> mirror;  // slot -> expected key rows
    auto append_rows = [&](int seq, int rows) {
        Tensor k = RandomTensor(rng, rows, kv_dim);
        Tensor v = RandomTensor(rng, rows, kv_dim);
        cache.Append(seq, 0, k, v);
        const float* p = k.Data<float>();
        std::vector<float>& m = mirror[seq];
        m.insert(m.end(), p, p + k.NumElements());
    };
    for (int op = 0; op < 300; ++op) {
        const int kind = static_cast<int>(rng.Next() % 4);
        if (live.empty() || kind == 0) {
            const int s = cache.AddSequence();
            live.push_back(s);
            append_rows(s, 1 + static_cast<int>(rng.Next() % 24));
        } else if (kind == 1) {
            const int src =
                live[static_cast<size_t>(rng.Next() % live.size())];
            const int64_t len = cache.SeqLen(src);
            const int64_t keep = static_cast<int64_t>(
                rng.Next() % static_cast<uint64_t>(len + 1));
            const int fork = cache.AddSequenceSharingPrefix(src, keep);
            live.push_back(fork);
            const std::vector<float>& sm = mirror[src];
            mirror[fork].assign(sm.begin(), sm.begin() + keep * kv_dim);
        } else if (kind == 2) {
            const int s =
                live[static_cast<size_t>(rng.Next() % live.size())];
            append_rows(s, 1 + static_cast<int>(rng.Next() % 20));
        } else {
            const size_t i =
                static_cast<size_t>(rng.Next() % live.size());
            cache.RetireSequence(live[i]);
            mirror.erase(live[i]);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        }
        std::map<int64_t, int> refs;
        for (int s : live) {
            for (int64_t p : cache.PageTable(s)) ++refs[p];
        }
        ASSERT_EQ(cache.pool().used_pages(),
                  static_cast<int64_t>(refs.size()));
        for (const auto& [page, count] : refs) {
            ASSERT_EQ(cache.pool().RefCount(page), count);
        }
    }
    // Values: every live sequence reads back exactly its own stream —
    // no CoW ever leaked a write into a sibling's pages.
    for (int s : live) {
        const std::vector<float>& m = mirror[s];
        if (m.empty()) continue;
        Tensor keys = cache.Keys(s, 0);
        ASSERT_EQ(static_cast<size_t>(keys.NumElements()), m.size());
        ASSERT_EQ(std::memcmp(keys.Data<float>(), m.data(),
                              m.size() * sizeof(float)),
                  0);
    }
}

TEST(PagedKvCacheDeathTest, RetiredSlotAccessPanics)
{
    BatchedKvCache cache(1, 4, 1);
    Tensor k = Tensor::Full({1, 4}, 1.0f);
    Tensor v = Tensor::Full({1, 4}, 2.0f);
    cache.Append(0, 0, k, v);
    cache.RetireSequence(0);
    EXPECT_DEATH(cache.Append(0, 0, k, v), "CHECK failed");
    EXPECT_DEATH(cache.SeqLen(0), "CHECK failed");
}

// ------------------------------------------------- fused paged attention

/** Builds a ragged multi-sequence paged cache plus stacked q for layer 0,
 *  returning everything PagedCausalAttention needs. */
struct AttentionScenario {
    BatchedKvCache cache;
    Tensor q;
    std::vector<int64_t> segments;
    std::vector<int> seqs;
    std::vector<int64_t> pos_offsets;
    int num_heads;
    int num_kv_heads;

    AttentionScenario(int num_heads_in, int num_kv_heads_in, int head_dim,
                      const std::vector<std::pair<int64_t, int64_t>>&
                          history_and_step,
                      uint64_t seed)
        : cache(1, static_cast<int64_t>(num_kv_heads_in) * head_dim, 0),
          num_heads(num_heads_in),
          num_kv_heads(num_kv_heads_in)
    {
        Rng rng(seed);
        const int64_t kv_dim =
            static_cast<int64_t>(num_kv_heads) * head_dim;
        segments.push_back(0);
        for (const auto& [history, step_rows] : history_and_step) {
            const int seq = cache.AddSequence();
            if (history > 0) {
                cache.Append(seq, 0, RandomTensor(rng, history, kv_dim),
                             RandomTensor(rng, history, kv_dim));
            }
            cache.Append(seq, 0, RandomTensor(rng, step_rows, kv_dim),
                         RandomTensor(rng, step_rows, kv_dim));
            seqs.push_back(seq);
            pos_offsets.push_back(history);
            segments.push_back(segments.back() + step_rows);
        }
        q = RandomTensor(rng, segments.back(),
                         static_cast<int64_t>(num_heads) * head_dim);
    }

    Tensor Run() const
    {
        return PagedCausalAttention(q, segments, seqs, pos_offsets, cache,
                                    /*layer=*/0, num_heads, num_kv_heads);
    }

    /** Each sequence attended alone, head by head, by CausalAttentionHead
     *  over its dense K/V history cut into runs of `page_size` positions
     *  (0 = one run holding the whole history): the output must not depend
     *  on the batch, the pool or the page size. */
    Tensor RunReference(int64_t page_size = 0) const
    {
        const int64_t cols = q.Cols();
        const int head_dim = static_cast<int>(cols / num_heads);
        const int heads_per_kv = num_heads / num_kv_heads;
        const int64_t kv_dim = cache.kv_dim();
        Tensor out({q.Rows(), cols}, DType::kF32);
        for (size_t i = 0; i + 1 < segments.size(); ++i) {
            const Tensor keys = cache.Keys(seqs[i], 0);
            const Tensor values = cache.Values(seqs[i], 0);
            const int64_t run = page_size > 0 ? page_size : keys.Rows();
            const int64_t r0 = segments[i];
            for (int h = 0; h < num_heads; ++h) {
                const int64_t kv_off =
                    static_cast<int64_t>(h / heads_per_kv) * head_dim;
                std::vector<const float*> k_pages, v_pages;
                for (int64_t p = 0; p < keys.Rows(); p += run) {
                    k_pages.push_back(keys.Data<float>() + p * kv_dim +
                                      kv_off);
                    v_pages.push_back(values.Data<float>() + p * kv_dim +
                                      kv_off);
                }
                const int64_t q_off = static_cast<int64_t>(h) * head_dim;
                CausalAttentionHead(
                    q.Data<float>() + r0 * cols + q_off, cols,
                    segments[i + 1] - r0, pos_offsets[i],
                    KvHeadRows{k_pages.data(), v_pages.data(), run, kv_dim},
                    head_dim, out.Data<float>() + r0 * cols + q_off, cols);
            }
        }
        return out;
    }

    /**
     * Independent oracle: every score, softmax weight and output in
     * double, straight from the per-element definition. Also returns,
     * per output element, sum_j w_j * |v_j[d]| — the magnitude against
     * which the float result's rounding error is measured.
     */
    std::pair<std::vector<double>, std::vector<double>>
    RunDoubleReference() const
    {
        const int64_t cols = q.Cols();
        const int head_dim = static_cast<int>(cols / num_heads);
        const int heads_per_kv = num_heads / num_kv_heads;
        std::vector<double> out(static_cast<size_t>(q.NumElements()));
        std::vector<double> mag(out.size());
        for (size_t i = 0; i + 1 < segments.size(); ++i) {
            const Tensor keys = cache.Keys(seqs[i], 0);
            const Tensor values = cache.Values(seqs[i], 0);
            for (int64_t r = segments[i]; r < segments[i + 1]; ++r) {
                const int64_t visible = pos_offsets[i] + r - segments[i] + 1;
                for (int h = 0; h < num_heads; ++h) {
                    const int64_t kv_off =
                        static_cast<int64_t>(h / heads_per_kv) * head_dim;
                    std::vector<double> w(static_cast<size_t>(visible));
                    double mx = -1e300;
                    for (int64_t j = 0; j < visible; ++j) {
                        double dot = 0.0;
                        for (int d = 0; d < head_dim; ++d) {
                            dot += static_cast<double>(
                                       q.At(r, h * head_dim + d)) *
                                   keys.At(j, kv_off + d);
                        }
                        w[static_cast<size_t>(j)] =
                            dot / std::sqrt(static_cast<double>(head_dim));
                        mx = std::max(mx, w[static_cast<size_t>(j)]);
                    }
                    double sum = 0.0;
                    for (double& x : w) {
                        x = std::exp(x - mx);
                        sum += x;
                    }
                    for (int d = 0; d < head_dim; ++d) {
                        double acc = 0.0, abs_acc = 0.0;
                        for (int64_t j = 0; j < visible; ++j) {
                            const double vj = values.At(j, kv_off + d);
                            acc += w[static_cast<size_t>(j)] / sum * vj;
                            abs_acc +=
                                w[static_cast<size_t>(j)] / sum * std::abs(vj);
                        }
                        const size_t idx =
                            static_cast<size_t>(r * cols + h * head_dim + d);
                        out[idx] = acc;
                        mag[idx] = abs_acc;
                    }
                }
            }
        }
        return {out, mag};
    }
};

TEST(PagedAttentionTest, MatchesPerSequenceReferenceBitwise)
{
    // Ragged mix of fresh prefill, chunked prefill and decode, with GQA
    // (4 heads over 2 KV heads): the prefills cross a page edge, one
    // decode row opens a page and one fills the last slot of one.
    AttentionScenario scenario(
        /*num_heads=*/4, /*num_kv_heads=*/2, /*head_dim=*/16,
        {{0, 21}, {31, 3}, {48, 1}, {15, 1}}, /*seed=*/23);
    EXPECT_TRUE(BitwiseEqual(scenario.Run(), scenario.RunReference()));
}

TEST(PagedAttentionTest, MhaAndMqaLayoutsMatchReference)
{
    AttentionScenario mha(/*num_heads=*/4, /*num_kv_heads=*/4,
                          /*head_dim=*/8, {{41, 2}, {0, 18}}, /*seed=*/31);
    EXPECT_TRUE(BitwiseEqual(mha.Run(), mha.RunReference()));
    AttentionScenario mqa(/*num_heads=*/4, /*num_kv_heads=*/1,
                          /*head_dim=*/8, {{16, 16}, {65, 1}}, /*seed=*/37);
    EXPECT_TRUE(BitwiseEqual(mqa.Run(), mqa.RunReference()));
}

TEST(PagedAttentionTest, BitwiseDeterministicAcrossThreadCounts)
{
    AttentionScenario scenario(
        /*num_heads=*/8, /*num_kv_heads=*/4, /*head_dim=*/16,
        {{0, 48}, {84, 1}, {20, 28}, {132, 1}, {8, 8}}, /*seed=*/41);
    Tensor at1, at2, at4;
    {
        ScopedNumThreads threads(1);
        at1 = scenario.Run();
    }
    {
        ScopedNumThreads threads(2);
        at2 = scenario.Run();
    }
    {
        ScopedNumThreads threads(4);
        at4 = scenario.Run();
    }
    EXPECT_TRUE(BitwiseEqual(at1, at2));
    EXPECT_TRUE(BitwiseEqual(at1, at4));
    EXPECT_TRUE(BitwiseEqual(at1, scenario.RunReference()));
}

TEST(PagedAttentionTest, MatchesDoubleOracleAcrossShapes)
{
    // The per-sequence reference runs the same kernel, so comparing with
    // it cannot catch a wrong kernel; this checks it against the double
    // oracle. head_dim covers the scalar-only, vector-plus-tail and
    // full-vector cases; the 7- and 5-row prefill segments are not
    // multiples of the query row block, and the second crosses a page
    // edge. Output is also bitwise equal at 1, 2 and 4 threads and to each
    // sequence attended alone over runs of 1 position (every position its
    // own run), 3 positions and the whole history.
    for (const int head_dim : {4, 12, 20, 32, 128}) {
        SCOPED_TRACE(::testing::Message() << "head_dim=" << head_dim);
        AttentionScenario scenario(
            /*num_heads=*/4, /*num_kv_heads=*/2, head_dim,
            {{0, 7}, {13, 5}, {30, 1}, {2, 2}},
            /*seed=*/53 + static_cast<uint64_t>(head_dim));
        Tensor at1, at2, at4;
        {
            ScopedNumThreads threads(1);
            at1 = scenario.Run();
        }
        {
            ScopedNumThreads threads(2);
            at2 = scenario.Run();
        }
        {
            ScopedNumThreads threads(4);
            at4 = scenario.Run();
        }
        EXPECT_TRUE(BitwiseEqual(at1, at2));
        EXPECT_TRUE(BitwiseEqual(at1, at4));
        for (const int64_t page_size : {0, 1, 3}) {
            EXPECT_TRUE(BitwiseEqual(at1, scenario.RunReference(page_size)))
                << "page_size=" << page_size;
        }

        const auto [ref, mag] = scenario.RunDoubleReference();
        const float* got = at1.Data<float>();
        int bad = 0;
        for (size_t e = 0; e < ref.size(); ++e) {
            if (std::abs(got[e] - ref[e]) > 1e-5 * mag[e]) {
                ++bad;
            }
        }
        EXPECT_EQ(bad, 0);
    }
}

TEST(AttentionTest, SingleTokenAttendsToItself)
{
    Rng rng(8);
    Tensor q = RandomTensor(rng, 1, 8);
    Tensor v = RandomTensor(rng, 1, 8);
    BatchedKvCache cache(1, 8);
    const int seq = cache.AddSequence();
    cache.Append(seq, 0, /*k=*/q, v);
    Tensor out = PagedCausalAttention(q, {0, 1}, {seq}, {0}, cache,
                                      /*layer=*/0, 1, 1);
    EXPECT_LT(MaxAbsDiff(out, v), 1e-5);
}

TEST(AttentionTest, CausalMaskBlocksFuture)
{
    // Token 0 must not see token 1: its output is exactly v[0].
    Rng rng(9);
    Tensor q = RandomTensor(rng, 2, 8);
    Tensor k = RandomTensor(rng, 2, 8);
    Tensor v = RandomTensor(rng, 2, 8);
    BatchedKvCache cache(1, 8);
    const int seq = cache.AddSequence();
    cache.Append(seq, 0, k, v);
    Tensor out = PagedCausalAttention(q, {0, 2}, {seq}, {0}, cache,
                                      /*layer=*/0, 1, 1);
    EXPECT_LT(MaxAbsDiff(out.CopyRows(0, 1), v.CopyRows(0, 1)), 1e-5);
}

TEST(AttentionTest, GqaSharesKvHeads)
{
    // With 2 q-heads per kv-head, duplicated q-head content yields
    // identical per-head outputs.
    Rng rng(10);
    Tensor q({1, 16}, DType::kF32);
    Tensor head = RandomTensor(rng, 1, 8);
    for (int64_t d = 0; d < 8; ++d) {
        q.At(0, d) = head.At(0, d);
        q.At(0, 8 + d) = head.At(0, d);
    }
    Tensor k = RandomTensor(rng, 1, 8);
    Tensor v = RandomTensor(rng, 1, 8);
    BatchedKvCache cache(1, 8);
    const int seq = cache.AddSequence();
    cache.Append(seq, 0, k, v);
    Tensor out = PagedCausalAttention(q, {0, 1}, {seq}, {0}, cache,
                                      /*layer=*/0, 2, 1);
    EXPECT_LT(MaxAbsDiff(out.CopyRows(0, 1).Reshape({2, 8}).CopyRows(0, 1),
                         out.CopyRows(0, 1).Reshape({2, 8}).CopyRows(1, 1)),
              1e-5);
}

/** The §3.2 exactness property, parameterized over chunk lengths: chunked
 *  prefill, each chunk appending its K/V to the cache and attending to
 *  everything cached so far, equals full-prompt attention bit for bit. */
class ChunkedAttentionTest : public ::testing::TestWithParam<int>
{};

TEST_P(ChunkedAttentionTest, ChunkedEqualsFull)
{
    const int chunk = GetParam();
    const int seq = 40, heads = 2, kv_heads = 1, head_dim = 8;
    Rng rng(42);
    Tensor q = RandomTensor(rng, seq, heads * head_dim);
    Tensor k = RandomTensor(rng, seq, kv_heads * head_dim);
    Tensor v = RandomTensor(rng, seq, kv_heads * head_dim);

    BatchedKvCache full_cache(1, kv_heads * head_dim);
    const int full_seq = full_cache.AddSequence();
    full_cache.Append(full_seq, 0, k, v);
    Tensor full = PagedCausalAttention(q, {0, seq}, {full_seq}, {0},
                                       full_cache, /*layer=*/0, heads,
                                       kv_heads);

    // 40 positions cross two page edges; the chunk lengths below make
    // chunks start and end inside pages (3, 7, 24) and on page edges (16).
    BatchedKvCache cache(1, kv_heads * head_dim, 0);
    const int chunked_seq = cache.AddSequence();
    for (int start = 0; start < seq; start += chunk) {
        const int len = std::min(chunk, seq - start);
        cache.Append(chunked_seq, 0, k.CopyRows(start, len),
                     v.CopyRows(start, len));
        Tensor out = PagedCausalAttention(q.CopyRows(start, len), {0, len},
                                          {chunked_seq}, {start}, cache,
                                          /*layer=*/0, heads, kv_heads);
        EXPECT_TRUE(out.BitEquals(full.CopyRows(start, len)))
            << "chunk=" << chunk << " start=" << start;
    }
}

INSTANTIATE_TEST_SUITE_P(ChunkLens, ChunkedAttentionTest,
                         ::testing::Values(1, 3, 7, 16, 24, 40));

// ----------------------------------------- B=64 ragged batch, end to end

class PagedForwardTest : public TinyModelTest
{};

TEST_F(PagedForwardTest, B64RaggedBatchMatchesSequentialBitwise)
{
    const int kBatch = 64;
    const int vocab = tiny_.config.vocab_size;
    Fp32LinearExecutor linears(tiny_.weights);

    // Ragged prefill (1..4 tokens per sequence) then two full-width decode
    // steps: the m=64 stacked matmul plus 64*heads attention tiles.
    std::vector<std::vector<std::vector<int>>> groups(kBatch);
    std::vector<int> cursor(kBatch, 0);
    BatchedKvCache cache = tiny_.model.MakeBatchedCache();
    std::vector<std::vector<float>> batched_rows(kBatch);
    for (int step = 0; step < 3; ++step) {
        std::vector<BatchSeq> batch;
        for (int s = 0; s < kBatch; ++s) {
            const int count = step == 0 ? 1 + s % 4 : 1;
            std::vector<int> tokens;
            for (int i = 0; i < count; ++i) {
                tokens.push_back(TestTokenAt(s, cursor[s]++, vocab));
            }
            groups[s].push_back(tokens);
            if (step == 0) {
                batch.push_back({cache.AddSequence(), std::move(tokens)});
            } else {
                batch.push_back({s, std::move(tokens)});
            }
        }
        Tensor hidden = tiny_.model.ForwardBatch(batch, cache, linears);
        int64_t row = 0;
        for (int s = 0; s < kBatch; ++s) {
            const int64_t rows =
                static_cast<int64_t>(batch[static_cast<size_t>(s)]
                                         .tokens.size());
            Tensor h = hidden.CopyRows(row, rows);
            batched_rows[static_cast<size_t>(s)].insert(
                batched_rows[static_cast<size_t>(s)].end(),
                h.Data<float>(), h.Data<float>() + h.NumElements());
            row += rows;
        }
    }

    for (int s = 0; s < kBatch; ++s) {
        BatchedKvCache solo = tiny_.model.MakeCache();
        std::vector<float> ref;
        for (const std::vector<int>& tokens :
             groups[static_cast<size_t>(s)]) {
            Tensor h = tiny_.model.Forward(tokens, solo, linears);
            ref.insert(ref.end(), h.Data<float>(),
                       h.Data<float>() + h.NumElements());
        }
        ASSERT_EQ(ref.size(), batched_rows[static_cast<size_t>(s)].size());
        ASSERT_EQ(std::memcmp(ref.data(),
                              batched_rows[static_cast<size_t>(s)].data(),
                              ref.size() * sizeof(float)),
                  0)
            << "sequence " << s
            << ": B=64 batched hidden states differ from sequential";
    }
}

// ------------------------------------- serving: KV admission and eviction

class PagedServingTest : public PaperDeviceTest
{
  protected:
    ServingResult
    RunBounded(int64_t pool_pages, int num_requests, double rate_rps,
               std::vector<DatasetProfile> mix = {PersonaChatProfile()})
    {
        LlmNpuEngine engine;
        ServingCostModel costs(engine, qwen_, soc_);
        ServingOptions options;
        options.num_requests = num_requests;
        options.rate_rps = rate_rps;
        options.seed = 9;
        options.kv_pool_pages = pool_pages;
        return ServingSimulator(costs, std::move(mix), options).Run();
    }
};

TEST_F(PagedServingTest, BoundedPoolNeverExceedsBudgetAndCompletes)
{
    const ServingResult result = RunBounded(/*pool_pages=*/90,
                                            /*num_requests=*/12,
                                            /*rate_rps=*/50.0);
    EXPECT_EQ(result.rejected, 0);  // PersonaChat demand fits 90 pages
    EXPECT_LE(result.kv_pages_peak, 90);
    EXPECT_GT(result.kv_pages_peak, 0);
    EXPECT_GT(result.kv_pages_mean, 0.0);
    EXPECT_LE(result.kv_pages_mean,
              static_cast<double>(result.kv_pages_peak));
    for (const RequestRecord& record : result.records) {
        EXPECT_TRUE(record.Completed()) << "request " << record.request.id;
    }
}

TEST_F(PagedServingTest, EvictionThenReadmitReplaysBitwise)
{
    // Shrink the pool until decode growth forces evictions (deterministic
    // per seed, so the chosen size is stable once found).
    ServingResult result;
    bool found = false;
    for (int64_t pool : {70, 60, 50, 45, 42}) {
        result = RunBounded(pool, /*num_requests=*/10, /*rate_rps=*/100.0);
        if (result.evictions > 0) {
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found) << "no pool size under test produced an eviction";
    for (const RequestRecord& record : result.records) {
        if (!record.rejected) {
            EXPECT_TRUE(record.Completed());
        }
    }

    // The eviction's recompute must be invisible to the numeric plane: the
    // replayed trace (pages released, prefill re-run from chunk 0) is
    // bitwise identical to the uninterrupted solo run of every sequence.
    const TinyModelContext& tiny = SharedTinyModel();
    Fp32LinearExecutor linears(tiny.weights);
    const ReplayOutcome outcome = ReplayServingTrace(
        result.replay_steps, result.records, tiny.model, linears);
    EXPECT_TRUE(outcome.bitwise_match) << outcome.first_mismatch;
    EXPECT_GT(outcome.prefill_steps, 0);
}

TEST_F(PagedServingTest, OversizedRequestsAreRejectedNotStarved)
{
    // 10 pages * 16 positions = 160 positions: every PersonaChat request
    // (prompt >= 488) is rejected at arrival; the run still terminates and
    // reports well-defined (finite, non-NaN) aggregates.
    const ServingResult result = RunBounded(/*pool_pages=*/10,
                                            /*num_requests=*/6,
                                            /*rate_rps=*/20.0);
    EXPECT_EQ(result.rejected, 6);
    EXPECT_EQ(result.kv_pages_peak, 0);

    const ServingReport report = result.Report();
    EXPECT_EQ(report.admitted, 0);
    EXPECT_EQ(report.rejected, 6);
    EXPECT_EQ(report.completed, 0);
    const double fields[] = {
        report.throughput_rps, report.goodput_rps,  report.slo_attainment,
        report.ttft_p50_ms,    report.ttft_p95_ms,  report.ttft_p99_ms,
        report.e2e_p50_ms,     report.e2e_p95_ms,   report.e2e_p99_ms,
        report.tpot_mean_ms,   report.queueing_mean_ms,
        report.npu_utilization, report.decode_utilization,
        report.decode_tokens_per_sec, report.kv_pages_mean,
    };
    for (double f : fields) {
        EXPECT_TRUE(std::isfinite(f)) << report.Summary();
        EXPECT_EQ(f, 0.0);
    }
    EXPECT_FALSE(report.Summary().empty());
}

TEST_F(PagedServingTest, ClosedLoopAllRejectedStillTerminates)
{
    LlmNpuEngine engine;
    ServingCostModel costs(engine, qwen_, soc_);
    ServingOptions options;
    options.closed_loop = true;
    options.num_clients = 3;
    options.think_time_ms = 5.0;
    options.num_requests = 9;
    options.seed = 5;
    options.kv_pool_pages = 4;  // nothing fits
    const ServingResult result =
        ServingSimulator(costs, {PersonaChatProfile()}, options).Run();
    EXPECT_EQ(result.rejected, 9);  // every client retried to the cap
    EXPECT_EQ(static_cast<int>(result.records.size()), 9);
}

// ------------------------------------ serving: shared-system-prompt plane

/** Fixed-shape profile so the page arithmetic below is exact. */
DatasetProfile
FixedProfile(int prompt, int output)
{
    DatasetProfile profile;
    profile.name = "fixed";
    profile.application = "test";
    profile.prompt_min = prompt;
    profile.prompt_max = prompt;
    profile.output_min = output;
    profile.output_max = output;
    return profile;
}

TEST_F(PagedServingTest, SharedPrefixChargedOnceAcrossConcurrentSharers)
{
    LlmNpuEngine engine;
    ServingCostModel costs(engine, qwen_, soc_);
    ServingOptions options;
    options.num_requests = 6;
    options.rate_rps = 200.0;
    options.seed = 9;
    // prefix 48 tokens = 3 pages; private side = pages(32 + 8) = 3 pages.
    // 9 pages hold the prefix plus TWO full private sides only because
    // the prefix is charged once — double-charging would need 12.
    options.kv_pool_pages = 9;
    options.shared_prefix.prefix_len = 48;
    options.shared_prefix.share_fraction = 1.0;
    const ServingResult result =
        ServingSimulator(costs, {FixedProfile(80, 8)}, options).Run();
    EXPECT_EQ(result.rejected, 0);  // whole once-counted demand 6 <= 9
    EXPECT_EQ(result.shared_requests, 6);
    EXPECT_EQ(result.shared_prefix_pages, 3);
    EXPECT_LE(result.kv_pages_peak, 9);
    EXPECT_GE(result.shared_prefix_refs_peak, 2);  // concurrent sharers
    EXPECT_GE(result.shared_prefix_materializations, 1);
    EXPECT_EQ(result.shared_prefix_materializations,
              result.shared_prefix_drops);  // fully released at the end
    for (const RequestRecord& record : result.records) {
        EXPECT_TRUE(record.Completed()) << "request " << record.request.id;
    }
}

TEST_F(PagedServingTest, EvictionWithResidentPrefixStaysWithinBudget)
{
    LlmNpuEngine engine;
    ServingCostModel costs(engine, qwen_, soc_);
    ServingOptions options;
    options.num_requests = 8;
    options.rate_rps = 300.0;
    options.seed = 9;
    options.shared_prefix.prefix_len = 48;
    options.shared_prefix.share_fraction = 1.0;
    // Shrink until decode growth forces evictions while sharers hold the
    // prefix; eviction must pick private-page victims first and the pool
    // must never overshoot (a double-free of shared pages would let it).
    ServingResult result;
    bool found = false;
    for (int64_t pool : {9, 8, 7, 6}) {
        options.kv_pool_pages = pool;
        result = ServingSimulator(costs, {FixedProfile(80, 8)}, options)
                     .Run();
        EXPECT_LE(result.kv_pages_peak, pool);
        EXPECT_EQ(result.shared_prefix_materializations,
                  result.shared_prefix_drops);
        if (result.evictions > 0) {
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found) << "no pool size under test produced an eviction";
    EXPECT_GT(result.shared_requests, 0);
    for (const RequestRecord& record : result.records) {
        if (!record.rejected && !record.shed) {
            EXPECT_TRUE(record.Completed())
                << "request " << record.request.id;
        }
    }
}

TEST(SharedPrefixWorkloadTest, FractionSweepsMarkNestedArrivalSets)
{
    const std::vector<DatasetProfile> mix = {PersonaChatProfile()};
    const auto lo = GeneratePoissonArrivals(
        mix, 5.0, 40, 7, SharedPrefixOptions{/*prefix_len=*/16, 0.3});
    const auto hi = GeneratePoissonArrivals(
        mix, 5.0, 40, 7, SharedPrefixOptions{/*prefix_len=*/16, 0.8});
    ASSERT_EQ(lo.size(), hi.size());
    int lo_marked = 0;
    int hi_marked = 0;
    for (size_t i = 0; i < lo.size(); ++i) {
        // The share draw never perturbs the stream itself...
        EXPECT_EQ(lo[i].arrival_ms, hi[i].arrival_ms);
        EXPECT_EQ(lo[i].request.prompt_len, hi[i].request.prompt_len);
        EXPECT_EQ(lo[i].request.output_len, hi[i].request.output_len);
        // ...and marks nested sets: every 0.3-marked arrival is 0.8-marked.
        if (lo[i].shared_prefix_len > 0) {
            ++lo_marked;
            EXPECT_EQ(hi[i].shared_prefix_len, 16);
        }
        if (hi[i].shared_prefix_len > 0) ++hi_marked;
    }
    EXPECT_GT(lo_marked, 0);
    EXPECT_GT(hi_marked, lo_marked);
    // prefix_len == 0 draws nothing: bit-identical to the legacy stream.
    const auto legacy = GeneratePoissonArrivals(mix, 5.0, 40, 7);
    const auto off = GeneratePoissonArrivals(
        mix, 5.0, 40, 7, SharedPrefixOptions{/*prefix_len=*/0, 0.5});
    ASSERT_EQ(off.size(), legacy.size());
    for (size_t i = 0; i < legacy.size(); ++i) {
        EXPECT_EQ(off[i].arrival_ms, legacy[i].arrival_ms);
        EXPECT_EQ(off[i].request.prompt_len, legacy[i].request.prompt_len);
        EXPECT_EQ(off[i].shared_prefix_len, 0);
    }
}

TEST_F(PagedServingTest, SharedPrefixScheduleReplaysBitwiseThroughCow)
{
    LlmNpuEngine engine;
    ServingCostModel costs(engine, qwen_, soc_);
    ServingOptions options;
    options.num_requests = 8;
    options.rate_rps = 100.0;
    options.seed = 21;
    options.kv_pool_pages = 16;
    options.shared_prefix.prefix_len = 16;
    options.shared_prefix.share_fraction = 0.75;
    const ServingResult result =
        ServingSimulator(costs, {FixedProfile(56, 6)}, options).Run();
    ASSERT_GT(result.shared_requests, 0);

    const TinyModelContext& tiny = SharedTinyModel();
    Fp32LinearExecutor linears(tiny.weights);
    ReplayOptions ropts;
    // Replayed prefix = min(16, 10) = 10 tokens: NOT page-aligned, so
    // every fork shares the template's partial frontier page and the
    // first suffix write copy-on-writes it mid-stream.
    ropts.max_prompt_tokens = 10;
    const ReplayOutcome outcome = ReplayServingTrace(
        result.replay_steps, result.records, tiny.model, linears, ropts);
    EXPECT_TRUE(outcome.bitwise_match) << outcome.first_mismatch;
    EXPECT_GT(outcome.shared_prefix_forks, 0);
    EXPECT_GT(outcome.cow_page_clones, 0);
    EXPECT_GT(outcome.prefill_steps, 0);
}

// ----------------------------------------------- serving: the KV ledger

TEST(KvLedgerTest, RandomOpsKeepPagesConservedAndPrefixChargedOnce)
{
    // A seeded mix of reserve / grow / release / shrink, with sharers
    // taking and dropping the prefix, checked against a plain model after
    // every op. Reserve and grow are only attempted when they fit, as the
    // simulator's dispatch gate and eviction loop guarantee.
    constexpr int kRequests = 8;
    constexpr int64_t kPrefixLen = 3 * kKvPageSize;
    constexpr int64_t kBudget = 160;
    KvLedger ledger(kRequests, kBudget, kPrefixLen);
    std::vector<ServingRequest> requests(kRequests);
    for (int id = 0; id < kRequests; ++id) {
        requests[static_cast<size_t>(id)].id = id;
        requests[static_cast<size_t>(id)].prompt_len = 70 + 29 * id;
        requests[static_cast<size_t>(id)].output_len = 20;
        requests[static_cast<size_t>(id)].shared_prefix_len =
            id % 2 == 0 ? static_cast<int>(kPrefixLen) : 0;
    }
    const int64_t prefix_pages = ledger.prefix_pages();
    ASSERT_EQ(prefix_pages, 3);

    std::vector<int64_t> held(kRequests, 0);
    std::set<int> holders;
    int materializations = 0;
    int drops = 0;
    int64_t last_peak = 0;
    bool shrunk = false;
    Rng rng(0x1ed9e7);
    for (int op = 0; op < 300; ++op) {
        const int id = static_cast<int>(rng.UniformInt(kRequests));
        const ServingRequest& request = requests[static_cast<size_t>(id)];
        const bool sharer = request.shared_prefix_len > 0;
        const int kind = static_cast<int>(rng.UniformInt(uint64_t{10}));
        const int64_t used_before = ledger.used();
        if (kind < 4 && held[static_cast<size_t>(id)] == 0) {
            const int64_t charge = ledger.ReserveCharge(request);
            EXPECT_EQ(charge, KvPagesFor(request.PrivatePromptLen()) +
                                  (sharer && holders.empty() ? prefix_pages
                                                             : 0));
            if (charge > ledger.free()) continue;
            ledger.Reserve(request, op);
            held[static_cast<size_t>(id)] =
                KvPagesFor(request.PrivatePromptLen());
            if (sharer) {
                if (holders.empty()) ++materializations;
                holders.insert(id);
            }
            // The prefix is charged only by the reservation that
            // materializes it.
            EXPECT_EQ(ledger.used() - used_before, charge);
        } else if (kind < 7 && held[static_cast<size_t>(id)] > 0) {
            const int64_t pages = rng.UniformInt(int64_t{1}, int64_t{3});
            if (pages > ledger.free()) continue;
            ledger.Grow(id, pages, op);
            held[static_cast<size_t>(id)] += pages;
        } else if (kind < 9) {
            ledger.Release(id, op);
            held[static_cast<size_t>(id)] = 0;
            if (holders.erase(id) == 1 && holders.empty()) ++drops;
        } else if (!shrunk && op > 150) {
            ledger.Shrink(kBudget / 2);
            for (int victim = kRequests - 1; ledger.free() < 0; --victim) {
                ledger.Release(victim, op);
                held[static_cast<size_t>(victim)] = 0;
                if (holders.erase(victim) == 1 && holders.empty()) ++drops;
            }
            ledger.SettleShrink();
            shrunk = true;
        }

        int64_t sum_held = 0;
        for (int r = 0; r < kRequests; ++r) {
            EXPECT_EQ(ledger.held(r), held[static_cast<size_t>(r)]);
            EXPECT_EQ(ledger.holds_prefix(r), holders.count(r) == 1);
            sum_held += held[static_cast<size_t>(r)];
        }
        ASSERT_EQ(ledger.used(),
                  sum_held + (holders.empty() ? 0 : prefix_pages))
            << "op " << op;
        EXPECT_EQ(ledger.prefix_holders(), static_cast<int>(holders.size()));
        EXPECT_EQ(ledger.free(), ledger.live_budget() - ledger.used());
        EXPECT_GE(ledger.peak(), last_peak);
        EXPECT_GE(ledger.peak(), ledger.used());
        last_peak = ledger.peak();
        if (shrunk) {
            EXPECT_LE(ledger.post_shrink_peak(), ledger.live_budget());
        }
        EXPECT_EQ(ledger.materializations(), materializations);
        EXPECT_EQ(ledger.drops(), drops);
    }
    EXPECT_TRUE(shrunk);
    EXPECT_GT(materializations, 1);  // the prefix was dropped and rebuilt
    EXPECT_GE(ledger.refs_peak(), 2);
}

TEST(KvLedgerTest, ChargesCountTheResidentPrefixOnce)
{
    KvLedger ledger(/*num_requests=*/2, /*budget_pages=*/0,
                    /*prefix_len=*/32);
    ServingRequest a;
    a.id = 0;
    a.prompt_len = 32 + 40;  // 3 private prompt pages
    a.output_len = 10;       // 4 private pages with the output
    a.shared_prefix_len = 32;
    ServingRequest b = a;
    b.id = 1;
    EXPECT_FALSE(ledger.bounded());
    EXPECT_EQ(ledger.Demand(a), 4 + 2);
    EXPECT_EQ(ledger.AdmissionCharge(a), 4 + 2);
    EXPECT_EQ(ledger.ReserveCharge(a), 3 + 2);
    ledger.Reserve(a, 0.0);
    EXPECT_EQ(ledger.used(), 5);
    // With the prefix resident, a second sharer pays its private pages
    // only; its whole demand still counts the prefix.
    EXPECT_EQ(ledger.AdmissionCharge(b), 4);
    EXPECT_EQ(ledger.ReserveCharge(b), 3);
    EXPECT_EQ(ledger.Demand(b), 6);
    EXPECT_TRUE(ledger.DropsPrefix(a.id));  // the only referencer
    ledger.Reserve(b, 1.0);
    EXPECT_FALSE(ledger.DropsPrefix(a.id));
    EXPECT_EQ(ledger.used(), 8);
    EXPECT_EQ(ledger.Shortfall(b, /*tokens_out=*/8), 0);
    EXPECT_EQ(ledger.Shortfall(b, /*tokens_out=*/9), 1);
    ledger.Release(a.id, 2.0);
    EXPECT_TRUE(ledger.DropsPrefix(b.id));
    ledger.Release(b.id, 3.0);
    EXPECT_EQ(ledger.used(), 0);
    EXPECT_EQ(ledger.peak(), 8);
    EXPECT_EQ(ledger.materializations(), 1);
    EXPECT_EQ(ledger.drops(), 1);
    EXPECT_EQ(ledger.refs_peak(), 2);
}

TEST(KvLedgerTest, BoundedBudgetGatesReserveAndDecodeGrowth)
{
    // The KV budget the simulator enforces: a request's first reservation
    // and each page its decode spills into are checked against free().
    KvLedger ledger(/*num_requests=*/1, /*budget_pages=*/2,
                    /*prefix_len=*/0);
    ServingRequest r;
    r.id = 0;
    r.prompt_len = static_cast<int>(kKvPageSize);  // one prompt page
    r.output_len = static_cast<int>(2 * kKvPageSize);
    EXPECT_TRUE(ledger.bounded());
    EXPECT_EQ(ledger.Demand(r), 3);  // over the budget through its end
    EXPECT_EQ(ledger.ReserveCharge(r), 1);
    ASSERT_LE(ledger.ReserveCharge(r), ledger.free());
    ledger.Reserve(r, 0.0);
    EXPECT_EQ(ledger.free(), 1);

    // Sixteen tokens out fill exactly the budget; the seventeenth would
    // need a third page.
    EXPECT_EQ(ledger.Shortfall(r, 0), 0);
    EXPECT_EQ(ledger.Shortfall(r, static_cast<int>(kKvPageSize)), 1);
    EXPECT_LE(ledger.Shortfall(r, static_cast<int>(kKvPageSize)),
              ledger.free());
    EXPECT_GT(ledger.Shortfall(r, static_cast<int>(kKvPageSize) + 1),
              ledger.free());
    ledger.Grow(r.id, 1, 1.0);
    EXPECT_EQ(ledger.free(), 0);
    EXPECT_EQ(ledger.held(r.id), 2);
    EXPECT_EQ(ledger.Shortfall(r, static_cast<int>(kKvPageSize)), 0);

    // A shrink below usage leaves free() negative until the caller evicts.
    ledger.Shrink(1);
    EXPECT_EQ(ledger.live_budget(), 1);
    EXPECT_EQ(ledger.free(), -1);
    ledger.Release(r.id, 2.0);
    EXPECT_EQ(ledger.free(), 1);
    EXPECT_EQ(ledger.peak(), 2);
}

TEST_F(PagedServingTest, ConcurrentRunsKeepPerRunKvAccounting)
{
    // KV peak and eviction counts are per-run state: a bounded and an
    // unbounded simulation on two threads must each reproduce their
    // sequential result exactly, golden hash included.
    const ServingResult bounded = RunBounded(90, 40, 50.0);
    const ServingResult unbounded = RunBounded(0, 40, 50.0);
    ASSERT_LE(bounded.kv_pages_peak, 90);
    ASSERT_GT(unbounded.kv_pages_peak, 90);
    for (int iteration = 0; iteration < 20; ++iteration) {
        ServingResult a;
        ServingResult b;
        std::thread first([&] { a = RunBounded(90, 40, 50.0); });
        std::thread second([&] { b = RunBounded(0, 40, 50.0); });
        first.join();
        second.join();
        EXPECT_EQ(a.kv_pages_peak, bounded.kv_pages_peak) << iteration;
        EXPECT_EQ(a.evictions, bounded.evictions) << iteration;
        EXPECT_EQ(ScheduleHash(a), ScheduleHash(bounded)) << iteration;
        EXPECT_EQ(b.kv_pages_peak, unbounded.kv_pages_peak) << iteration;
        EXPECT_EQ(b.evictions, unbounded.evictions) << iteration;
        EXPECT_EQ(ScheduleHash(b), ScheduleHash(unbounded)) << iteration;
    }
}

// ----------------------------------------------- empty-input bug guards

TEST(StatsTest, PercentileOfEmptySampleIsZeroNotNan)
{
    EXPECT_EQ(Percentile({}, 50.0), 0.0);
    EXPECT_EQ(Percentile({}, 99.0), 0.0);
    EXPECT_EQ(Percentile({7.0}, 50.0), 7.0);
}

TEST(StatsTest, EmptyRecordSetBuildsAllZeroReport)
{
    const ServingReport report = BuildReport({}, 0.0, 0.0, 0.0, 0);
    EXPECT_EQ(report.admitted, 0);
    EXPECT_EQ(report.completed, 0);
    EXPECT_TRUE(std::isfinite(report.ttft_p99_ms));
    EXPECT_EQ(report.throughput_rps, 0.0);
    EXPECT_EQ(report.slo_attainment, 0.0);
}

TEST(ConfigValidateDeathTest, TruncatingHeadDimFailsLoudly)
{
    ModelConfig bad = TinyTestConfig();
    bad.hidden_size = 100;
    bad.num_heads = 3;  // 100 / 3 truncates: head_dim can't be exact
    EXPECT_DEATH(GenerateSyntheticWeights(bad), "CHECK failed");
}

TEST(ConfigValidateDeathTest, MismatchedHeadDimFailsLoudly)
{
    ModelConfig bad = TinyTestConfig();
    bad.head_dim = 8;  // hidden 64 / 4 heads = 16, not 8
    EXPECT_DEATH(GenerateSyntheticWeights(bad), "CHECK failed");
}

TEST(ConfigValidateDeathTest, RaggedGqaGroupsFailLoudly)
{
    ModelConfig bad = TinyTestConfig();
    bad.num_kv_heads = 3;  // 4 heads % 3 kv heads != 0
    EXPECT_DEATH(GenerateSyntheticWeights(bad), "CHECK failed");
}

TEST(ConfigValidateTest, PaperModelsAllValidate)
{
    for (const ModelConfig& config : PaperModels()) {
        config.Validate();  // must not panic
    }
    TinyTestConfig().Validate();
}

}  // namespace
}  // namespace llmnpu
