/**
 * @file
 * Paged KV subsystem tests (CTest label `paged-kv`).
 *
 * Covers the KvPagePool allocator (free-list reuse, bounded exhaustion,
 * refcounted prefix sharing, unbounded-headroom sentinel), the paged
 * BatchedKvCache (page-table reuse after retirement, CanAppend
 * backpressure — including pending copy-on-write clones — retired-slot
 * access, CoW fork-write divergence and randomized refcount accounting),
 * the shared-system-prompt serving scenario (once-counted admission,
 * eviction with a resident prefix, nested fraction marking, bitwise
 * replay through CoW forks), the fused PagedCausalAttention kernel
 * (bitwise equality to the per-sequence reference and 1/2/4-thread
 * determinism, and agreement with a double oracle across head_dim, page
 * size and query-row counts), B=64 ragged batched forward vs sequential,
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
#include "src/serving/kv_ledger.h"
#include "src/serving/replay.h"
#include "src/serving/simulator.h"
#include "src/tensor/ops.h"
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
    KvPagePool pool(2, 8, PagedKvOptions{/*page_size=*/4});
    const int64_t a = pool.AllocPage();
    const int64_t b = pool.AllocPage();
    const int64_t c = pool.AllocPage();
    EXPECT_EQ(pool.used_pages(), 3);
    EXPECT_EQ(pool.allocated_pages(), 3);

    pool.Release(a);
    pool.Release(c);
    EXPECT_EQ(pool.used_pages(), 1);
    // Unbounded pools grow on demand, so their headroom is unbounded —
    // the sentinel, not the current free-list length (which once made
    // CanAppend refuse appends an unbounded pool would have served).
    EXPECT_EQ(pool.free_pages(), kUnboundedFreePages);
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
    EXPECT_EQ(pool.CapacityBytes(), 3 * pool.PageBytes());
}

TEST(KvPagePoolTest, BoundedPoolExhaustsInsteadOfGrowing)
{
    KvPagePool pool(1, 4, PagedKvOptions{/*page_size=*/2, /*max_pages=*/2});
    EXPECT_EQ(pool.free_pages(), 2);
    const int64_t a = pool.AllocPage();
    const int64_t b = pool.AllocPage();
    ASSERT_GE(a, 0);
    ASSERT_GE(b, 0);
    EXPECT_EQ(pool.free_pages(), 0);
    EXPECT_EQ(pool.AllocPage(), -1);  // exhausted, never silent growth
    pool.Release(a);
    EXPECT_EQ(pool.free_pages(), 1);
    EXPECT_EQ(pool.AllocPage(), a);
}

TEST(KvPagePoolTest, RefcountedSharingKeepsPagesAlive)
{
    KvPagePool pool(1, 4, PagedKvOptions{/*page_size=*/2});
    const int64_t page = pool.AllocPage();
    pool.AddRef(page);
    EXPECT_EQ(pool.RefCount(page), 2);
    pool.Release(page);
    EXPECT_EQ(pool.RefCount(page), 1);  // still held by the other owner
    EXPECT_EQ(pool.used_pages(), 1);
    pool.Release(page);
    EXPECT_EQ(pool.used_pages(), 0);
}

// --------------------------------------------------- paged BatchedKvCache

TEST(PagedKvCacheTest, PageTableReuseAfterRetirement)
{
    BatchedKvCache cache(2, 8, 0, PagedKvOptions{/*page_size=*/4});
    const int a = cache.AddSequence();
    Tensor k = Tensor::Full({6, 8}, 1.0f);  // 6 positions -> 2 pages
    Tensor v = Tensor::Full({6, 8}, 2.0f);
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
    Tensor k2 = Tensor::Full({8, 8}, 3.0f);
    Tensor v2 = Tensor::Full({8, 8}, 4.0f);
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
    BatchedKvCache cache(1, 4, 0, PagedKvOptions{/*page_size=*/4});
    const int src = cache.AddSequence();
    Rng rng(11);
    Tensor k = RandomTensor(rng, 10, 4);  // 10 positions -> 3 pages
    Tensor v = RandomTensor(rng, 10, 4);
    cache.Append(src, 0, k, v);

    // Fork sharing the first 8 positions (= 2 whole pages).
    const int fork = cache.AddSequenceSharingPrefix(src, 8);
    EXPECT_EQ(cache.SeqLen(fork), 8);
    EXPECT_EQ(cache.PageTable(fork)[0], cache.PageTable(src)[0]);
    EXPECT_EQ(cache.PageTable(fork)[1], cache.PageTable(src)[1]);
    EXPECT_EQ(cache.pool().RefCount(cache.PageTable(src)[0]), 2);
    EXPECT_EQ(cache.pool().used_pages(), 3);  // shared pages counted once

    // The fork's continuation lands in its own fresh page; the source's
    // view of the shared prefix is untouched.
    Tensor k2 = RandomTensor(rng, 1, 4);
    Tensor v2 = RandomTensor(rng, 1, 4);
    cache.Append(fork, 0, k2, v2);
    EXPECT_EQ(cache.SeqLen(fork), 9);
    EXPECT_NE(cache.PageTable(fork)[2], cache.PageTable(src)[2]);
    Tensor src_keys = cache.Keys(src, 0);
    EXPECT_TRUE(BitwiseEqual(src_keys, k));

    // Retiring the source keeps the shared pages alive for the fork.
    cache.RetireSequence(src);
    EXPECT_EQ(cache.pool().RefCount(cache.PageTable(fork)[0]), 1);
    Tensor fork_keys = cache.Keys(fork, 0);
    EXPECT_EQ(fork_keys.Rows(), 9);
    EXPECT_EQ(std::memcmp(fork_keys.Data<float>(), k.Data<float>(),
                          8 * 4 * sizeof(float)),
              0);
}

TEST(PagedKvCacheTest, CanAppendReflectsPoolBudget)
{
    BatchedKvCache cache(1, 4, 0,
                         PagedKvOptions{/*page_size=*/4, /*max_pages=*/2});
    const int seq = cache.AddSequence();
    EXPECT_TRUE(cache.CanAppend(seq, 8));    // exactly the budget
    EXPECT_FALSE(cache.CanAppend(seq, 9));   // would need a third page
    Tensor k = Tensor::Full({5, 4}, 1.0f);
    Tensor v = Tensor::Full({5, 4}, 2.0f);
    cache.Append(seq, 0, k, v);
    EXPECT_TRUE(cache.CanAppend(seq, 3));    // fits the mapped pages
    EXPECT_FALSE(cache.CanAppend(seq, 4));   // spills past the budget
}

TEST(PagedKvCacheTest, CowForkWriteDivergenceIsBitwiseIsolated)
{
    // Non-aligned fork: the partially filled frontier page is shared too,
    // and the first write into it — from either side — copies the page
    // instead of dying on the old write-locked CHECK.
    BatchedKvCache cache(1, 4, 0, PagedKvOptions{/*page_size=*/4});
    const int src = cache.AddSequence();
    Rng rng(17);
    Tensor k = RandomTensor(rng, 10, 4);  // 10 positions -> 3 pages
    Tensor v = RandomTensor(rng, 10, 4);
    cache.Append(src, 0, k, v);

    const int fork = cache.AddSequenceSharingPrefix(src, 10);
    EXPECT_EQ(cache.SeqLen(fork), 10);
    EXPECT_EQ(cache.PageTable(fork)[2], cache.PageTable(src)[2]);
    EXPECT_EQ(cache.pool().used_pages(), 3);  // partial page shared once

    // Source writes first: it clones the frontier page, the fork keeps
    // the original.
    Tensor sk = RandomTensor(rng, 2, 4);
    Tensor sv = RandomTensor(rng, 2, 4);
    cache.Append(src, 0, sk, sv);
    EXPECT_EQ(cache.pool().cow_clones(), 1);
    EXPECT_NE(cache.PageTable(src)[2], cache.PageTable(fork)[2]);
    EXPECT_EQ(cache.pool().RefCount(cache.PageTable(fork)[2]), 1);

    // The fork now owns its frontier page alone — its write is in place.
    Tensor fk = RandomTensor(rng, 3, 4);
    Tensor fv = RandomTensor(rng, 3, 4);
    cache.Append(fork, 0, fk, fv);
    EXPECT_EQ(cache.pool().cow_clones(), 1);

    // A second fork off the grown source CoWs again on its first write.
    const int fork2 = cache.AddSequenceSharingPrefix(src, 10);
    Tensor gk = RandomTensor(rng, 1, 4);
    Tensor gv = RandomTensor(rng, 1, 4);
    cache.Append(fork2, 0, gk, gv);
    EXPECT_EQ(cache.pool().cow_clones(), 2);

    // Every view is bitwise what an independent sequence would hold.
    Tensor src_expect({12, 4}, DType::kF32);
    src_expect.PasteRows(k, 0);
    src_expect.PasteRows(sk, 10);
    EXPECT_TRUE(BitwiseEqual(cache.Keys(src, 0), src_expect));
    Tensor fork_expect({13, 4}, DType::kF32);
    fork_expect.PasteRows(k, 0);
    fork_expect.PasteRows(fk, 10);
    EXPECT_TRUE(BitwiseEqual(cache.Keys(fork, 0), fork_expect));
    Tensor fork2_expect({11, 4}, DType::kF32);
    fork2_expect.PasteRows(k, 0);
    fork2_expect.PasteRows(gk, 10);
    EXPECT_TRUE(BitwiseEqual(cache.Keys(fork2, 0), fork2_expect));
}

TEST(PagedKvCacheTest, CanAppendChargesPendingCowClones)
{
    BatchedKvCache cache(1, 4, 0,
                         PagedKvOptions{/*page_size=*/4, /*max_pages=*/3});
    const int src = cache.AddSequence();
    Tensor k = Tensor::Full({6, 4}, 1.0f);  // page 0 full, page 1 half
    Tensor v = Tensor::Full({6, 4}, 2.0f);
    cache.Append(src, 0, k, v);
    const int fork = cache.AddSequenceSharingPrefix(src, 6);
    // One free page left. A short append writes only the shared frontier
    // page — no new mapping, but the CoW copy takes the free page.
    EXPECT_TRUE(cache.CanAppend(fork, 1));
    EXPECT_TRUE(cache.CanAppend(fork, 2));
    // Three positions also map a fresh page past the frontier: clone +
    // new page = 2 > 1 free.
    EXPECT_FALSE(cache.CanAppend(fork, 3));
}

TEST(PagedKvCacheTest, RandomizedForkAppendRetireKeepsRefcountsExact)
{
    // Model check of the sharing accounting: after every operation, the
    // pool's used-page count equals the number of distinct pages mapped by
    // live sequences and each page's refcount equals the number of live
    // sequences mapping it. Slot storage starts empty so the run also
    // reallocates the internal sequence vector many times.
    const int64_t kv_dim = 4;
    BatchedKvCache cache(1, kv_dim, 0, PagedKvOptions{/*page_size=*/4});
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
            append_rows(s, 1 + static_cast<int>(rng.Next() % 6));
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
            append_rows(s, 1 + static_cast<int>(rng.Next() % 5));
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
    BatchedKvCache cache(1, 4, 1, PagedKvOptions{/*page_size=*/4});
    Tensor k = Tensor::Full({1, 4}, 1.0f);
    Tensor v = Tensor::Full({1, 4}, 2.0f);
    cache.Append(0, 0, k, v);
    cache.RetireSequence(0);
    EXPECT_DEATH(cache.Append(0, 0, k, v), "CHECK failed");
    EXPECT_DEATH(cache.SeqLen(0), "CHECK failed");
}

TEST(PagedKvCacheDeathTest, BoundedExhaustionOnAppendPanics)
{
    BatchedKvCache cache(1, 4, 1,
                         PagedKvOptions{/*page_size=*/2, /*max_pages=*/1});
    Tensor k = Tensor::Full({3, 4}, 1.0f);
    Tensor v = Tensor::Full({3, 4}, 2.0f);
    ASSERT_FALSE(cache.CanAppend(0, 3));
    EXPECT_DEATH(cache.Append(0, 0, k, v), "CHECK failed");
}

TEST(PagedKvCacheDeathTest, CowOnExhaustedBoundedPoolPanics)
{
    // Budget fully consumed by the shared pages: the append maps no new
    // page, but the CoW copy it needs has nowhere to go.
    BatchedKvCache cache(1, 4, 0,
                         PagedKvOptions{/*page_size=*/4, /*max_pages=*/2});
    const int src = cache.AddSequence();
    Tensor k = Tensor::Full({6, 4}, 1.0f);
    Tensor v = Tensor::Full({6, 4}, 2.0f);
    cache.Append(src, 0, k, v);
    const int fork = cache.AddSequenceSharingPrefix(src, 6);
    Tensor k1 = Tensor::Full({1, 4}, 3.0f);
    Tensor v1 = Tensor::Full({1, 4}, 4.0f);
    ASSERT_FALSE(cache.CanAppend(fork, 1));
    EXPECT_DEATH(cache.Append(fork, 0, k1, v1), "CHECK failed");
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
                      uint64_t seed, int64_t page_size = 4)
        : cache(1, static_cast<int64_t>(num_kv_heads_in) * head_dim, 0,
                PagedKvOptions{page_size}),
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

    /** The old per-sequence path: dense K/V materialization + the
     *  reference CausalAttention, pasted back segment by segment. */
    Tensor RunReference() const
    {
        Tensor out({q.Rows(), q.Cols()}, DType::kF32);
        for (size_t i = 0; i + 1 < segments.size(); ++i) {
            const int64_t r0 = segments[i];
            const int64_t rows = segments[i + 1] - r0;
            Tensor attn = CausalAttention(
                q.CopyRows(r0, rows), cache.Keys(seqs[i], 0),
                cache.Values(seqs[i], 0), num_heads, num_kv_heads,
                pos_offsets[i]);
            out.PasteRows(attn, r0);
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
    // (4 heads over 2 KV heads) and histories crossing page boundaries.
    AttentionScenario scenario(
        /*num_heads=*/4, /*num_kv_heads=*/2, /*head_dim=*/16,
        {{0, 5}, {7, 3}, {12, 1}, {3, 1}}, /*seed=*/23);
    EXPECT_TRUE(BitwiseEqual(scenario.Run(), scenario.RunReference()));
}

TEST(PagedAttentionTest, MhaAndMqaLayoutsMatchReference)
{
    AttentionScenario mha(/*num_heads=*/4, /*num_kv_heads=*/4,
                          /*head_dim=*/8, {{9, 2}, {0, 6}}, /*seed=*/31);
    EXPECT_TRUE(BitwiseEqual(mha.Run(), mha.RunReference()));
    AttentionScenario mqa(/*num_heads=*/4, /*num_kv_heads=*/1,
                          /*head_dim=*/8, {{4, 4}, {17, 1}}, /*seed=*/37);
    EXPECT_TRUE(BitwiseEqual(mqa.Run(), mqa.RunReference()));
}

TEST(PagedAttentionTest, BitwiseDeterministicAcrossThreadCounts)
{
    AttentionScenario scenario(
        /*num_heads=*/8, /*num_kv_heads=*/4, /*head_dim=*/16,
        {{0, 12}, {21, 1}, {5, 7}, {33, 1}, {2, 2}}, /*seed=*/41);
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
    // Dense and paged attention share one kernel, so comparing them
    // cannot catch a wrong kernel; this checks it against the double
    // oracle. head_dim covers the scalar-only, vector-plus-tail and
    // full-vector cases; page size 1 makes every position its own run;
    // the 7- and 5-row prefill segments are not multiples of the query
    // row block. Output is also bitwise equal at 1, 2 and 4 threads and to
    // the dense path, whatever the page size.
    for (const int head_dim : {4, 12, 20, 32, 128}) {
        for (const int64_t page_size : {1, 3, 16}) {
            SCOPED_TRACE(::testing::Message() << "head_dim=" << head_dim
                                              << " page_size=" << page_size);
            AttentionScenario scenario(
                /*num_heads=*/4, /*num_kv_heads=*/2, head_dim,
                {{0, 7}, {13, 5}, {30, 1}, {2, 2}},
                /*seed=*/53 + static_cast<uint64_t>(head_dim), page_size);
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
}

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
        options.kv_page_size = 16;
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
    options.kv_page_size = 16;
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
    options.kv_page_size = 16;
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
    options.kv_page_size = 16;
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
    options.kv_page_size = 16;
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
    constexpr int64_t kPageSize = 16;
    constexpr int64_t kPrefixLen = 48;  // 3 pages
    constexpr int64_t kBudget = 160;
    KvLedger ledger(kRequests, kBudget, kPageSize, kPrefixLen);
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
            EXPECT_EQ(charge, ledger.PagesFor(request.PrivatePromptLen()) +
                                  (sharer && holders.empty() ? prefix_pages
                                                             : 0));
            if (charge > ledger.free()) continue;
            ledger.Reserve(request, op);
            held[static_cast<size_t>(id)] =
                ledger.PagesFor(request.PrivatePromptLen());
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
                    /*page_size=*/16, /*prefix_len=*/32);
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
