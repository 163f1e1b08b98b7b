/**
 * @file
 * Microbenchmarks of the numeric-plane kernels. These measure *this host's*
 * kernel throughput (the numeric plane), not the simulated phone.
 *
 * A sweep that prints "METRIC {json}" rows — GFLOP/s per kernel x size x
 * thread count, plus the speedup of each tiled kernel over its naive
 * reference — which bench/run_all captures into BENCH_results.json so
 * kernel perf is tracked per commit. Every tiled kernel runs the entry
 * point a forward calls, against weights packed once.
 *
 * LLMNPU_BENCH_QUICK=1 (set by `run_all --quick`) shrinks the sweep to one
 * size so CI smoke runs stay fast.
 */
#include <algorithm>
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/model/batched_kv_cache.h"
#include "src/model/paged_attention.h"
#include "src/tensor/matmul.h"
#include "src/util/rng.h"
#include "src/util/threadpool.h"

namespace llmnpu {
namespace {

Tensor
RandomTensor(Rng& rng, std::vector<int64_t> shape)
{
    Tensor t(std::move(shape), DType::kF32);
    float* p = t.Data<float>();
    for (int64_t i = 0; i < t.NumElements(); ++i) {
        p[i] = static_cast<float>(rng.Normal());
    }
    return t;
}

/** Best-of-3 throughput in GFLOP/s (2*m*k*n flops per call). */
double
MeasureGFlops(int64_t m, int64_t k, int64_t n,
              const std::function<void()>& fn)
{
    const double min_seconds = QuickMode() ? 0.02 : 0.12;
    fn();  // warm-up (touch packed panels, grow the thread pool)
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        best = std::max(best, 2.0 * static_cast<double>(m) *
                                  static_cast<double>(k) *
                                  static_cast<double>(n) /
                                  SecondsPerCall(min_seconds, fn) / 1e9);
    }
    return best;
}

void
PrintMetric(const char* kernel, const char* variant, int64_t m, int64_t k,
            int64_t n, int threads, double gflops, double speedup)
{
    std::printf("METRIC {\"bench\": \"kernels\", \"kernel\": \"%s\", "
                "\"variant\": \"%s\", \"m\": %lld, \"k\": %lld, "
                "\"n\": %lld, \"threads\": %d, \"gflops\": %.2f, "
                "\"speedup_vs_naive\": %.2f}\n",
                kernel, variant, static_cast<long long>(m),
                static_cast<long long>(k), static_cast<long long>(n),
                threads, gflops, speedup);
}

/** W8A8 per-tensor rows for one [m x k] @ [k x n] shape: naive at one
 *  thread, pre-packed tiled at each thread count. */
void
EmitW8A8Metrics(const Tensor& a, const Tensor& w,
                const std::vector<int>& thread_counts)
{
    const int64_t m = a.Rows(), k = a.Cols(), n = w.Cols();
    const QuantParams params = ComputeSymmetricScale(a);
    Tensor a_q = QuantizeSymmetric(a, params);
    PerColumnWeights wq = QuantizePerColumn(w);
    const double i8_naive = MeasureGFlops(m, k, n, [&] {
        Sink(MatMulW8A8PerTensorNaive(a_q, params.scale, wq.q, wq.scales));
    });
    PrintMetric("matmul_w8a8_per_tensor", "naive", m, k, n, 1, i8_naive,
                1.0);
    const PackedWeightsI8 packed_q = PackWeightsI8(wq.q, wq.scales);
    for (int threads : thread_counts) {
        ScopedNumThreads scoped(threads);
        const double tiled = MeasureGFlops(m, k, n, [&] {
            Sink(MatMulW8A8PerTensorPacked(a_q, params.scale, packed_q));
        });
        PrintMetric("matmul_w8a8_per_tensor", "tiled_packed", m, k, n,
                    threads, tiled, tiled / i8_naive);
    }
}

/**
 * The METRIC sweep: naive vs pre-packed tiled kernels, m=32 prefill
 * chunks, square K=N weights, thread counts 1/2/4; then W8A8 at the
 * benchmark's ui_automation prefill shapes, a 256-row chunk through the
 * proxy model's attention (512 x 512) and FFN (512 x 1376, 1376 x 512)
 * linears.
 */
void
EmitKernelMetrics()
{
    const std::vector<int64_t> sizes =
        QuickMode() ? std::vector<int64_t>{256}
                    : std::vector<int64_t>{128, 256, 512};
    const std::vector<int> thread_counts =
        QuickMode() ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4};
    constexpr int64_t kM = 32;

    for (int64_t n : sizes) {
        Rng rng(0xbe7c + static_cast<uint64_t>(n));
        Tensor a = RandomTensor(rng, {kM, n});
        Tensor w = RandomTensor(rng, {n, n});

        // --- f32: naive vs pre-packed tiled. ---
        const double f32_naive = MeasureGFlops(kM, n, n, [&] {
            Sink(MatMulF32Naive(a, w));
        });
        PrintMetric("matmul_f32", "naive", kM, n, n, 1, f32_naive, 1.0);
        const PackedWeightsF32 packed = PackWeightsF32(w);
        for (int threads : thread_counts) {
            ScopedNumThreads scoped(threads);
            const double tiled_packed = MeasureGFlops(kM, n, n, [&] {
                Sink(MatMulF32Packed(a, packed));
            });
            PrintMetric("matmul_f32", "tiled_packed", kM, n, n, threads,
                        tiled_packed, tiled_packed / f32_naive);
        }

        // --- W8A8 per-tensor: naive vs pre-packed tiled. ---
        EmitW8A8Metrics(a, w, thread_counts);

        // --- Per-group W8A8 (the NPU-hostile form): naive vs pre-packed
        // tiled. ---
        PerGroupWeights pg = QuantizePerGroup(w, 32);
        const double pg_naive = MeasureGFlops(kM, n, n, [&] {
            Sink(MatMulPerGroupNaive(a, pg));
        });
        PrintMetric("matmul_per_group", "naive", kM, n, n, 1, pg_naive,
                    1.0);
        const PackedPerGroupWeights packed_pg = PackPerGroupWeights(pg);
        for (int threads : thread_counts) {
            ScopedNumThreads scoped(threads);
            const double tiled = MeasureGFlops(kM, n, n, [&] {
                Sink(MatMulPerGroupPacked(a, packed_pg));
            });
            PrintMetric("matmul_per_group", "tiled_packed", kM, n, n,
                        threads, tiled, tiled / pg_naive);
        }
    }

    constexpr int64_t kPrefillM = 256;
    for (const auto& [k, n] : {std::pair<int64_t, int64_t>{512, 512},
                               std::pair<int64_t, int64_t>{512, 1376},
                               std::pair<int64_t, int64_t>{1376, 512}}) {
        Rng rng(0x9f11 + static_cast<uint64_t>(k + n));
        EmitW8A8Metrics(RandomTensor(rng, {kPrefillM, k}),
                        RandomTensor(rng, {k, n}), thread_counts);
    }
}

/**
 * One paged-attention shape: `batch` sequences, each with `history` cached
 * positions plus `q_rows` new rows whose K/V are already appended (decode:
 * q_rows = 1). Each (sequence, head) query row r does 4*head_dim flops per
 * visible key (history + r + 1 keys), which MeasureGFlops' 2*m*k*n form
 * matches as m = batch*heads, k = 2*keys, n = head_dim. Rows are keyed
 * (m, k, n) = (metric_m, metric_k, heads*head_dim). There is no naive
 * attention kernel to compare with, so speedup_vs_naive is 1.0, as on the
 * naive matmul rows.
 */
void
EmitPagedAttentionShape(const char* variant, int64_t metric_m,
                        int64_t metric_k, int batch, int heads, int head_dim,
                        int64_t history, int64_t q_rows,
                        const std::vector<int>& thread_counts)
{
    const int64_t model_dim = static_cast<int64_t>(heads) * head_dim;
    Rng rng(0x9a6ed + static_cast<uint64_t>(history + q_rows));
    BatchedKvCache cache(1, model_dim);
    std::vector<int> seqs;
    std::vector<int64_t> segments{0};
    std::vector<int64_t> pos_offsets;
    for (int b = 0; b < batch; ++b) {
        const int seq = cache.AddSequence();
        cache.Append(seq, 0, RandomTensor(rng, {history + q_rows, model_dim}),
                     RandomTensor(rng, {history + q_rows, model_dim}));
        seqs.push_back(seq);
        pos_offsets.push_back(history);
        segments.push_back(segments.back() + q_rows);
    }
    Tensor q = RandomTensor(rng, {batch * q_rows, model_dim});

    const int64_t keys = q_rows * history + q_rows * (q_rows + 1) / 2;
    const int64_t flop_m = static_cast<int64_t>(batch) * heads;
    for (int threads : thread_counts) {
        ScopedNumThreads scoped(threads);
        const double fused = MeasureGFlops(flop_m, 2 * keys, head_dim, [&] {
            Sink(PagedCausalAttention(q, segments, seqs, pos_offsets, cache,
                                      0, heads, heads));
        });
        PrintMetric("paged_attention", variant, metric_m, metric_k,
                    model_dim, threads, fused, 1.0);
    }
}

/**
 * Fused paged attention: a B=16 decode step at head_dim 32 over several
 * context lengths, plus two shapes of the benchmark's proxy model (4 heads
 * of head_dim 128): a B=16 decode step at context 256, and a 256-row
 * prefill chunk over a 512-position history (keyed m = query rows,
 * k = history).
 */
void
EmitPagedAttentionMetrics()
{
    const std::vector<int64_t> contexts =
        QuickMode() ? std::vector<int64_t>{256}
                    : std::vector<int64_t>{128, 256, 512};
    const std::vector<int> thread_counts =
        QuickMode() ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4};
    constexpr int kBatch = 16;
    for (int64_t kv : contexts) {
        EmitPagedAttentionShape("fused", kBatch, kv, kBatch, /*heads=*/8,
                                /*head_dim=*/32, kv - 1, 1, thread_counts);
    }
    EmitPagedAttentionShape("fused", kBatch, 256, kBatch, /*heads=*/4,
                            /*head_dim=*/128, 255, 1, thread_counts);
    EmitPagedAttentionShape("prefill_fused", 256, 512, 1, /*heads=*/4,
                            /*head_dim=*/128, 512, 256, thread_counts);
}

}  // namespace
}  // namespace llmnpu

int
main()
{
    llmnpu::EmitKernelMetrics();
    llmnpu::EmitPagedAttentionMetrics();
    return 0;
}
