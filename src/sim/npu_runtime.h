/**
 * @file
 * QNN-like NPU graph runtime model (Figure 2): static-shape compute graphs
 * with build / optimize / execute / free lifecycle costs, a graph cache, and
 * the ~4 GB NPU-addressable memory region.
 *
 * The static-shape constraint is the first gap of §2.3: a graph is keyed by
 * its exact input shape; executing an unseen shape requires building and
 * optimizing a new graph, which llm.npu's chunk-sharing graphs amortize to
 * the preparation stage.
 */
#ifndef LLMNPU_SIM_NPU_RUNTIME_H
#define LLMNPU_SIM_NPU_RUNTIME_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace llmnpu {

/** Static description of one NPU compute graph. */
struct NpuGraphDesc {
    std::string name;      ///< e.g. "qwen.block3.ffn"
    int num_ops = 0;       ///< operator count (drives build/free cost)
    int64_t const_bytes = 0;  ///< weight/constant tensor bytes
    int64_t activation_bytes = 0;  ///< I/O + intermediate buffer bytes
    std::vector<int64_t> input_shape;  ///< static shape this graph accepts
};

/** Lifecycle costs of preparing one graph. */
struct NpuGraphCosts {
    double build_ms = 0.0;
    double optimize_ms = 0.0;
    double free_ms = 0.0;

    double TotalPrepareMs() const { return build_ms + optimize_ms; }
};

/**
 * Tracks built graphs, their memory, and lifecycle costs.
 *
 * Not thread-safe; one runtime per simulated inference session.
 */
class NpuRuntime
{
  public:
    NpuRuntime();

    /** One-time environment setup cost (ms); charged on first use. */
    double EnvSetupMs();

    /** Computes lifecycle costs for a graph description. */
    static NpuGraphCosts CostsFor(const NpuGraphDesc& desc);

    /**
     * Builds + optimizes a graph if its (name, shape) is not cached.
     *
     * @return preparation latency in ms (0 when cached).
     * Fatal when the new graph would exceed the NPU memory region — callers
     * must plan placement with FitsMemory() first.
     */
    double EnsureBuilt(const NpuGraphDesc& desc);

    /** True when a graph with this name+shape is already built. */
    bool IsBuilt(const NpuGraphDesc& desc) const;

    /** True when `extra_bytes` more graph memory still fits the region. */
    bool FitsMemory(int64_t extra_bytes) const;

    /** Frees one graph; @return free latency (ms). */
    double Free(const NpuGraphDesc& desc);

    /** Bytes of graph memory currently resident on the NPU region. */
    int64_t ResidentBytes() const { return resident_bytes_; }

    /** Number of distinct graphs currently built. */
    int NumBuilt() const { return static_cast<int>(built_.size()); }

    /** Cumulative prepare time spent so far (ms). */
    double TotalPrepareMs() const { return total_prepare_ms_; }

  private:
    static std::string Key(const NpuGraphDesc& desc);

    bool env_ready_ = false;
    int64_t resident_bytes_ = 0;
    double total_prepare_ms_ = 0.0;
    std::map<std::string, NpuGraphDesc> built_;
};

}  // namespace llmnpu

#endif  // LLMNPU_SIM_NPU_RUNTIME_H
