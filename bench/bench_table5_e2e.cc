/**
 * @file
 * Reproduces Table 5: end-to-end latency — "total (prefill, decode)" — on
 * real mobile-application workloads (LongBench, DroidTask, Persona-Chat)
 * across the five models on the Redmi K70 Pro.
 */
#include "bench/bench_util.h"
#include "src/core/llmnpu_engine.h"
#include "src/engines/baselines.h"
#include "src/util/stats.h"
#include "src/workloads/datasets.h"

namespace llmnpu {
namespace {

std::string
Cell(const EngineResult& result)
{
    return StrFormat("%.1f (%.2f, %.2f)", result.EndToEndMs() / 1e3,
                     result.prefill_ms / 1e3, result.decode_ms / 1e3);
}

/** Decode-placement METRIC row: where llm.npu decodes and how fast. The
 *  values are simulator outputs (host-independent), so CI band-checks them
 *  against the committed baseline (bench/check_bench_metrics). */
void
EmitDecodePlacementMetric(const std::string& dataset,
                          const std::string& model, const char* placement,
                          const InferenceRequest& req,
                          const EngineResult& result)
{
    std::printf(
        "METRIC {\"bench\": \"table5_e2e\", \"dataset\": \"%s\", "
        "\"model\": \"%s\", \"decode_placement\": \"%s\", "
        "\"decode_tokens_per_sec\": %.3f, \"prefill_ms\": %.2f, "
        "\"decode_ms\": %.2f, \"e2e_ms\": %.2f}\n",
        dataset.c_str(), model.c_str(), placement,
        result.DecodeTokensPerSec(req.output_len), result.prefill_ms,
        result.decode_ms, result.EndToEndMs());
}

void
Run()
{
    BenchHeader("Table 5: end-to-end latency on real mobile applications",
                "llm.npu has the lowest latency on every dataset; geo-mean "
                "speedups 1.1-34.7x depending on baseline and dataset");
    const SocSpec soc = SocSpec::RedmiK70Pro();
    auto baselines = MakePaperBaselines();
    LlmNpuEngine ours;
    LlmNpuOptions npu_decode_options;
    npu_decode_options.decode_placement = DecodePlacement::kNpuQuant;
    npu_decode_options.label = "llm.npu (NPU decode)";
    LlmNpuEngine ours_npu_decode(npu_decode_options);

    for (const DatasetProfile& dataset : PaperDatasets()) {
        std::printf("\n-- %s (%s; prompt %d-%d, output %d-%d) --\n",
                    dataset.name.c_str(), dataset.application.c_str(),
                    dataset.prompt_min, dataset.prompt_max,
                    dataset.output_min, dataset.output_max);
        Table table({"Model", "MLC", "llama.cpp", "MNN", "PowerInfer-V2",
                     "TFLite", "Ours", "best speedup"});
        std::vector<std::vector<double>> speedups(baselines.size());
        for (const ModelConfig& config : PaperModels()) {
            const InferenceRequest req = dataset.Typical();
            const EngineResult our_result = ours.Run(config, soc, req);
            EmitDecodePlacementMetric(dataset.name, config.name, "cpu", req,
                                      our_result);
            EmitDecodePlacementMetric(
                dataset.name, config.name, "npu", req,
                ours_npu_decode.Run(config, soc, req));
            std::vector<std::string> row = {config.name};
            // Paper column order: MLC, LCPP, MNN, PI, TFLite.
            const size_t order[] = {3, 0, 1, 4, 2};
            double best = 0.0;
            for (size_t idx : order) {
                auto& engine = baselines[idx];
                if (!engine->SupportsModel(config)) {
                    row.push_back("-");
                    continue;
                }
                const EngineResult result = engine->Run(config, soc, req);
                row.push_back(Cell(result));
                const double speedup =
                    result.EndToEndMs() / our_result.EndToEndMs();
                speedups[idx].push_back(speedup);
                best = std::max(best, speedup);
            }
            row.push_back(Cell(our_result));
            row.push_back(StrFormat("%.1fx", best));
            table.AddRow(std::move(row));
        }
        table.Print();
        std::printf("Geo-mean speedup of llm.npu: ");
        for (size_t i = 0; i < baselines.size(); ++i) {
            if (speedups[i].empty()) continue;
            std::printf("%s %.1fx  ", baselines[i]->Name().c_str(),
                        GeoMean(speedups[i]));
        }
        std::printf("\n");
    }
    std::printf("\nUnits: seconds, formatted 'total (prefill, decode)' as "
                "in the paper.\n");
}

}  // namespace
}  // namespace llmnpu

int
main()
{
    llmnpu::Run();
    return 0;
}
