#include "src/workloads/accuracy.h"

#include "src/workloads/corpus.h"

namespace llmnpu {

std::vector<EvalSet>
MakeBenchmarkEvalSets(int64_t vocab_size, int contexts_per_set, uint64_t seed)
{
    struct Spec {
        const char* name;
        int min_len;
        int max_len;
    };
    // Context lengths loosely match each benchmark's typical prompt size.
    const Spec specs[] = {
        {"LAMBADA", 48, 80},     // broad-discourse word prediction
        {"HellaSwag", 56, 96},   // sentence completion
        {"WinoGrande", 24, 40},  // short schema questions
        {"OpenBookQA", 24, 48},  // short science questions
        {"MMLU", 48, 88},        // multi-task QA
    };
    std::vector<EvalSet> sets;
    uint64_t salt = 1;
    for (const auto& spec : specs) {
        CorpusOptions options;
        options.vocab_size = vocab_size;
        options.num_sequences = contexts_per_set;
        options.min_len = spec.min_len;
        options.max_len = spec.max_len;
        options.seed = seed * 0x9e3779b9ULL + salt++;
        sets.push_back({spec.name, MakeCorpus(options)});
    }
    return sets;
}

AccuracyResult
EvaluateAgreement(const Transformer& model, LinearExecutor& candidate,
                  const std::vector<std::vector<int>>& contexts)
{
    Fp32LinearExecutor reference(model.weights());
    AccuracyResult result;
    double mse_sum = 0.0;
    for (const auto& tokens : contexts) {
        BatchedKvCache ref_cache = model.MakeCache();
        Tensor ref_hidden = model.Forward(tokens, ref_cache, reference);
        Tensor ref_logits =
            model.Logits(ref_hidden.CopyRows(ref_hidden.Rows() - 1, 1));

        BatchedKvCache cand_cache = model.MakeCache();
        Tensor cand_hidden = model.Forward(tokens, cand_cache, candidate);
        Tensor cand_logits =
            model.Logits(cand_hidden.CopyRows(cand_hidden.Rows() - 1, 1));

        if (model.ArgmaxLastRow(ref_logits) ==
            model.ArgmaxLastRow(cand_logits)) {
            result.top1_agreement += 1.0;
        }
        mse_sum += MeanSquaredError(ref_logits, cand_logits);
        ++result.contexts;
    }
    if (result.contexts > 0) {
        result.top1_agreement /= result.contexts;
        result.logit_mse = mse_sum / result.contexts;
    }
    return result;
}

}  // namespace llmnpu
