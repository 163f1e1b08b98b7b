#include "src/workloads/corpus.h"

#include "src/util/check.h"
#include "src/util/rng.h"

namespace llmnpu {

namespace {

/** Zipf exponent of the token frequencies (natural-language-like). */
constexpr double kZipfExponent = 1.1;

}  // namespace

std::vector<std::vector<int>>
MakeCorpus(const CorpusOptions& options)
{
    LLMNPU_CHECK_GT(options.vocab_size, 0);
    LLMNPU_CHECK_GE(options.max_len, options.min_len);
    Rng rng(options.seed);
    std::vector<std::vector<int>> corpus;
    corpus.reserve(static_cast<size_t>(options.num_sequences));
    for (int i = 0; i < options.num_sequences; ++i) {
        const int len = static_cast<int>(
            rng.UniformInt(options.min_len, options.max_len));
        std::vector<int> seq;
        seq.reserve(static_cast<size_t>(len));
        for (int t = 0; t < len; ++t) {
            seq.push_back(static_cast<int>(rng.Zipf(
                static_cast<uint64_t>(options.vocab_size),
                kZipfExponent)));
        }
        corpus.push_back(std::move(seq));
    }
    return corpus;
}

}  // namespace llmnpu
