/**
 * @file
 * Synthetic token corpora with Zipfian statistics, standing in for the
 * calibration (wikitext) and evaluation datasets the paper uses (DESIGN.md
 * §2 substitution table).
 */
#ifndef LLMNPU_WORKLOADS_CORPUS_H
#define LLMNPU_WORKLOADS_CORPUS_H

#include <cstdint>
#include <vector>

namespace llmnpu {

/** Options for synthetic corpus generation. */
struct CorpusOptions {
    int64_t vocab_size = 256;
    int num_sequences = 8;
    int min_len = 32;
    int max_len = 64;
    uint64_t seed = 0xc0de;
};

/** Generates deterministic token-id sequences with Zipf(1.1) token
 *  frequencies. */
std::vector<std::vector<int>> MakeCorpus(const CorpusOptions& options);

}  // namespace llmnpu

#endif  // LLMNPU_WORKLOADS_CORPUS_H
