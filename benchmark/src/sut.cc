#include "benchmark/src/sut.h"

#include <chrono>

#include "src/workloads/corpus.h"

namespace llmnpu {
namespace bench {

namespace {

using Clock = std::chrono::steady_clock;

double
Seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

ModelConfig
ProxyConfig()
{
    return ScaledProxy(Qwen15_1_8B(), 512, 4, 4096);
}

std::unique_ptr<Sut>
BuildSut()
{
    auto sut = std::make_unique<Sut>();
    const ModelConfig config = ProxyConfig();

    const auto t0 = Clock::now();
    sut->weights = GenerateSyntheticWeights(config);
    sut->model = std::make_unique<Transformer>(sut->weights);
    const auto t1 = Clock::now();

    CorpusOptions corpus_options;
    corpus_options.vocab_size = config.vocab_size;
    corpus_options.num_sequences = 8;
    corpus_options.min_len = 64;
    corpus_options.max_len = 128;
    const auto corpus = MakeCorpus(corpus_options);
    sut->calib = CalibrationData::Collect(*sut->model, corpus);
    const auto t2 = Clock::now();

    sut->profile = OutlierProfile::Collect(*sut->model, sut->calib, corpus);
    const auto t3 = Clock::now();

    sut->fp32 = std::make_unique<Fp32LinearExecutor>(sut->weights);
    sut->npu = std::make_unique<NpuShadowExecutor>(sut->weights, sut->profile,
                                                   kPruningRate);
    sut->backend = std::make_unique<DecodeBackend>(*sut->fp32, *sut->npu);
    const auto t4 = Clock::now();

    sut->times.weights_s = Seconds(t0, t1);
    sut->times.calibrate_s = Seconds(t1, t2);
    sut->times.profile_s = Seconds(t2, t3);
    sut->times.executors_s = Seconds(t3, t4);
    return sut;
}

}  // namespace bench
}  // namespace llmnpu
