#include "src/obs/metrics.h"

#include "src/util/check.h"
#include "src/util/format.h"

namespace llmnpu {
namespace obs {

MetricsRegistry&
MetricsRegistry::Global()
{
    static MetricsRegistry* registry = new MetricsRegistry();
    return *registry;
}

Counter&
MetricsRegistry::GetCounter(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mu_);
    LLMNPU_CHECK(gauges_.find(name) == gauges_.end());
    LLMNPU_CHECK(histograms_.find(name) == histograms_.end());
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<Counter>();
    return *slot;
}

Gauge&
MetricsRegistry::GetGauge(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mu_);
    LLMNPU_CHECK(counters_.find(name) == counters_.end());
    LLMNPU_CHECK(histograms_.find(name) == histograms_.end());
    auto& slot = gauges_[name];
    if (!slot) slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram&
MetricsRegistry::GetHistogram(const std::string& name,
                              std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(mu_);
    LLMNPU_CHECK(counters_.find(name) == counters_.end());
    LLMNPU_CHECK(gauges_.find(name) == gauges_.end());
    auto& slot = histograms_[name];
    if (!slot) {
        slot = bounds.empty()
                   ? std::make_unique<Histogram>()
                   : std::make_unique<Histogram>(std::move(bounds));
    }
    return *slot;
}

std::vector<std::string>
MetricsRegistry::CounterNames() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> names;
    for (const auto& [name, counter] : counters_) names.push_back(name);
    return names;
}

std::string
MetricsRegistry::DumpJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\"counters\": {";
    bool first = true;
    for (const auto& [name, counter] : counters_) {
        if (!first) out += ", ";
        first = false;
        out += StrFormat("\"%s\": %lld", name.c_str(),
                         static_cast<long long>(counter->value()));
    }
    out += "}, \"gauges\": {";
    first = true;
    for (const auto& [name, gauge] : gauges_) {
        if (!first) out += ", ";
        first = false;
        out += StrFormat("\"%s\": {\"value\": %.3f, \"peak\": %.3f}",
                         name.c_str(), gauge->value(), gauge->peak());
    }
    out += "}, \"histograms\": {";
    first = true;
    for (const auto& [name, histogram] : histograms_) {
        if (!first) out += ", ";
        first = false;
        out += StrFormat(
            "\"%s\": {\"count\": %lld, \"mean\": %.3f, \"p50\": %.3f, "
            "\"p95\": %.3f, \"p99\": %.3f, \"max\": %.3f}",
            name.c_str(), static_cast<long long>(histogram->count()),
            histogram->mean(), histogram->Percentile(50.0),
            histogram->Percentile(95.0), histogram->Percentile(99.0),
            histogram->max());
    }
    out += "}}";
    return out;
}

}  // namespace obs
}  // namespace llmnpu
