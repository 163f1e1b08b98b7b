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
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<Counter>();
    return *slot;
}

Gauge&
MetricsRegistry::GetGauge(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mu_);
    LLMNPU_CHECK(counters_.find(name) == counters_.end());
    auto& slot = gauges_[name];
    if (!slot) slot = std::make_unique<Gauge>();
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
    out += "}}";
    return out;
}

}  // namespace obs
}  // namespace llmnpu
