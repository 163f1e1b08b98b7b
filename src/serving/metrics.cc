#include "src/serving/metrics.h"

#include "src/util/format.h"
#include "src/util/stats.h"

namespace llmnpu {

namespace {

/** Mean of `xs` summed in order; 0.0 when empty. */
double
MeanOf(const std::vector<double>& xs)
{
    double sum = 0.0;
    for (double x : xs) sum += x;
    return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

}  // namespace

ServingReport
BuildReport(const std::vector<RequestRecord>& records, double makespan_ms,
            double npu_busy_ms, double decode_busy_ms, int preemptions)
{
    ServingReport report;
    report.makespan_ms = makespan_ms;
    report.preemptions = preemptions;

    // Per-request latency samples of the completed requests, in record
    // order; the report owns them, so concurrent reports never interact.
    std::vector<double> ttft, e2e, tpot, queueing;

    int met_slo = 0;
    int64_t tokens_out = 0;
    for (const RequestRecord& record : records) {
        if (record.rejected) {
            ++report.rejected;
            continue;
        }
        ++report.admitted;
        report.evictions += record.evictions;
        report.faults += record.faults;
        report.retries += record.retries;
        if (record.shed) ++report.shed;
        if (record.failed_over) ++report.failovers;
        tokens_out += record.tokens_out;
        if (!record.Completed()) continue;
        ++report.completed;
        ttft.push_back(record.TtftMs());
        e2e.push_back(record.E2eMs());
        tpot.push_back(record.TpotMs());
        queueing.push_back(record.QueueingMs());
        met_slo += record.MetSlo() ? 1 : 0;
    }
    // Each block below is guarded only by its own denominator, so a
    // degenerate run (all rejected, nothing completed, zero makespan)
    // still yields an all-defined report: percentiles and means both
    // return 0.0 on empty samples, never NaN.
    report.ttft_p50_ms = Percentile(ttft, 50.0);
    report.ttft_p95_ms = Percentile(ttft, 95.0);
    report.ttft_p99_ms = Percentile(ttft, 99.0);
    report.e2e_p50_ms = Percentile(e2e, 50.0);
    report.e2e_p95_ms = Percentile(e2e, 95.0);
    report.e2e_p99_ms = Percentile(e2e, 99.0);
    report.tpot_mean_ms = MeanOf(tpot);
    report.queueing_mean_ms = MeanOf(queueing);
    if (makespan_ms > 0.0) {
        report.throughput_rps = report.completed / (makespan_ms / 1e3);
        report.goodput_rps = met_slo / (makespan_ms / 1e3);
        report.npu_utilization = npu_busy_ms / makespan_ms;
        report.decode_utilization = decode_busy_ms / makespan_ms;
        report.decode_tokens_per_sec =
            static_cast<double>(tokens_out) / (makespan_ms / 1e3);
    }
    if (report.completed > 0) {
        report.slo_attainment =
            static_cast<double>(met_slo) / report.completed;
    }
    return report;
}

std::string
ServingReport::Summary() const
{
    std::string line = StrFormat(
        "%d/%d done  %.2f req/s (goodput %.2f, SLO %.0f%%)  ttft p50/p99 "
        "%s/%s  e2e p99 %s  npu %.0f%%",
        completed, admitted, throughput_rps, goodput_rps,
        slo_attainment * 100.0, HumanMs(ttft_p50_ms).c_str(),
        HumanMs(ttft_p99_ms).c_str(), HumanMs(e2e_p99_ms).c_str(),
        npu_utilization * 100.0);
    if (kv_pool_pages > 0) {
        line += StrFormat("  kv %lld/%lld pages (rej %d, evict %d)",
                          static_cast<long long>(kv_pages_peak),
                          static_cast<long long>(kv_pool_pages), rejected,
                          evictions);
    }
    if (faults > 0 || shed > 0 || failovers > 0) {
        line += StrFormat("  faults %d (retries %d, shed %d, failover %d)",
                          faults, retries, shed, failovers);
    }
    return line;
}

}  // namespace llmnpu
