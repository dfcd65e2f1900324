#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "bench.hh"

namespace perfbench
{

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"wall_s", "s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"sim.skip_ratio", "ratio"},
        {"sim.executed_cycles", "cycles"},
        {"sim.ns_per_executed_cycle", "ns"},
        {"sim.residual_ns_per_executed_cycle", "ns"},
        {"trace.next_calls", "count"},
        {"trace.next_ns", "ns"},
        {"core.load_complete_calls", "count"},
        {"core.load_complete_ns", "ns"},
        {"core.mem_stall_ratio", "ratio"},
        {"l1.miss_ratio", "ratio"},
        {"l1.gate_stall_cycles", "cycles"},
        {"llc.push_calls", "count"},
        {"llc.push_ns", "ns"},
        {"llc.accept_ratio", "ratio"},
        {"llc.hit_ratio", "ratio"},
        {"shaper.try_issue_calls", "count"},
        {"shaper.try_issue_ns", "ns"},
        {"shaper.grant_ratio", "ratio"},
        {"shaper.wake_polls", "count"},
        {"mc.push_calls", "count"},
        {"mc.push_ns", "ns"},
        {"mc.accept_ratio", "ratio"},
        {"mc.queue_latency_cycles", "cycles"},
        {"sched.pick_calls", "count"},
        {"sched.pick_ns", "ns"},
        {"sched.idle_pick_ratio", "ratio"},
        {"dram.row_hit_ratio", "ratio"},
        {"ckpt.restore_ms", "ms"},
        {"ckpt.save_ms", "ms"},
        {"ckpt.bytes", "bytes"},
        {"system.build_ms", "ms"},
        {"orchestrate.unit_ms_p50", "ms"},
        {"orchestrate.cache_hit_ratio", "ratio"},
        {"orchestrate.warm_rerun_ms", "ms"},
        {"cloud.tenants_admitted", "count"},
        {"cloud.admit_ratio", "ratio"},
        {"cloud.tenant_windows", "count"},
        {"tracing.overhead_ratio", "ratio"},
    };
    return defs;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "saturated", "shaped", "fig12_sweep", "cloud_diurnal"};
    return names;
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h)
{
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001B3ULL;
    }
    return h;
}

void
writeResultJson(std::ostream &os, const Report &r, bool trace)
{
    const auto &defs = trace ? perLayerMetrics() : endToEndMetrics();
    os << "{\"correct\": " << (r.correct() ? "true" : "false")
       << ", \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const auto it = r.metrics.find(defs[i].name);
        if (it == r.metrics.end())
            throw std::logic_error(std::string("metric not measured: ") +
                                   defs[i].name);
        if (!std::isfinite(it->second))
            throw std::logic_error(std::string("metric not finite: ") +
                                   defs[i].name);
        char num[40];
        std::snprintf(num, sizeof(num), "%.17g", it->second);
        os << (i ? ", " : "") << '"' << defs[i].name
           << "\": {\"value\": " << num << ", \"unit\": \""
           << defs[i].unit << "\"}";
    }
    os << "}}\n";
}

} // namespace perfbench
