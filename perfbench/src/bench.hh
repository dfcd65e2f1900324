/**
 * @file
 * Shared types of the benchmark: command options, the metric
 * catalogue and the per-run report.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string root = ".";  ///< repository checkout (inputs)
    std::string work;        ///< scratch directory for run outputs
    std::string tracePath;   ///< where a traced run writes its spans
    std::string stepsPath;   ///< per-step series of the steady guard
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics every workload reports with --trace 0, in
 *  BENCHMARK.json order. */
const std::vector<MetricDef> &endToEndMetrics();

/** Per-layer metrics every workload reports with --trace 1 (0 where
 *  the layer does not run), in BENCHMARK.json order. */
const std::vector<MetricDef> &perLayerMetrics();

const std::vector<std::string> &workloadNames();

struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** The timed phase passed the steady-state guard (or the
     *  workload has none). */
    bool steady = true;
    /** Digest of the workload's deterministic outputs; equal across
     *  commits whose change is speed-only. */
    std::uint64_t digest = 0;
    /** Keyed by name; must cover the catalogue of the run's mode. */
    std::map<std::string, double> metrics;
    /** Workload-specific figures printed in the table only (model
     *  outputs, tail percentiles, error rate, guard statistics). */
    struct Extra
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Extra> extra;
    /** Workload parameters for the run-metadata row. */
    std::vector<std::pair<std::string, std::string>> params;

    bool correct() const { return failed == 0 && steady && attempted; }
};

Report runWorkload(const Options &opt);

/** The final result line: {"correct", "attempted", "failed",
 *  "metrics"} with exactly the catalogue of the run's mode. Throws
 *  std::logic_error if the report misses a catalogued metric. */
void writeResultJson(std::ostream &os, const Report &r, bool trace);

/** FNV-1a 64 over a byte string (output digests). */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t h = 0xCBF29CE484222325ULL);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
