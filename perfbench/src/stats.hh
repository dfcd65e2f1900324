/**
 * @file
 * Order statistics for the benchmark's timings.
 *
 * Timings are reported as a median plus the highest tail percentile
 * that still has at least ten samples beyond it (so a p90 needs 100
 * samples, a p99 needs 1000). Percentiles use the nearest-rank rule:
 * the smallest sample with at least p% of the samples at or below it.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <vector>

namespace perfbench
{

/** Nearest-rank percentile, p in (0, 100]; 0 for an empty sample. */
double percentile(std::vector<double> v, double p);

/** Median (nearest-rank p50 for odd counts, mean of the two middle
 *  samples for even counts); 0 for an empty sample. */
double median(std::vector<double> v);

/** Samples strictly above the nearest-rank p-th percentile's rank. */
std::size_t samplesBeyond(std::size_t n, double p);

/** The tail percentile the sample size supports. */
struct Tail
{
    double pct = 0.0;   ///< 0 when even p90 is unsupported
    double value = 0.0;
};

/**
 * Highest of p90, p95, p99 and p99.9 with at least ten samples
 * beyond its rank; pct = 0 when fewer than 100 samples exist.
 */
Tail tailPercentile(const std::vector<double> &v);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
