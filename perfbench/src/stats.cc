#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

namespace
{

/** 1-based nearest rank of percentile p among n samples. */
std::size_t
nearestRank(std::size_t n, double p)
{
    // The epsilon keeps p * n / 100 that is integral in exact
    // arithmetic (99.9% of 10000) from rounding up a rank.
    const double r =
        std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

} // namespace

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    const std::size_t k = nearestRank(v.size(), p) - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k),
                     v.end());
    return v[k];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

Tail
tailPercentile(const std::vector<double> &v)
{
    Tail t;
    for (const double p : {90.0, 95.0, 99.0, 99.9}) {
        if (samplesBeyond(v.size(), p) < 10)
            break;
        t.pct = p;
    }
    if (t.pct > 0.0)
        t.value = percentile(v, t.pct);
    return t;
}

} // namespace perfbench
