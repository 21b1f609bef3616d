/**
 * @file
 * The median of the benchmark's repeated measurements. The spreads
 * across runs (quartiles) are computed by the A/A script, aa.py.
 */

#ifndef CLUMSY_PERFBENCH_STATS_HH
#define CLUMSY_PERFBENCH_STATS_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench
{

/** Median; the mean of the two middle values for an even count. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace perfbench

#endif // CLUMSY_PERFBENCH_STATS_HH
