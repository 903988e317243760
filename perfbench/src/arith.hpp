#pragma once
// Arithmetic the benchmark reports with: percentiles of latency samples,
// the percentile a sample count supports, and the process's peak memory.

#include <cstddef>
#include <vector>

namespace qcgen::perfbench {

/// Percentile `p` (0..100) of `samples` by linear interpolation between
/// closest ranks. Returns 0 for an empty sample.
double percentile(std::vector<double> samples, double p);

/// Samples strictly beyond the rank of percentile `p` in a sample of `n`:
/// n - ceil(p/100 * n).
std::size_t samples_beyond(std::size_t n, double p);

/// Highest percentile of {50, 90, 95, 99, 99.9, 99.99} that leaves at
/// least `min_beyond` samples beyond it; 0 when even the median does not.
double highest_supported_percentile(std::size_t n,
                                    std::size_t min_beyond = 10);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

}  // namespace qcgen::perfbench
