// Order statistics the benchmark reports: nearest-rank percentiles with
// their sample counts, in which requests that never got a decision count as
// misses, and medians of repeated runs.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace srbench {

struct Percentile {
  double value = 0;
  size_t samples = 0;  ///< how many values the percentile was taken over
};

/// Nearest-rank percentile: the ceil(p * n)-th smallest value (p in (0, 1]).
/// Zero samples give value 0.
Percentile NearestRank(std::vector<double> values, double p);

/// Nearest-rank percentile over \p values plus \p misses samples that rank
/// above every value: requests that never got a decision (shed at
/// admission, or turned away when a probe hit its wall cap) miss any
/// latency limit. The value is +infinity when the rank falls among them.
Percentile NearestRankWithMisses(std::vector<double> values, uint64_t misses,
                                 double p);

/// Median of repeated measurements (mean of the middle two for even n).
double Median(std::vector<double> values);

}  // namespace srbench
