#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace srbench {
namespace {

// 1-based nearest rank of quantile p among n samples, clamped to [1, n].
uint64_t Rank(double p, uint64_t n) {
  const double r = std::ceil(p * static_cast<double>(n) - 1e-9);
  if (r < 1) return 1;
  return std::min<uint64_t>(n, static_cast<uint64_t>(r));
}

}  // namespace

Percentile NearestRank(std::vector<double> values, double p) {
  return NearestRankWithMisses(std::move(values), 0, p);
}

Percentile NearestRankWithMisses(std::vector<double> values, uint64_t misses,
                                 double p) {
  Percentile out;
  out.samples = values.size() + misses;
  if (out.samples == 0) return out;
  const uint64_t rank = Rank(p, out.samples);
  if (rank > values.size()) {
    out.value = std::numeric_limits<double>::infinity();
    return out;
  }
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  out.value = values[rank - 1];
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace srbench
