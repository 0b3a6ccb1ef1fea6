#include "speed.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <random>

namespace srbench {
namespace {

constexpr size_t kSlots = 8u << 20;  // 32 MiB of uint32
constexpr int kSteps = 100000;
constexpr int kMixRounds = 20;

}  // namespace

SpeedGauge::SpeedGauge() : next_(kSlots) {
  std::vector<uint32_t> order(kSlots);
  std::iota(order.begin(), order.end(), 0u);
  std::mt19937_64 rng(42);
  std::shuffle(order.begin(), order.end(), rng);
  for (size_t i = 0; i < kSlots; ++i) {
    next_[order[i]] = order[(i + 1) % kSlots];
  }
}

double SpeedGauge::Factor() {
  double best_ns = 0;
  for (int rep = 0; rep < 2; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    uint32_t p = 0;
    uint64_t h = sink_;
    for (int i = 0; i < kSteps; ++i) {
      p = next_[p];
      h = (h ^ p) * 0x9E3779B97F4A7C15ull;
      for (int k = 0; k < kMixRounds; ++k) h = (h << 7) ^ (h >> 3) ^ k;
    }
    sink_ += h;
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (rep == 0 || ns < best_ns) best_ns = ns;
  }
  return kReferenceNs / best_ns;
}

}  // namespace srbench
