// Machine-speed gauge. On a shared host the same binary's wall times drift
// by 15–20% over minutes (other tenants' load on the cores, caches and
// memory), which no number of repetitions inside one short run can average
// away. The gauge times a fixed kernel — a dependent walk over a random
// 32 MiB cycle with integer mixing, so it is both latency- and ALU-bound
// like dispatch — next to each measurement. Multiplying a measured time by
// Factor() converts it into reference seconds: the time the host would
// have taken had the kernel run at its reference speed.

#pragma once

#include <cstdint>
#include <vector>

namespace srbench {

class SpeedGauge {
 public:
  /// The kernel's reference time. Fixed, so that figures from different
  /// runs, commits and hours are in the same unit.
  static constexpr double kReferenceNs = 15e6;

  SpeedGauge();

  /// Times the kernel (best of two) and returns kReferenceNs / its time.
  double Factor();

 private:
  std::vector<uint32_t> next_;  ///< a single random cycle over all slots
  uint64_t sink_ = 0;           ///< keeps the kernel's result live
};

}  // namespace srbench
