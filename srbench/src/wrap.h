// What the link-time wrappers (wrap.cc) observe besides the span totals in
// trace.h: per-round dispatch times, per-request service latency, the
// share-graph builder's counters, and the probe wall cap that ends a service
// run which has tipped into a self-sustaining backlog.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace srbench {

struct RunObservations {
  std::vector<double> round_ms;  ///< OnBatch wall time of every round
  /// Service mode: ingest-to-decision milliseconds of every request that
  /// reached a round before the cap, from the ingestion thread's push stamp
  /// to the end of the first OnBatch that presented it.
  std::vector<double> latency_ms;
  uint64_t sync_pair_checks = 0;
  uint64_t sync_pruned_pairs = 0;
  uint64_t sync_memo_hits = 0;
  /// Requests the forwarding dispatcher turned away after the wall cap.
  uint64_t capped_requests = 0;
};

/// Clears the observations and arms the wall cap: rounds that start
/// \p cap_seconds after this call reject every pending request instead of
/// dispatching it (<= 0 disables the cap). \p num_requests sizes the
/// per-request bookkeeping. Call before each run.
void BeginRun(double cap_seconds, size_t num_requests);

/// Observations since the last BeginRun. Call after the run has returned.
RunObservations EndRun();

}  // namespace srbench
