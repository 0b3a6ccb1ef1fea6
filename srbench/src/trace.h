// In-memory span recorder for the traced benchmark run. Spans are opened and
// closed around calls into the library's public entry points (see wrap.cc);
// each thread keeps its own stack of open spans, so a span's self time is
// its duration minus the time covered by the spans nested inside it on the
// same thread. Totals per layer are kept per thread in single-writer atomics
// (readable while a run is in flight); round-level spans and per-round
// counter samples are kept in memory and written out as a Chrome trace when
// the run ends.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace srbench {

enum Layer : int {
  kCost = 0,       ///< TravelCostEngine::Cost
  kCostMany,       ///< TravelCostEngine::CostMany
  kCheck,          ///< CheckSchedule
  kCheckLb,        ///< CheckScheduleLowerBound
  kInsert,         ///< BestInsertion (span form)
  kEnumerate,      ///< EnumerateGroupsPooled
  kSync,           ///< ShareGraphBuilder::SyncToPending
  kSpatialRebuild, ///< FleetSpatialIndex::Rebuild
  kSpatialQuery,   ///< FleetSpatialIndex::QueryInto
  kEventPush,      ///< EventQueue::Push
  kEventPop,       ///< EventQueue::Pop
  kOnBatch,        ///< Dispatcher::OnBatch, via the forwarding dispatcher
  kNumLayers
};

/// The library symbol a layer's span wraps, as shown in the trace.
const char* LayerName(int layer);
/// Round-level layers are recorded as individual trace spans; per-call
/// layers only feed totals and the per-round counter samples.
bool IsRoundLevel(int layer);

struct LayerTotals {
  uint64_t calls = 0;
  uint64_t incl_ns = 0;
  uint64_t self_ns = 0;
  uint64_t hits = 0;   ///< layer-specific "useful outcome" count
  uint64_t items = 0;  ///< layer-specific work items (targets, groups, ...)
};

struct SpanRecord {
  int layer = 0;
  uint32_t tid = 0;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
};

/// Per-round counter sample: calls into the per-call layers since the
/// previous sample, taken when a dispatch round ends.
struct CounterSample {
  int64_t t_ns = 0;
  uint64_t cost_lookups = 0;
  uint64_t checks = 0;
  uint64_t inserts = 0;
};

namespace trace {

/// Wrappers time calls only while enabled. Toggle only between runs.
bool Enabled();
void SetEnabled(bool on);
/// Round-level spans are kept (up to \p max_spans in total) only while
/// recording is on.
void SetRecordSpans(bool on, uint64_t max_spans);

/// Monotonic nanoseconds since the first call in this process.
int64_t NowNs();

/// Opens a span of \p layer on the calling thread's stack at time \p t_ns.
void Begin(int layer, int64_t t_ns);
/// Closes the calling thread's innermost open span at \p t_ns, adding
/// \p hits and \p items to its layer's totals.
void End(int64_t t_ns, uint64_t hits = 0, uint64_t items = 0);

/// Records a per-round counter sample (deltas since the previous sample).
void SampleCounters(int64_t t_ns);

/// Zeroes every thread's totals and drops recorded spans and samples. Call
/// only while no thread is inside a span.
void Reset();

/// Sums of every thread's totals. Exact once the threads that recorded are
/// quiescent; a consistent-enough snapshot while they run.
std::array<LayerTotals, kNumLayers> Aggregate();
std::vector<SpanRecord> CollectSpans();
std::vector<CounterSample> CollectCounters();
uint64_t DroppedSpans();

/// Chrome trace-event JSON (opens in Perfetto): one complete event per
/// round-level span, one counter event per sample, one name record per
/// thread.
std::string ChromeTraceJson(const std::vector<SpanRecord>& spans,
                            const std::vector<CounterSample>& counters);

}  // namespace trace
}  // namespace srbench
