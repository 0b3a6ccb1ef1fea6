#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace srbench {

const char* LayerName(int layer) {
  static const char* const kNames[kNumLayers] = {
      "Cost",          "CostMany",         "CheckSchedule",
      "CheckScheduleLowerBound", "BestInsertion", "EnumerateGroupsPooled",
      "SyncToPending", "SpatialRebuild",   "SpatialQueryInto",
      "EventQueue::Push", "EventQueue::Pop", "OnBatch"};
  return layer >= 0 && layer < kNumLayers ? kNames[layer] : "?";
}

bool IsRoundLevel(int layer) {
  return layer == kOnBatch || layer == kSync || layer == kEnumerate ||
         layer == kSpatialRebuild;
}

namespace trace {
namespace {

constexpr int kMaxDepth = 64;

// Only the owning thread writes its counters, so a load-add-store is exact;
// the atomics make concurrent reads from Aggregate race-free.
void Bump(std::atomic<uint64_t>& a, uint64_t d) {
  a.store(a.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}

struct Counters {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> incl_ns{0};
  std::atomic<uint64_t> self_ns{0};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> items{0};
};

struct Frame {
  int layer = 0;
  int64_t start = 0;
  int64_t child = 0;
};

struct ThreadRecorder {
  uint32_t tid = 0;
  Counters layers[kNumLayers];
  Frame stack[kMaxDepth];
  int depth = 0;
  int overflow = 0;  ///< spans opened past kMaxDepth (counted, not timed)
  std::vector<SpanRecord> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_record_spans{false};
std::atomic<uint64_t> g_span_budget{0};
std::atomic<uint64_t> g_dropped_spans{0};

// Recorders live until exit, so totals of threads that have ended (the
// engine's per-run pools) can still be read.
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadRecorder>>& Registry() {
  static auto* registry = new std::vector<std::unique_ptr<ThreadRecorder>>();
  return *registry;
}

std::mutex g_samples_mutex;
std::vector<CounterSample> g_samples;
uint64_t g_last_cost = 0, g_last_checks = 0, g_last_inserts = 0;

ThreadRecorder& Local() {
  thread_local ThreadRecorder* recorder = [] {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    auto owned = std::make_unique<ThreadRecorder>();
    owned->tid = static_cast<uint32_t>(Registry().size());
    ThreadRecorder* raw = owned.get();
    Registry().push_back(std::move(owned));
    return raw;
  }();
  return *recorder;
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void SetRecordSpans(bool on, uint64_t max_spans) {
  g_span_budget.store(max_spans, std::memory_order_relaxed);
  g_record_spans.store(on, std::memory_order_relaxed);
}

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void Begin(int layer, int64_t t_ns) {
  ThreadRecorder& r = Local();
  if (r.depth >= kMaxDepth) {
    ++r.overflow;
    return;
  }
  r.stack[r.depth++] = Frame{layer, t_ns, 0};
}

void End(int64_t t_ns, uint64_t hits, uint64_t items) {
  ThreadRecorder& r = Local();
  if (r.overflow > 0) {
    --r.overflow;
    return;
  }
  if (r.depth == 0) return;
  const Frame f = r.stack[--r.depth];
  const int64_t incl = t_ns > f.start ? t_ns - f.start : 0;
  const int64_t self = incl > f.child ? incl - f.child : 0;
  if (r.depth > 0) r.stack[r.depth - 1].child += incl;
  Counters& c = r.layers[f.layer];
  Bump(c.calls, 1);
  Bump(c.incl_ns, static_cast<uint64_t>(incl));
  Bump(c.self_ns, static_cast<uint64_t>(self));
  Bump(c.hits, hits);
  Bump(c.items, items);
  if (IsRoundLevel(f.layer) &&
      g_record_spans.load(std::memory_order_relaxed)) {
    uint64_t budget = g_span_budget.load(std::memory_order_relaxed);
    bool took = false;
    while (budget > 0 && !(took = g_span_budget.compare_exchange_weak(
                               budget, budget - 1, std::memory_order_relaxed))) {
    }
    if (took) {
      r.spans.push_back(SpanRecord{f.layer, r.tid, f.start, incl});
    } else {
      g_dropped_spans.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void SampleCounters(int64_t t_ns) {
  const std::array<LayerTotals, kNumLayers> totals = Aggregate();
  const uint64_t cost = totals[kCost].calls + totals[kCostMany].items;
  const uint64_t checks = totals[kCheck].calls;
  const uint64_t inserts = totals[kInsert].calls;
  std::lock_guard<std::mutex> lock(g_samples_mutex);
  g_samples.push_back(CounterSample{t_ns, cost - g_last_cost,
                                    checks - g_last_checks,
                                    inserts - g_last_inserts});
  g_last_cost = cost;
  g_last_checks = checks;
  g_last_inserts = inserts;
}

void Reset() {
  {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    for (auto& r : Registry()) {
      for (Counters& c : r->layers) {
        c.calls.store(0, std::memory_order_relaxed);
        c.incl_ns.store(0, std::memory_order_relaxed);
        c.self_ns.store(0, std::memory_order_relaxed);
        c.hits.store(0, std::memory_order_relaxed);
        c.items.store(0, std::memory_order_relaxed);
      }
      r->spans.clear();
    }
  }
  std::lock_guard<std::mutex> lock(g_samples_mutex);
  g_samples.clear();
  g_last_cost = g_last_checks = g_last_inserts = 0;
  g_dropped_spans.store(0, std::memory_order_relaxed);
}

std::array<LayerTotals, kNumLayers> Aggregate() {
  std::array<LayerTotals, kNumLayers> out{};
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& r : Registry()) {
    for (int l = 0; l < kNumLayers; ++l) {
      const Counters& c = r->layers[l];
      out[l].calls += c.calls.load(std::memory_order_relaxed);
      out[l].incl_ns += c.incl_ns.load(std::memory_order_relaxed);
      out[l].self_ns += c.self_ns.load(std::memory_order_relaxed);
      out[l].hits += c.hits.load(std::memory_order_relaxed);
      out[l].items += c.items.load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::vector<SpanRecord> CollectSpans() {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& r : Registry()) {
    out.insert(out.end(), r->spans.begin(), r->spans.end());
  }
  return out;
}

std::vector<CounterSample> CollectCounters() {
  std::lock_guard<std::mutex> lock(g_samples_mutex);
  return g_samples;
}

uint64_t DroppedSpans() {
  return g_dropped_spans.load(std::memory_order_relaxed);
}

std::string ChromeTraceJson(const std::vector<SpanRecord>& spans,
                            const std::vector<CounterSample>& counters) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[256];
  auto emit = [&](const char* text) {
    if (!first) out += ",\n";
    first = false;
    out += text;
  };
  uint32_t max_tid = 0;
  for (const SpanRecord& s : spans) max_tid = s.tid > max_tid ? s.tid : max_tid;
  for (uint32_t tid = 0; !spans.empty() && tid <= max_tid; ++tid) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"thread %u\"}}",
                  tid, tid);
    emit(buf);
  }
  for (const SpanRecord& s : spans) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"round\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                  LayerName(s.layer), s.tid, s.start_ns / 1e3,
                  s.dur_ns / 1e3);
    emit(buf);
  }
  for (const CounterSample& c : counters) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"calls per round\",\"ph\":\"C\",\"pid\":1,"
                  "\"ts\":%.3f,\"args\":{\"Cost\":%llu,\"CheckSchedule\":%llu,"
                  "\"BestInsertion\":%llu}}",
                  c.t_ns / 1e3, static_cast<unsigned long long>(c.cost_lookups),
                  static_cast<unsigned long long>(c.checks),
                  static_cast<unsigned long long>(c.inserts));
    emit(buf);
  }
  out += "]}\n";
  return out;
}

}  // namespace trace
}  // namespace srbench
