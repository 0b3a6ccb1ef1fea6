// Link-time wrappers around the library's module entry points. The
// benchmark links with `ld --wrap=<symbol>` for every symbol below (the list
// is wrapped_symbols.cmake), so each call the library makes to one of them
// from another object file lands here first; `__real_<symbol>` is the
// library's own definition. The library itself is unchanged. Calls a module
// makes to its own function inside one object file bypass the wrapper.
//
// While tracing is off the wrappers only forward, except the dispatcher
// factory: its forwarding dispatcher always times rounds (the replay
// workloads' decision latency) and enforces the service probes' wall cap.

#include "wrap.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "dispatch/dispatcher.h"
#include "dispatch/spatial_index.h"
#include "group/grouping.h"
#include "sim/event_queue.h"
#include "trace.h"

using namespace structride;

namespace srbench {
namespace {

constexpr size_t kReservedRounds = 1 << 17;

std::mutex g_rounds_mutex;
std::vector<double> g_round_ms;
std::atomic<uint64_t> g_sync_pair_checks{0};
std::atomic<uint64_t> g_sync_pruned{0};
std::atomic<uint64_t> g_sync_memo_hits{0};
std::atomic<uint64_t> g_capped{0};
std::atomic<int64_t> g_cap_deadline_ns{0};  ///< 0 = no cap

// Service latency. The engine stamps each push in seconds since its own
// run epoch (DispatchContext::pending_ingest_wall), which is not visible
// outside it. Every request a round presents was pushed before the round
// started, so round start (steady clock) minus the latest push stamp it
// presents bounds the epoch from above; the smallest such bound over the
// run is within a few microseconds of the epoch, since at the nominal rate
// some round starts right after a push.
struct LatencySample {
  double ingest_wall_s = 0;
  int64_t decided_ns = 0;
};
std::mutex g_latency_mutex;
std::vector<uint8_t> g_presented;  ///< by request id
std::vector<LatencySample> g_latency;
int64_t g_epoch_bound_ns = INT64_MAX;

void Add(std::atomic<uint64_t>& a, uint64_t d) {
  a.fetch_add(d, std::memory_order_relaxed);
}

// Times every round, and past the wall cap rejects the round's pending
// requests so a collapsed service run drains instead of running on. Peak
// memory and pair checks are re-exported from the wrapped dispatcher after
// each round, which is when the engine may read them.
class ForwardingDispatcher : public Dispatcher {
 public:
  ForwardingDispatcher(const DispatchConfig& config,
                       std::unique_ptr<Dispatcher> inner)
      : Dispatcher(config), inner_(std::move(inner)) {}

  void OnBatch(DispatchContext* ctx) override {
    const int64_t deadline = g_cap_deadline_ns.load(std::memory_order_relaxed);
    const int64_t t0 = trace::NowNs();
    if (deadline > 0 && t0 > deadline) {
      for (const Request* r : ctx->pending) ctx->rejected.push_back(r->id);
      Add(g_capped, ctx->pending.size());
      return;
    }
    const auto [first, last] = PresentLatency(*ctx, t0);
    const bool traced = trace::Enabled();
    if (traced) trace::Begin(kOnBatch, t0);
    inner_->OnBatch(ctx);
    const int64_t t1 = trace::NowNs();
    if (traced) {
      trace::End(t1);
      trace::SampleCounters(t1);
    }
    {
      std::lock_guard<std::mutex> lock(g_rounds_mutex);
      g_round_ms.push_back((t1 - t0) / 1e6);
    }
    if (last > first) {
      std::lock_guard<std::mutex> lock(g_latency_mutex);
      for (size_t k = first; k < last; ++k) g_latency[k].decided_ns = t1;
    }
    NotePeak(inner_->MemoryBytes());
    SetPairChecks(inner_->SharePairChecks());
  }

 private:
  // Service mode: tightens the epoch bound and appends a sample for each
  // request this round presents for the first time; the caller stamps the
  // returned range of samples with the round's end.
  static std::pair<size_t, size_t> PresentLatency(const DispatchContext& ctx,
                                                  int64_t t0) {
    const std::vector<double>& walls = ctx.pending_ingest_wall;
    if (walls.empty()) return {0, 0};
    const double latest = *std::max_element(walls.begin(), walls.end());
    std::lock_guard<std::mutex> lock(g_latency_mutex);
    g_epoch_bound_ns = std::min(
        g_epoch_bound_ns, t0 - static_cast<int64_t>(latest * 1e9));
    const size_t first = g_latency.size();
    for (size_t i = 0; i < ctx.pending.size(); ++i) {
      const size_t id = static_cast<size_t>(ctx.pending[i]->id);
      if (id >= g_presented.size()) g_presented.resize(id + 1, 0);
      if (g_presented[id]) continue;
      g_presented[id] = 1;
      g_latency.push_back(LatencySample{walls[i], 0});
    }
    return {first, g_latency.size()};
  }

  std::unique_ptr<Dispatcher> inner_;
};

// Opens a span on construction when tracing is on; Close() ends it.
class LayerSpan {
 public:
  explicit LayerSpan(int layer) : on_(trace::Enabled()) {
    if (on_) trace::Begin(layer, trace::NowNs());
  }
  void Close(uint64_t hits = 0, uint64_t items = 0) {
    if (on_) trace::End(trace::NowNs(), hits, items);
  }

 private:
  bool on_;
};

}  // namespace

void BeginRun(double cap_seconds, size_t num_requests) {
  // Reserved up front so the bookkeeping inside OnBatch does not allocate
  // on steady-state rounds (the engine counts allocations there).
  {
    std::lock_guard<std::mutex> lock(g_rounds_mutex);
    g_round_ms.clear();
    g_round_ms.reserve(kReservedRounds);
  }
  g_sync_pair_checks.store(0);
  g_sync_pruned.store(0);
  g_sync_memo_hits.store(0);
  g_capped.store(0);
  {
    std::lock_guard<std::mutex> lock(g_latency_mutex);
    g_presented.assign(num_requests, 0);
    g_latency.clear();
    g_latency.reserve(num_requests);
    g_epoch_bound_ns = INT64_MAX;
  }
  g_cap_deadline_ns.store(
      cap_seconds > 0
          ? trace::NowNs() + static_cast<int64_t>(cap_seconds * 1e9)
          : 0);
}

RunObservations EndRun() {
  RunObservations out;
  {
    std::lock_guard<std::mutex> lock(g_rounds_mutex);
    out.round_ms = g_round_ms;
  }
  out.sync_pair_checks = g_sync_pair_checks.load();
  out.sync_pruned_pairs = g_sync_pruned.load();
  out.sync_memo_hits = g_sync_memo_hits.load();
  out.capped_requests = g_capped.load();
  {
    std::lock_guard<std::mutex> lock(g_latency_mutex);
    out.latency_ms.reserve(g_latency.size());
    for (const LatencySample& l : g_latency) {
      out.latency_ms.push_back((l.decided_ns - g_epoch_bound_ns) / 1e6 -
                               l.ingest_wall_s * 1e3);
    }
  }
  g_cap_deadline_ns.store(0);
  return out;
}

}  // namespace srbench

// ---------------------------------------------------------------------------
// The wrapped symbols. Each `Real*` declaration names the library's
// definition, each `Wrap*` definition replaces it at link time. A member
// function is declared as a free function taking the object first, which is
// how the Itanium C++ ABI passes `this`.

#define SRBENCH_REAL(sym) __asm__("__real_" sym)
#define SRBENCH_WRAP(sym) __asm__("__wrap_" sym)

#define SYM_COST "_ZNK10structride16TravelCostEngine4CostEii"
#define SYM_COST_MANY "_ZNK10structride16TravelCostEngine8CostManyEiNS_4SpanIKiEEPd"
#define SYM_CHECK \
  "_ZN10structride13CheckScheduleERKNS_10RouteStateENS_4SpanIKNS_4StopEEEPNS_16TravelCostEngineE"
#define SYM_CHECK_LB \
  "_ZN10structride23CheckScheduleLowerBoundERKNS_10RouteStateENS_4SpanIKNS_4StopEEEPKNS_16TravelCostEngineE"
#define SYM_INSERT \
  "_ZN10structride13BestInsertionERKNS_10RouteStateENS_4SpanIKNS_4StopEEERKNS_7RequestEPNS_16TravelCostEngineERKNS_16InsertionOptionsE"
#define SYM_ENUMERATE \
  "_ZN10structride21EnumerateGroupsPooledERKNS_10RouteStateENS_4SpanIKNS_4StopEEENS3_IKPKNS_7RequestEEEPKNS_10ShareGraphEPNS_16TravelCostEngineERKNS_15GroupingOptionsEPNS_15GroupingScratchE"
#define SYM_SYNC \
  "_ZN10structride17ShareGraphBuilder13SyncToPendingERKSt6vectorIPKNS_7RequestESaIS4_EE"
#define SYM_REBUILD \
  "_ZN10structride8dispatch17FleetSpatialIndex7RebuildERKNS_9FleetViewERKNS_11RoadNetworkE"
#define SYM_QUERY "_ZNK10structride8dispatch17FleetSpatialIndex9QueryIntoEimdPm"
#define SYM_PUSH "_ZN10structride10EventQueue4PushERKNS_5EventE"
#define SYM_POP "_ZN10structride10EventQueue3PopEv"
#define SYM_MAKE_DISPATCHER \
  "_ZN10structride14MakeDispatcherERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_14DispatchConfigE"

namespace srbench_wrap {

using srbench::LayerSpan;
using dispatch::FleetSpatialIndex;

double RealCost(const TravelCostEngine*, NodeId, NodeId) SRBENCH_REAL(SYM_COST);
double WrapCost(const TravelCostEngine*, NodeId, NodeId) SRBENCH_WRAP(SYM_COST);
double WrapCost(const TravelCostEngine* self, NodeId s, NodeId t) {
  LayerSpan span(srbench::kCost);
  const double cost = RealCost(self, s, t);
  span.Close(0, 1);
  return cost;
}

void RealCostMany(const TravelCostEngine*, NodeId, Span<const NodeId>, double*)
    SRBENCH_REAL(SYM_COST_MANY);
void WrapCostMany(const TravelCostEngine*, NodeId, Span<const NodeId>, double*)
    SRBENCH_WRAP(SYM_COST_MANY);
void WrapCostMany(const TravelCostEngine* self, NodeId source,
                  Span<const NodeId> targets, double* out) {
  LayerSpan span(srbench::kCostMany);
  RealCostMany(self, source, targets, out);
  span.Close(0, targets.size());
}

std::pair<bool, double> RealCheck(const RouteState&, Span<const Stop>,
                                  TravelCostEngine*) SRBENCH_REAL(SYM_CHECK);
std::pair<bool, double> WrapCheck(const RouteState&, Span<const Stop>,
                                  TravelCostEngine*) SRBENCH_WRAP(SYM_CHECK);
std::pair<bool, double> WrapCheck(const RouteState& state,
                                  Span<const Stop> stops,
                                  TravelCostEngine* engine) {
  LayerSpan span(srbench::kCheck);
  const std::pair<bool, double> result = RealCheck(state, stops, engine);
  span.Close(result.first ? 1 : 0);
  return result;
}

std::pair<bool, double> RealCheckLb(const RouteState&, Span<const Stop>,
                                    const TravelCostEngine*)
    SRBENCH_REAL(SYM_CHECK_LB);
std::pair<bool, double> WrapCheckLb(const RouteState&, Span<const Stop>,
                                    const TravelCostEngine*)
    SRBENCH_WRAP(SYM_CHECK_LB);
std::pair<bool, double> WrapCheckLb(const RouteState& state,
                                    Span<const Stop> stops,
                                    const TravelCostEngine* engine) {
  LayerSpan span(srbench::kCheckLb);
  const std::pair<bool, double> result = RealCheckLb(state, stops, engine);
  span.Close(result.first ? 1 : 0);
  return result;
}

InsertionCandidate RealInsert(const RouteState&, Span<const Stop>,
                              const Request&, TravelCostEngine*,
                              const InsertionOptions&) SRBENCH_REAL(SYM_INSERT);
InsertionCandidate WrapInsert(const RouteState&, Span<const Stop>,
                              const Request&, TravelCostEngine*,
                              const InsertionOptions&) SRBENCH_WRAP(SYM_INSERT);
InsertionCandidate WrapInsert(const RouteState& state, Span<const Stop> stops,
                              const Request& request, TravelCostEngine* engine,
                              const InsertionOptions& options) {
  LayerSpan span(srbench::kInsert);
  InsertionCandidate c = RealInsert(state, stops, request, engine, options);
  span.Close(c.feasible ? 1 : 0);
  return c;
}

PooledGroupingResult RealEnumerate(const RouteState&, Span<const Stop>,
                                   Span<const Request* const>,
                                   const ShareGraph*, TravelCostEngine*,
                                   const GroupingOptions&, GroupingScratch*)
    SRBENCH_REAL(SYM_ENUMERATE);
PooledGroupingResult WrapEnumerate(const RouteState&, Span<const Stop>,
                                   Span<const Request* const>,
                                   const ShareGraph*, TravelCostEngine*,
                                   const GroupingOptions&, GroupingScratch*)
    SRBENCH_WRAP(SYM_ENUMERATE);
PooledGroupingResult WrapEnumerate(const RouteState& state,
                                   Span<const Stop> committed,
                                   Span<const Request* const> pool,
                                   const ShareGraph* graph,
                                   TravelCostEngine* engine,
                                   const GroupingOptions& options,
                                   GroupingScratch* scratch) {
  LayerSpan span(srbench::kEnumerate);
  PooledGroupingResult r = RealEnumerate(state, committed, pool, graph, engine,
                                         options, scratch);
  span.Close(0, r.count);
  return r;
}

void RealSync(ShareGraphBuilder*, const std::vector<const Request*>&)
    SRBENCH_REAL(SYM_SYNC);
void WrapSync(ShareGraphBuilder*, const std::vector<const Request*>&)
    SRBENCH_WRAP(SYM_SYNC);
void WrapSync(ShareGraphBuilder* self,
              const std::vector<const Request*>& pending) {
  const uint64_t checks = self->pair_checks();
  const uint64_t pruned = self->pruned_pairs();
  const uint64_t memo = self->memo_hits();
  LayerSpan span(srbench::kSync);
  RealSync(self, pending);
  span.Close();
  srbench::g_sync_pair_checks.fetch_add(self->pair_checks() - checks);
  srbench::g_sync_pruned.fetch_add(self->pruned_pairs() - pruned);
  srbench::g_sync_memo_hits.fetch_add(self->memo_hits() - memo);
}

void RealRebuild(FleetSpatialIndex*, const FleetView&, const RoadNetwork&)
    SRBENCH_REAL(SYM_REBUILD);
void WrapRebuild(FleetSpatialIndex*, const FleetView&, const RoadNetwork&)
    SRBENCH_WRAP(SYM_REBUILD);
void WrapRebuild(FleetSpatialIndex* self, const FleetView& fleet,
                 const RoadNetwork& net) {
  LayerSpan span(srbench::kSpatialRebuild);
  RealRebuild(self, fleet, net);
  span.Close();
}

size_t RealQuery(const FleetSpatialIndex*, NodeId, size_t, double, size_t*)
    SRBENCH_REAL(SYM_QUERY);
size_t WrapQuery(const FleetSpatialIndex*, NodeId, size_t, double, size_t*)
    SRBENCH_WRAP(SYM_QUERY);
size_t WrapQuery(const FleetSpatialIndex* self, NodeId from, size_t k,
                 double max_dist, size_t* out) {
  LayerSpan span(srbench::kSpatialQuery);
  const size_t n = RealQuery(self, from, k, max_dist, out);
  span.Close(0, n);
  return n;
}

void RealPush(EventQueue*, const Event&) SRBENCH_REAL(SYM_PUSH);
void WrapPush(EventQueue*, const Event&) SRBENCH_WRAP(SYM_PUSH);
void WrapPush(EventQueue* self, const Event& event) {
  LayerSpan span(srbench::kEventPush);
  RealPush(self, event);
  span.Close();
}

Event RealPop(EventQueue*) SRBENCH_REAL(SYM_POP);
Event WrapPop(EventQueue*) SRBENCH_WRAP(SYM_POP);
Event WrapPop(EventQueue* self) {
  LayerSpan span(srbench::kEventPop);
  Event e = RealPop(self);
  span.Close();
  return e;
}

std::unique_ptr<Dispatcher> RealMakeDispatcher(const std::string&,
                                               const DispatchConfig&)
    SRBENCH_REAL(SYM_MAKE_DISPATCHER);
std::unique_ptr<Dispatcher> WrapMakeDispatcher(const std::string&,
                                               const DispatchConfig&)
    SRBENCH_WRAP(SYM_MAKE_DISPATCHER);
std::unique_ptr<Dispatcher> WrapMakeDispatcher(const std::string& name,
                                               const DispatchConfig& config) {
  return std::make_unique<srbench::ForwardingDispatcher>(
      config, RealMakeDispatcher(name, config));
}

}  // namespace srbench_wrap
