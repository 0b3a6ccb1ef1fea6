// srbench: the StructRide benchmark program.
//
//   srbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One process per workload run. It builds its inputs from --seed through the
// library's public API (DatasetByName, BuildGraph, TravelCostEngine,
// GenerateWorkload, SimulationEngine::Run), measures for --seconds, checks
// the outputs, prints a human-readable table and, as the last line of
// stdout, one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end ones, from untraced runs; with
// --trace 1 they are the per-module ones, from runs with the link-time
// wrappers timing every module entry point (wrap.cc), and a Chrome trace is
// written. Workloads, metrics and known gaps: README.md beside this file.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "sim/datasets.h"
#include "sim/engine.h"
#include "sim/workload.h"
#include "speed.h"
#include "stats.h"
#include "trace.h"
#include "wrap.h"

using namespace structride;
using namespace srbench;

namespace {

// ------------------------------------------------------------ workloads --

struct Shape {
  const char* name;
  const char* algorithm;
  double scale;     ///< DatasetByName scale of the NYC preset
  double compress;  ///< the arrival window is divided by this
  int grid;         ///< city rows = cols at NYC's extent (0 = preset 48)
  int shards;
  double nominal_qps;  ///< > 0: also probe service mode at this rate
};

constexpr Shape kShapes[] = {
    {"sard-rush", "SARD", 8, 6, 0, 1, 0},
    {"gas-bigcity", "GAS", 1.5, 1, 96, 1, 0},
    {"stream-sharded", "SARD", 8, 6, 0, 4, 4000},
};

// Measured replays run single-threaded: a multi-threaded replay's dispatch
// time on 4 shared cores spread 15% over five seeds, against 2% serial.
// Service probes use 3 pool threads, plus the engine's ingestion thread: 4
// threads on 4 cores, so shard concurrency shows in service latency.
constexpr int kServiceThreads = 3;
// The thread-count check runs SARD's acceptance stage on this many threads.
constexpr int kCheckThreads = 4;

// Service-mode constants: the latency SLO a ladder rung must meet, the rate
// ladder, the shares of the stream the nominal and ladder probes replay, and
// the probe wall cap as a multiple of the arrival phase (plus a fixed drain
// allowance).
constexpr double kSloP99Ms = 100;
constexpr double kLadder[] = {1000,  1400,  2000,  2800,  4000,
                              5600,  8000,  11200, 16000, 22400,
                              32000, 45000, 64000, 90000, 128000};
constexpr double kNominalStreamShare = 0.5;
constexpr double kLadderStreamShare = 0.25;
constexpr double kCapFactor = 2;
constexpr double kCapSlackS = 3;

// Set-up repeats: at least kMinSetups, more while they take under
// kSetupBudgetS in total, at most kMaxSetups.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupBudgetS = 3;
constexpr uint64_t kMaxTraceSpans = 1u << 18;

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// The request stream is the preset's own fixed demand pattern, as the paper
// evaluates on fixed trip datasets; --seed draws the fleet (MakeSimOptions).
DatasetSpec MakeSpec(const Shape& shape) {
  DatasetSpec spec = DatasetByName("NYC", shape.scale);
  if (shape.grid > 0) {
    // Same extent as the preset city, finer street grid.
    const double extent = (spec.city.rows - 1) * spec.city.block;
    spec.city.rows = spec.city.cols = shape.grid;
    spec.city.block = extent / (shape.grid - 1);
  }
  spec.workload.duration /= shape.compress;
  return spec;
}

DispatchConfig MakeConfig(const DatasetSpec& spec, const Shape& shape,
                          int threads, bool parallel_acceptance) {
  DispatchConfig config;
  config.vehicle_capacity = spec.capacity;
  config.grouping.max_group_size = spec.capacity;
  config.sharegraph.vehicle_capacity = spec.capacity;
  config.num_threads = threads;
  config.sard_parallel_acceptance = parallel_acceptance;
  config.num_shards = shape.shards;
  return config;
}

// A measured replay run replays the stream under this many fleets, each
// spawned from its own seed drawn from --seed. How much work a replay does
// depends on where the fleet spawns (up to ±10% on gas-bigcity), so one
// fleet would make the measurement mostly a measurement of the seed.
constexpr int kFleetsPerRun = 4;

uint64_t FleetSeed(uint64_t seed, int fleet) {
  return 4242 + kFleetsPerRun * seed + static_cast<uint64_t>(fleet);
}

SimulationOptions MakeSimOptions(const Shape& shape, uint64_t fleet_seed) {
  SimulationOptions options;
  options.batch_period = 5;
  options.seed = fleet_seed;  // spawn positions
  options.dataset = shape.name;
  return options;
}

// ---------------------------------------------------------------- setup --

struct Setup {
  DatasetSpec spec;
  GraphBundle graph;
  std::unique_ptr<TravelCostEngine> engine;
  std::vector<Request> requests;
  double graph_s = 0;
  double index_s = 0;
  double stream_s = 0;
};

std::unique_ptr<Setup> BuildSetup(const DatasetSpec& spec) {
  auto s = std::make_unique<Setup>();
  s->spec = spec;
  auto t0 = std::chrono::steady_clock::now();
  s->graph = BuildGraph(&s->spec);
  s->graph_s = Seconds(t0);
  t0 = std::chrono::steady_clock::now();
  TravelCostOptions options;
  options.prebuilt_hub_labels = s->graph.hub_labels.get();
  options.prebuilt_ch = s->graph.ch.get();
  s->engine = std::make_unique<TravelCostEngine>(s->graph.network, options);
  s->index_s = Seconds(t0);
  t0 = std::chrono::steady_clock::now();
  s->requests = GenerateWorkload(s->graph.network, s->engine.get(),
                                 s->spec.policy, s->spec.workload);
  s->stream_s = Seconds(t0);
  return s;
}

// ----------------------------------------------------------------- runs --

struct Outcome {
  RunMetrics m;
  double run_s = 0;
  RunObservations obs;
  std::array<LayerTotals, kNumLayers> layers{};
  uint64_t lookups = 0;  ///< travel-cost lookups during Run
  uint64_t queries = 0;  ///< backend computations during Run
  bool stream_matches = true;
  double cap_s = 0;  ///< service probes: the wall cap
};

// Everything a replay must reproduce bit for bit.
struct ReplayKey {
  int served = 0;
  uint64_t cost_bits = 0;
  uint64_t sp_queries = 0;
  uint64_t pair_checks = 0;
  bool operator==(const ReplayKey& o) const {
    return served == o.served && cost_bits == o.cost_bits &&
           sp_queries == o.sp_queries && pair_checks == o.pair_checks;
  }
};

ReplayKey KeyOf(const RunMetrics& m) {
  ReplayKey k;
  k.served = m.served;
  std::memcpy(&k.cost_bits, &m.unified_cost, sizeof(k.cost_bits));
  k.sp_queries = m.sp_queries;
  k.pair_checks = m.sharegraph_pair_checks;
  return k;
}

bool SameStream(const std::vector<Request>& a, const std::vector<Request>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].source != b[i].source ||
        a[i].destination != b[i].destination ||
        std::memcmp(&a[i].release_time, &b[i].release_time, sizeof(double)) ||
        std::memcmp(&a[i].deadline, &b[i].deadline, sizeof(double))) {
      return false;
    }
  }
  return true;
}

// Runs the simulation with tracing switched as asked and collects the
// wrappers' observations. \p cache is the engine Run queries (its counters
// give lookups and backend queries, partitions included once destroyed).
Outcome Simulate(TravelCostEngine* cache, std::vector<Request> requests,
                 const Setup& s, const SimulationOptions& options,
                 const DispatchConfig& config, const char* algorithm,
                 bool traced, double cap_s) {
  Outcome o;
  const size_t num_requests = requests.size();
  const uint64_t l0 = cache->num_lookups();
  const uint64_t q0 = cache->num_queries();
  {
    SimulationEngine sim(cache, std::move(requests), options);
    sim.SpawnFleet(s.spec.num_vehicles, s.spec.capacity);
    trace::Reset();
    trace::SetRecordSpans(traced, kMaxTraceSpans);
    BeginRun(cap_s, num_requests);
    trace::SetEnabled(traced);
    const auto t0 = std::chrono::steady_clock::now();
    o.m = sim.Run(algorithm, config);
    o.run_s = Seconds(t0);
    trace::SetEnabled(false);
    o.obs = EndRun();
    o.layers = trace::Aggregate();
  }
  o.lookups = cache->num_lookups() - l0;
  o.queries = cache->num_queries() - q0;
  return o;
}

// One replay of the whole stream from a cold cache. On one shard it runs on
// a fresh cache partition of the set-up engine, re-generating the stream
// through it as a fresh process would. Geo-shards already query fresh
// partitions of the set-up engine (partitions cannot be partitioned), so
// there it runs on the set-up engine and stream.
Outcome RunReplay(const Setup& s, const Shape& shape, uint64_t fleet_seed,
                  int threads, bool parallel_acceptance, bool traced) {
  const SimulationOptions options = MakeSimOptions(shape, fleet_seed);
  const DispatchConfig config =
      MakeConfig(s.spec, shape, threads, parallel_acceptance);
  if (shape.shards > 1) {
    return Simulate(s.engine.get(), s.requests, s, options, config,
                    shape.algorithm, traced, 0);
  }
  const TravelCostOptions& root = s.engine->options();
  std::unique_ptr<TravelCostEngine> cache =
      s.engine->MakeCachePartition(root.cache_capacity, root.cache_shards);
  std::vector<Request> requests = GenerateWorkload(
      s.graph.network, cache.get(), s.spec.policy, s.spec.workload);
  const bool same = SameStream(requests, s.requests);
  Outcome o = Simulate(cache.get(), std::move(requests), s, options, config,
                       shape.algorithm, traced, 0);
  o.stream_matches = same;
  return o;
}

// One open-loop service probe at \p qps over the first \p n requests, on
// the set-up engine (geo-shards take fresh cache partitions of it), with a
// wall cap past which the remaining requests are turned away.
Outcome RunProbe(const Setup& s, const Shape& shape, uint64_t fleet_seed,
                 double qps, size_t n, bool traced) {
  SimulationOptions options = MakeSimOptions(shape, fleet_seed);
  options.service_mode = true;
  options.service_qps = qps;
  std::vector<Request> requests(s.requests.begin(), s.requests.begin() + n);
  const double cap_s = kCapFactor * static_cast<double>(n) / qps + kCapSlackS;
  Outcome o = Simulate(s.engine.get(), std::move(requests), s, options,
                       MakeConfig(s.spec, shape, kServiceThreads, false),
                       shape.algorithm, traced, cap_s);
  o.cap_s = cap_s;
  return o;
}

// ------------------------------------------------------------- metrics --

// Requests that failed: shed at admission or turned away past the cap.
uint64_t Misses(const Outcome& o) {
  return o.m.shed_requests + o.obs.capped_requests;
}

// Service latency over every offered request; one that never got a decision
// counts as a miss and reads as the probe's wall cap.
Percentile ServiceLatency(const Outcome& o, double p) {
  const uint64_t total = static_cast<uint64_t>(o.m.total_requests);
  const uint64_t decided = o.obs.latency_ms.size();
  Percentile q = NearestRankWithMisses(o.obs.latency_ms,
                                       total > decided ? total - decided : 0, p);
  if (std::isinf(q.value)) q.value = o.cap_s * 1e3;
  return q;
}

bool Sustained(const Outcome& o) {
  return Misses(o) == 0 && ServiceLatency(o, 0.99).value <= kSloP99Ms;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// How a metric's values in one process are reduced to the reported figure.
// Wall-clock figures take the best repetition of each fixed input: noise
// from the machine only ever adds time, so the best of several is the
// steadiest estimate of the code's own cost. Replay figures then average
// over the fleets; everything else takes the median.
enum class Reduce { kMedian, kMean, kMin };

struct Metric {
  std::string name;
  std::string unit;
  Reduce reduce = Reduce::kMedian;
  std::vector<double> values;

  double Value() const {
    if (values.empty()) return 0;
    switch (reduce) {
      case Reduce::kMean: {
        double sum = 0;
        for (double v : values) sum += v;
        return sum / static_cast<double>(values.size());
      }
      case Reduce::kMin:
        return *std::min_element(values.begin(), values.end());
      case Reduce::kMedian:
        break;
    }
    return Median(values);
  }
};

class MetricTable {
 public:
  void Add(const std::string& name, const std::string& unit, double value,
           Reduce reduce = Reduce::kMedian) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.values.push_back(value);
        return;
      }
    }
    metrics_.push_back(Metric{name, unit, reduce, {value}});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;  ///< insertion order = print order
};

// What a replay run contributes to the end-to-end metrics.
struct ReplaySample {
  double wall_s = 0;
  std::vector<double> round_ms;  ///< each round's decision time, in order
  double service_rate = 0;
  double unified_cost = 0;
  int requests = 0;
};

// \p speed converts the replay's wall-clock figures to reference seconds.
ReplaySample SampleOf(const Outcome& o, double speed) {
  std::vector<double> round_ms = o.obs.round_ms;
  for (double& ms : round_ms) ms *= speed;
  return ReplaySample{o.run_s * speed,
                      std::move(round_ms),
                      o.m.service_rate,
                      o.m.unified_cost,
                      o.m.total_requests};
}

// Each round's best time over the repetitions of one fleet. Repetitions
// replay the same rounds in the same order (their outcomes are checked
// equal), so a round slowed by the host in one repetition reads its time
// from another.
std::vector<double> BestRounds(const std::vector<ReplaySample>& reps) {
  std::vector<double> best = reps.front().round_ms;
  for (const ReplaySample& r : reps) {
    best.resize(std::min(best.size(), r.round_ms.size()));
    for (size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], r.round_ms[i]);
    }
  }
  return best;
}

// Replay metrics from every repetition of every fleet: each fleet's best
// repetition for Run wall, each round's best for dispatch time and round
// latency, then the mean over the fleets.
void AddReplayMetrics(MetricTable* t,
                      const std::vector<std::vector<ReplaySample>>& by_fleet) {
  auto best = [](const std::vector<ReplaySample>& reps, auto field) {
    double b = field(reps.front());
    for (const ReplaySample& r : reps) b = std::min(b, field(r));
    return b;
  };
  for (const std::vector<ReplaySample>& reps : by_fleet) {
    const double wall = best(reps, [](const ReplaySample& r) { return r.wall_s; });
    const std::vector<double> rounds = BestRounds(reps);
    double dispatch_ms = 0;
    for (double ms : rounds) dispatch_ms += ms;
    t->Add("dispatch_s", "s", dispatch_ms / 1e3, Reduce::kMean);
    t->Add("replay_rps", "requests/s", reps.front().requests / wall,
           Reduce::kMean);
    t->Add("service_rate", "ratio", reps.front().service_rate, Reduce::kMean);
    t->Add("unified_cost", "cost", reps.front().unified_cost, Reduce::kMean);
    t->Add("latency_p50_ms", "ms", NearestRank(rounds, 0.5).value,
           Reduce::kMean);
    t->Add("latency_p99_ms", "ms", NearestRank(rounds, 0.99).value,
           Reduce::kMean);
  }
}

double Sec(uint64_t ns) { return ns / 1e9; }
double Frac(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

// \p o is a traced run; \p base the untraced run, which gives the
// allocation guards (span recording allocates on traced rounds).
void AddPerModule(MetricTable* t, const Outcome& o, const Outcome& base) {
  const auto& L = o.layers;
  t->Add("roadnet.cost.lookups", "count", o.lookups);
  t->Add("roadnet.cost.backend_queries", "count", o.queries);
  t->Add("roadnet.cost.hit_rate", "ratio", 1 - Frac(o.queries, o.lookups));
  t->Add("roadnet.cost.self_s", "s",
         Sec(L[kCost].self_ns + L[kCostMany].self_ns));
  t->Add("core.insert.calls", "count", L[kInsert].calls);
  t->Add("core.insert.self_s", "s", Sec(L[kInsert].self_ns));
  t->Add("core.insert.feasible_frac", "ratio",
         Frac(L[kInsert].hits, L[kInsert].calls));
  t->Add("core.check.calls", "count", L[kCheck].calls);
  t->Add("core.check.self_s", "s", Sec(L[kCheck].self_ns));
  t->Add("core.check.feasible_frac", "ratio",
         Frac(L[kCheck].hits, L[kCheck].calls));
  t->Add("core.check_lb.calls", "count", L[kCheckLb].calls);
  t->Add("group.enumerate.calls", "count", L[kEnumerate].calls);
  t->Add("group.enumerate.self_s", "s", Sec(L[kEnumerate].self_ns));
  t->Add("group.enumerate.groups", "count", L[kEnumerate].items);
  t->Add("sharegraph.sync.calls", "count", L[kSync].calls);
  t->Add("sharegraph.sync.incl_s", "s", Sec(L[kSync].incl_ns));
  t->Add("sharegraph.sync.self_s", "s", Sec(L[kSync].self_ns));
  t->Add("sharegraph.sync.pair_checks", "count", o.obs.sync_pair_checks);
  t->Add("sharegraph.sync.pruned_pairs", "count", o.obs.sync_pruned_pairs);
  t->Add("sharegraph.sync.memo_hits", "count", o.obs.sync_memo_hits);
  t->Add("dispatch.batch.calls", "count", L[kOnBatch].calls);
  t->Add("dispatch.batch.self_s", "s", Sec(L[kOnBatch].self_ns));
  t->Add("dispatch.round_ms.p50", "ms", NearestRank(o.obs.round_ms, 0.5).value);
  t->Add("dispatch.round_ms.p99", "ms",
         NearestRank(o.obs.round_ms, 0.99).value);
  t->Add("dispatch.spatial.rebuild_s", "s", Sec(L[kSpatialRebuild].incl_ns));
  t->Add("dispatch.spatial.query.calls", "count", L[kSpatialQuery].calls);
  t->Add("dispatch.spatial.query.self_s", "s", Sec(L[kSpatialQuery].self_ns));
  t->Add("dispatch.shard.round_imbalance", "ratio",
         o.m.shard_round_time_max_over_mean);
  t->Add("dispatch.shard.load_imbalance", "ratio",
         o.m.shard_load_max_over_mean);
  t->Add("dispatch.shard.cross_trips", "count", o.m.cross_shard_trips);
  t->Add("dispatch.memory_bytes", "bytes", o.m.memory_bytes);
  t->Add("sim.engine.self_s", "s",
         std::max(0.0, o.run_s - Sec(L[kOnBatch].incl_ns)));
  t->Add("sim.event_queue.ops", "count",
         L[kEventPush].calls + L[kEventPop].calls);
  t->Add("sim.event_queue.self_s", "s",
         Sec(L[kEventPush].self_ns + L[kEventPop].self_ns));
  t->Add("sim.ingest.depth_max", "count", o.m.ingest_queue_depth_max);
  t->Add("sim.ingest.shed", "count", o.m.shed_requests);
  // Ingest-to-decision on service probes, like service.latency_p99_ms;
  // per-round decision time on replays, like latency_p99_ms.
  t->Add("sim.latency_p999_ms", "ms",
         o.obs.latency_ms.empty() ? NearestRank(o.obs.round_ms, 0.999).value
                                  : ServiceLatency(o, 0.999).value);
  t->Add("util.alloc.per_batch_max", "count", base.m.allocs_per_batch_max);
  t->Add("util.arena.peak_bytes", "bytes", base.m.arena_peak_bytes);
}

// ---------------------------------------------------------------- checks --

class Checker {
 public:
  void Expect(bool ok, const std::string& what) {
    ++made_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "srbench: CHECK FAILED: %s\n", what.c_str());
    }
  }
  void Outputs(const Outcome& o, const std::string& label) {
    const RunMetrics& m = o.m;
    const uint64_t accounted = static_cast<uint64_t>(m.served) + m.expired +
                               m.cancelled + m.rejected + m.shed_requests;
    Expect(accounted == static_cast<uint64_t>(m.total_requests),
           label + ": served + expired + cancelled + rejected + shed = total");
    Expect(m.late_dropoffs == 0, label + ": no late dropoffs");
    Expect(o.stream_matches, label + ": regenerated stream is the set-up one");
  }
  int made() const { return made_; }
  int failed() const { return failed_; }

 private:
  int made_ = 0;
  int failed_ = 0;
};

// ------------------------------------------------------------------ main --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && a->seconds > 0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      a->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

void PrintSetups(const std::vector<double>& graph_s,
                 const std::vector<double>& index_s,
                 const std::vector<double>& stream_s) {
  std::printf("%-8s%14s%14s%14s\n", "setup", "graph_s", "index_s",
              "stream_s");
  for (size_t i = 0; i < graph_s.size(); ++i) {
    std::printf("%-8zu%14.4f%14.4f%14.4f\n", i, graph_s[i], index_s[i],
                stream_s[i]);
  }
}

void PrintTable(const MetricTable& t) {
  std::printf("%-34s%16s  %-12s%s\n", "metric", "value", "unit", "runs");
  for (const Metric& m : t.metrics()) {
    std::printf("%-34s%16.6g  %-12s%zu\n", m.name.c_str(), m.Value(),
                m.unit.c_str(), m.values.size());
  }
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricTable& t) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[128];
  bool first = true;
  for (const Metric& m : t.metrics()) {
    double v = m.Value();
    if (!std::isfinite(v)) v = 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: srbench --workload <sard-rush|gas-bigcity|"
               "stream-sharded> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

struct SetupTimes {
  std::vector<double> total;  ///< reference seconds (speed.h)
  std::vector<double> graph, index, stream;  ///< measured seconds
};

// What one invocation accumulates: the metric table, the output checks and
// the operation counts of the result line.
struct Bench {
  Bench(const Shape& shape_in, const Args& args_in, const Setup& setup_in,
          SpeedGauge& gauge_in)
      : shape(shape_in), args(args_in), setup(setup_in), gauge(gauge_in) {}

  const Shape& shape;
  const Args& args;
  const Setup& setup;
  SpeedGauge& gauge;
  Checker check;
  MetricTable table;
  uint64_t offered = 0;
  uint64_t failed_requests = 0;

  bool service() const { return shape.nominal_qps > 0; }
  size_t nominal_requests() const {
    return static_cast<size_t>(setup.requests.size() * kNominalStreamShare);
  }
  // Shed and capped requests are failed operations, except on ladder
  // probes, whose job is to find the rate where they start.
  void Account(const Outcome& o, const std::string& label,
               bool misses_fail = true) {
    check.Outputs(o, label);
    offered += static_cast<uint64_t>(o.m.total_requests);
    if (misses_fail) failed_requests += Misses(o);
  }
};

// --trace 0: repeat untraced runs for --seconds. A run replays the stream
// under each of the seed's fleets. On the service workload one probe at the
// nominal rate follows, for its output checks and its misses: its latency is
// wall-clock scheduling on a shared host, a per-module figure (--trace 1).
void MeasureEndToEnd(Bench* s, const SetupTimes& times) {
  const auto t0 = std::chrono::steady_clock::now();
  for (double v : times.total) s->table.Add("setup_s", "s", v);
  std::vector<ReplayKey> first_keys;  // per fleet, from run 0
  std::vector<std::vector<ReplaySample>> by_fleet(kFleetsPerRun);
  size_t samples = 0;
  int runs = 0;
  // Each replay's speed factor averages the gauge readings on either side.
  double speed_before = s->gauge.Factor();
  while (runs == 0 || Seconds(t0) < s->args.seconds) {
    const std::string label = "run " + std::to_string(runs);
    for (int k = 0; k < kFleetsPerRun; ++k) {
      Outcome o = RunReplay(s->setup, s->shape, FleetSeed(s->args.seed, k),
                            1, false, false);
      const double speed_after = s->gauge.Factor();
      const double speed = (speed_before + speed_after) / 2;
      speed_before = speed_after;
      s->Account(o, label);
      if (runs == 0) first_keys.push_back(KeyOf(o.m));
      s->check.Expect(KeyOf(o.m) == first_keys[k],
                      label + ", fleet " + std::to_string(k) +
                          ": replay outcome equals run 0 (same seed)");
      samples = o.obs.round_ms.size();
      by_fleet[k].push_back(SampleOf(o, speed));
      std::printf("%s, fleet %d: dispatch %.4f s (speed %.3f), served %d\n",
                  label.c_str(), k, o.m.running_time, speed, o.m.served);
    }
    ++runs;
  }
  std::printf("%d measured run(s); latency percentiles over %zu %s\n", runs,
              samples,
              s->shape.shards > 1 ? "shard rounds per replay"
                                  : "dispatch rounds per replay");
  AddReplayMetrics(&s->table, by_fleet);
  if (s->service()) {
    const Outcome o = RunProbe(s->setup, s->shape, FleetSeed(s->args.seed, 0),
                               s->shape.nominal_qps, s->nominal_requests(),
                               false);
    s->Account(o, "probe");
    std::printf("probe: p50 %.4f ms, p99 %.4f ms over %llu offered, shed "
                "%llu\n",
                ServiceLatency(o, 0.5).value, ServiceLatency(o, 0.99).value,
                static_cast<unsigned long long>(ServiceLatency(o, 0.99).samples),
                static_cast<unsigned long long>(o.m.shed_requests));
  }
  // Thread-count invariance where the thread count changes the execution:
  // geo-shards run concurrently on the pool, and so does SARD's acceptance
  // stage when asked. GAS on one shard builds no pool, so a multi-threaded
  // run would be the same serial code.
  const bool sharded = s->shape.shards > 1;
  if (sharded || std::strcmp(s->shape.algorithm, "SARD") == 0) {
    const int threads = sharded ? kServiceThreads : kCheckThreads;
    Outcome o = RunReplay(s->setup, s->shape, FleetSeed(s->args.seed, 0),
                          threads, !sharded, false);
    s->Account(o, "thread-count run");
    s->check.Expect(KeyOf(o.m) == first_keys[0],
                    "replay outcome at " + std::to_string(threads) +
                        " threads equals 1 thread");
  }
}

// The highest rung of the rate ladder that meets the SLO with nothing shed
// inside the wall cap, probed untraced on a prefix of the stream: up from
// the nominal rate while sustained, or down until a rung is.
double LadderMaxQps(Bench* s, uint64_t fleet) {
  const size_t n =
      static_cast<size_t>(s->setup.requests.size() * kLadderStreamShare);
  const size_t rungs = sizeof(kLadder) / sizeof(kLadder[0]);
  size_t i = 0;
  while (i + 1 < rungs && kLadder[i] < s->shape.nominal_qps) ++i;
  auto sustained = [&](size_t rung) {
    Outcome o = RunProbe(s->setup, s->shape, fleet, kLadder[rung], n, false);
    s->Account(o, "ladder probe", false);
    const bool ok = Sustained(o);
    std::printf("ladder %8.0f qps: p99 %.3f ms, shed %llu, capped %llu, %s\n",
                kLadder[rung], ServiceLatency(o, 0.99).value,
                static_cast<unsigned long long>(o.m.shed_requests),
                static_cast<unsigned long long>(o.obs.capped_requests),
                ok ? "sustained" : "not sustained");
    return ok;
  };
  if (sustained(i)) {
    while (i + 1 < rungs && sustained(i + 1)) ++i;
    return kLadder[i];
  }
  while (i > 0) {
    if (sustained(--i)) return kLadder[i];
  }
  return 0;
}

// --trace 1: an untraced run, then traced runs for --seconds, one fleet;
// shares, not totals, are what the traced run is for. Replay outcomes must
// agree bitwise between the two.
void MeasureTraced(Bench* s, const SetupTimes& times) {
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t fleet = FleetSeed(s->args.seed, 0);
  auto run = [&](bool traced) {
    return s->service()
               ? RunProbe(s->setup, s->shape, fleet, s->shape.nominal_qps,
                          s->nominal_requests(), traced)
               : RunReplay(s->setup, s->shape, fleet, 1, false, traced);
  };
  const Outcome base = run(false);
  s->Account(base, "untraced run");
  std::string trace_json;
  for (int runs = 0; runs == 0 || Seconds(t0) < s->args.seconds; ++runs) {
    const Outcome o = run(true);
    s->Account(o, "traced run " + std::to_string(runs));
    std::printf("traced run %d: %.4f s of Run wall (untraced %.4f s)\n", runs,
                o.run_s, base.run_s);
    if (!s->service()) {
      s->check.Expect(KeyOf(o.m) == KeyOf(base.m),
                      "traced replay outcome equals untraced");
    }
    if (runs == 0) {
      trace_json = trace::ChromeTraceJson(trace::CollectSpans(),
                                          trace::CollectCounters());
      if (trace::DroppedSpans() > 0) {
        std::printf("trace: %llu round-level spans beyond the %llu kept\n",
                    static_cast<unsigned long long>(trace::DroppedSpans()),
                    static_cast<unsigned long long>(kMaxTraceSpans));
      }
    }
    s->table.Add("roadnet.graph_build_s", "s", Median(times.graph));
    s->table.Add("roadnet.index_build_s", "s", Median(times.index));
    s->table.Add("sim.workload.generate_s", "s", Median(times.stream));
    AddPerModule(&s->table, o, base);
    s->table.Add("trace.overhead", "ratio", o.run_s / base.run_s);
  }
  s->table.Add("service.max_sustained_qps", "requests/s",
               s->service() ? LadderMaxQps(s, fleet) : 0);
  // The nominal probe's ingest-to-decision latency, untraced.
  s->table.Add("service.latency_p50_ms", "ms",
               s->service() ? ServiceLatency(base, 0.5).value : 0);
  s->table.Add("service.latency_p99_ms", "ms",
               s->service() ? ServiceLatency(base, 0.99).value : 0);
  s->table.Add("service.shed_frac", "ratio",
               Frac(base.m.shed_requests,
                    static_cast<uint64_t>(base.m.total_requests)));

  const std::string path = "srbench-out/trace-" + std::string(s->shape.name) +
                           "-seed" + std::to_string(s->args.seed) + ".json";
  std::error_code ec;
  std::filesystem::create_directories("srbench-out", ec);
  std::ofstream out(path);
  out << trace_json;
  out.close();
  s->check.Expect(!ec && out.good(), "trace written to " + path);
  std::printf("trace: %s (%zu bytes)\n", path.c_str(), trace_json.size());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  const Shape* shape = nullptr;
  for (const Shape& s : kShapes) {
    if (args.workload == s.name) shape = &s;
  }
  if (shape == nullptr) return Usage();
  // BuildGraph would silently swap the preset city for this file.
  if (std::getenv("STRUCTRIDE_GRAPH_FILE") != nullptr) {
    std::fprintf(stderr,
                 "srbench: STRUCTRIDE_GRAPH_FILE is set; refusing to run "
                 "(it would replace the benchmark's city)\n");
    return 2;
  }

  // Set-up, several times; the last one is kept for the runs.
  const DatasetSpec spec = MakeSpec(*shape);
  std::unique_ptr<Setup> kept;
  SetupTimes times;
  SpeedGauge gauge;
  double speed_before = gauge.Factor();
  const auto t_setup = std::chrono::steady_clock::now();
  while (times.total.size() < static_cast<size_t>(kMinSetups) ||
         (times.total.size() < static_cast<size_t>(kMaxSetups) &&
          Seconds(t_setup) < kSetupBudgetS)) {
    kept.reset();  // one index in memory at a time
    kept = BuildSetup(spec);
    times.graph.push_back(kept->graph_s);
    times.index.push_back(kept->index_s);
    times.stream.push_back(kept->stream_s);
    const double speed_after = gauge.Factor();
    times.total.push_back((kept->graph_s + kept->index_s + kept->stream_s) *
                          (speed_before + speed_after) / 2);
    speed_before = speed_after;
  }
  std::printf("srbench %s seed %llu: %zu nodes, %zu requests, %d vehicles, "
              "%s, %d shard(s)%s\n",
              shape->name, static_cast<unsigned long long>(args.seed),
              kept->graph.network.num_nodes(), kept->requests.size(),
              kept->spec.num_vehicles, shape->algorithm, shape->shards,
              args.trace ? ", traced" : "");
  PrintSetups(times.graph, times.index, times.stream);

  Bench bench(*shape, args, *kept, gauge);
  if (args.trace) {
    MeasureTraced(&bench, times);
  } else {
    MeasureEndToEnd(&bench, times);
    bench.table.Add("peak_rss_mb", "MB", PeakRssMb());
  }

  PrintTable(bench.table);
  const Checker& check = bench.check;
  const bool correct = check.failed() == 0;
  std::printf("%s\n",
              ResultJson(correct,
                         bench.offered + static_cast<uint64_t>(check.made()),
                         bench.failed_requests + check.failed(),
                         bench.table)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
