/// Serving benchmark for the TPA stack: one process per run, driving the
/// library only through its public functions.  `run.py` in this directory
/// builds this binary and calls it; README.md describes the workloads and
/// the metrics.
///
///   tpa_perfbench prepare --workload W --seed N --dir D [--toy 1]
///   tpa_perfbench run --workload W --seed N --seconds S --trace 0|1
///                     [--dir D] [--trace-out PATH] [--toy 1]
///
/// `prepare` is the untimed preparation of the snapshot workload (build,
/// preprocess, save into D).  `run` prints one `{"record": ...}` line with
/// the host and traffic record, then the result object as its last line.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/cpi.h"
#include "core/tpa.h"
#include "engine/async_query_engine.h"
#include "engine/query_engine.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "method/tpa_method.h"
#include "snapshot/snapshot.h"
#include "util/cache_info.h"
#include "util/mem_stats.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace tpa {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------- workloads

enum class Traffic { kClosedTopK, kBatchDense, kOpenDense };

/// One workload: the graph it serves and the traffic it sends.  The graph
/// is a fixed function of the workload (its R-MAT seed is a constant), so
/// run-to-run spread comes from the traffic seed alone.
struct Workload {
  std::string name;
  Traffic traffic = Traffic::kClosedTopK;
  uint32_t scale = 0;
  uint64_t edge_draws = 0;
  la::Precision precision = la::Precision::kFloat64;
  ValueStorage storage = ValueStorage::kExplicit;
  /// Set-up repetitions per run; setup_s is their median.
  int setups = 1;
  /// Timed work per second of --seconds: queries (closed loop, open loop)
  /// or QueryBatch calls (batch).  Work is fixed by seed and --seconds,
  /// never by a deadline.
  double work_per_second = 0;
  /// Untimed queries (or batches) before the timed phase.
  int warmup = 0;
  /// Open loop: absolute Poisson arrival rate.
  double rate_qps = 0;
  /// Closed top-k: Zipf exponent of seed popularity, and the result
  /// cache's byte cap expressed in top-k entries.
  double zipf_exponent = 0;
  size_t cache_entries = 0;
  /// Seeds of the accuracy sample: a fixed degree-proportional sample
  /// (independent of the traffic seed) checked against exact RWR after the
  /// timed phase.
  int oracle_seeds = 0;
  /// Timed-phase seeds whose engine answers are re-served and compared
  /// with the direct core query after the timed phase.
  int consistency_seeds = 0;
  /// Seeds of the direct core probes of the traced run.
  int layer_seeds = 0;
};

constexpr int kTopK = 10;
constexpr int kClosedRounds = 5;
constexpr uint64_t kGraphSeed = 20180416;

std::vector<Workload> Workloads(bool toy) {
  std::vector<Workload> w(3);
  // The online recommendation workload: top-k over Zipf-popular seeds
  // through the async engine and a top-k-only LRU cache.  Scale 17 keeps
  // the CSR (~37 MB) cache-resident.  Zipf(0.9) over an 800-entry cache
  // hits about a third of the time, so p50 and p90 both fall on the
  // top-k compute path: the ~40 us hit path doubled under host steal,
  // while compute moved a third as much.
  w[0].name = "online-topk-zipf";
  w[0].traffic = Traffic::kClosedTopK;
  w[0].scale = 17;
  w[0].edge_draws = 1'500'000;
  w[0].setups = 3;
  w[0].work_per_second = 500;
  w[0].warmup = 1500;
  w[0].zipf_exponent = 0.9;
  w[0].cache_entries = 800;
  w[0].oracle_seeds = 24;
  w[0].consistency_seeds = 24;
  w[0].layer_seeds = 100;
  // Offline dense scoring: the CSR (~620 MB) is twice the L3, so the
  // engine's kAuto resolves to SpMM groups.
  w[1].name = "batch-dense-llc";
  w[1].traffic = Traffic::kBatchDense;
  w[1].scale = 21;
  w[1].edge_draws = 16'000'000;
  w[1].setups = 2;
  w[1].work_per_second = 0.5;
  w[1].warmup = 1;
  w[1].oracle_seeds = 3;
  w[1].consistency_seeds = 3;
  w[1].layer_seeds = 6;
  // A server restarting from a value-free fp32 snapshot, served in open
  // loop at a fixed arrival rate.  15 queries/s is about 30% of the
  // measured capacity (3 threads at ~60 ms per query): at 50%, queueing
  // turned a 10% slowdown of the host into a 30% rise of p90.
  w[2].name = "coldstart-open-fp32";
  w[2].traffic = Traffic::kOpenDense;
  w[2].scale = 19;
  w[2].edge_draws = 6'000'000;
  w[2].precision = la::Precision::kFloat32;
  w[2].storage = ValueStorage::kRowConstant;
  w[2].setups = 5;
  w[2].work_per_second = 22.5;
  w[2].rate_qps = 15;
  w[2].warmup = 12;
  w[2].oracle_seeds = 3;
  w[2].consistency_seeds = 12;
  w[2].layer_seeds = 20;
  if (toy) {
    for (Workload& x : w) {
      x.scale = 11;
      x.edge_draws = 16'000;
      x.setups = 2;
      x.warmup = std::min(x.warmup, 20);
      x.oracle_seeds = std::min(x.oracle_seeds, 4);
      x.consistency_seeds = std::min(x.consistency_seeds, 4);
      x.layer_seeds = std::min(x.layer_seeds, 8);
    }
    w[0].work_per_second = 400;
    w[0].cache_entries = 60;
    w[1].work_per_second = 20;
    w[2].work_per_second = 100;
    w[2].rate_qps = 100;
  }
  return w;
}

// ---------------------------------------------------------------- helpers

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

/// Host-wide steal time in seconds (the `steal` column of /proc/stat).
double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t f[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (uint64_t& x : f) in >> x;
  const long hz = sysconf(_SC_CLK_TCK);
  return hz > 0 ? static_cast<double>(f[7]) / static_cast<double>(hz) : 0.0;
}

/// Process CPU seconds and involuntary context switches so far.
struct Usage {
  double cpu_s = 0;
  long involuntary_csw = 0;
  double steal_s = 0;
};
Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
  u.involuntary_csw = ru.ru_nivcsw;
  u.steal_s = StealSeconds();
  return u;
}

double PeakRssMb() { return static_cast<double>(PeakRssBytes()) / 1e6; }

[[noreturn]] void Die(const std::string& what) {
  std::cerr << "tpa_perfbench: " << what << "\n";
  std::exit(2);
}

template <typename T>
T Unwrap(StatusOr<T> s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.status().ToString());
  return std::move(s).value();
}

/// A node with at least one real out-edge.  The builder gives a dangling
/// node a self-loop (and drops input self-loops), so a lone self-loop
/// marks a dangling node.
bool IsActive(const Graph& g, NodeId u) {
  const uint32_t d = g.OutDegree(u);
  return d > 1 || (d == 1 && g.OutNeighbors(u)[0] != u);
}

Rng FixedStream(uint64_t seed, uint64_t purpose) {
  SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + purpose);
  return Rng(mix.Next());
}

/// Seed streams.  Every stream is a function of (traffic seed, purpose);
/// the Zipf popularity ranking and the accuracy sample are fixed.
class SeedSource {
 public:
  /// `zipf_exponent` > 0 also ranks the active nodes for Zipf draws.
  SeedSource(const Graph& g, uint64_t seed, double zipf_exponent)
      : seed_(seed) {
    std::vector<double> weights(g.num_nodes(), 0.0);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (IsActive(g, u)) {
        active_.push_back(u);
        weights[u] = g.OutDegree(u);
      }
    }
    if (active_.empty()) Die("graph has no active node");
    by_degree_ = std::make_unique<AliasSampler>(weights);
    if (zipf_exponent > 0) {
      Rng perm_rng = FixedStream(0, 1000);
      zipf_order_ = active_;
      for (size_t i = zipf_order_.size(); i > 1; --i) {
        std::swap(zipf_order_[i - 1], zipf_order_[perm_rng.NextBounded(i)]);
      }
      std::vector<double> w(zipf_order_.size());
      for (size_t r = 0; r < w.size(); ++r) {
        w[r] = 1.0 / std::pow(static_cast<double>(r) + 1.0, zipf_exponent);
      }
      zipf_ = std::make_unique<AliasSampler>(w);
    }
  }

  Rng Stream(uint64_t purpose) const { return FixedStream(seed_, purpose); }

  /// `count` distinct seeds drawn degree-proportionally.
  std::vector<NodeId> DistinctByDegree(size_t count, uint64_t purpose) const {
    return DistinctByDegree(count, Stream(purpose));
  }
  /// The same draw from a stream that ignores the traffic seed.
  std::vector<NodeId> FixedSample(size_t count) const {
    return DistinctByDegree(count, FixedStream(0, 999));
  }

  /// `count` seeds drawn with replacement, degree-proportionally.
  std::vector<NodeId> ByDegree(size_t count, uint64_t purpose) const {
    Rng rng = Stream(purpose);
    std::vector<NodeId> out(count);
    for (NodeId& u : out) u = static_cast<NodeId>(by_degree_->Sample(rng));
    return out;
  }

  /// Zipf popularity over the active nodes: a fixed permutation ranks
  /// them, rank r is drawn with weight 1/(r + 1)^exponent.
  std::vector<NodeId> Zipf(size_t count, uint64_t purpose) const {
    if (!zipf_) Die("no Zipf ranking for this workload");
    Rng rng = Stream(purpose);
    std::vector<NodeId> out(count);
    for (NodeId& u : out) u = zipf_order_[zipf_->Sample(rng)];
    return out;
  }

  size_t active_count() const { return active_.size(); }

 private:
  std::vector<NodeId> DistinctByDegree(size_t count, Rng rng) const {
    count = std::min(count, active_.size());
    std::unordered_set<NodeId> seen;
    std::vector<NodeId> out;
    while (out.size() < count) {
      const NodeId u = static_cast<NodeId>(by_degree_->Sample(rng));
      if (seen.insert(u).second) out.push_back(u);
    }
    return out;
  }

  uint64_t seed_;
  std::vector<NodeId> active_;
  std::unique_ptr<AliasSampler> by_degree_;
  std::vector<NodeId> zipf_order_;
  std::unique_ptr<AliasSampler> zipf_;
};

std::vector<NodeId> FirstDistinct(const std::vector<NodeId>& seeds,
                                  size_t count) {
  std::unordered_set<NodeId> seen;
  std::vector<NodeId> out;
  for (NodeId s : seeds) {
    if (out.size() >= count) break;
    if (seen.insert(s).second) out.push_back(s);
  }
  return out;
}

// ---------------------------------------------------------------- tracing

/// Spans recorded around the calls into each layer.  Kept in memory while
/// the run lasts and written out once at exit; nothing is recorded when
/// tracing is off.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Records [start, end) under `parent` (0 = root); returns the span id.
  uint64_t Add(const std::string& name, Clock::time_point start,
               Clock::time_point end, uint64_t parent = 0) {
    if (!enabled_) return 0;
    spans_.push_back({spans_.size() + 1, parent, name, start, end});
    return spans_.size();
  }

  /// Extends span `id` to now (for a parent opened before its children).
  void Close(uint64_t id) {
    if (enabled_ && id > 0) spans_[id - 1].end = Clock::now();
  }

  /// Times `fn` as one span; returns its duration in seconds.
  double Time(const std::string& name, const std::function<void()>& fn,
              uint64_t parent = 0) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    Add(name, start, end, parent);
    return std::chrono::duration<double>(end - start).count();
  }

  void Write(const std::string& path) const {
    if (!enabled_ || path.empty()) return;
    std::ofstream out(path);
    out << "{\"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
          << "\", \"start_us\": " << Us(s.start)
          << ", \"end_us\": " << Us(s.end) << "}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    uint64_t id;
    uint64_t parent;
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
  };
  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ----------------------------------------------------------------- server

/// The serving state of one set-up.  Declaration order is teardown order
/// in reverse: engines go before the graph and mapping they borrow.
struct Server {
  std::unique_ptr<Graph> graph;
  std::optional<snapshot::LoadedSnapshot> loaded;
  std::unique_ptr<AsyncQueryEngine> async;
  std::optional<QueryEngine> sync;

  /// Tears down engines before what they borrow.
  void Reset() {
    sync.reset();
    async.reset();
    loaded.reset();
    graph.reset();
  }

  const Graph& g() const { return graph ? *graph : *loaded->graph; }
  QueryEngine& engine() { return async ? async->engine() : *sync; }
  const Tpa& tpa() {
    return *dynamic_cast<const TpaMethod&>(engine().method()).tpa();
  }
};

struct SetupTimes {
  std::vector<double> total_s, generate_s, preprocess_s, load_s,
      first_query_ms;
};

StatusOr<Graph> BuildGraph(const Workload& w, la::Precision precision,
                           ValueStorage storage) {
  RmatOptions rmat;
  rmat.scale = w.scale;
  rmat.edges = w.edge_draws;
  rmat.seed = kGraphSeed;
  BuildOptions build;
  build.value_precision = precision;
  build.value_storage = storage;
  return GenerateRmat(rmat, build);
}

struct Pinning {
  int pool = 1;
  int clients = 1;
};

/// Pool threads and clients, each pinned below nproc.  The dense
/// workloads keep one core for the load generator and the scheduler.  The
/// top-k workload keeps two: its hit path is three thread hand-offs of a
/// few microseconds each, and with nproc - 1 compute threads on the same
/// cores those hand-offs wait behind preempted compute (about 80 times
/// the involuntary context switches per run).
Pinning PinThreads(const Workload& w) {
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const int spare = w.traffic == Traffic::kClosedTopK ? 2 : 1;
  Pinning p;
  p.pool = std::max(1, nproc - spare);
  p.clients = p.pool;
  return p;
}

QueryEngineOptions EngineOptions(const Workload& w, const Pinning& pin) {
  QueryEngineOptions o;
  o.num_threads = pin.pool;
  o.batch_block_size = QueryEngineOptions::kAuto;
  if (w.traffic == Traffic::kClosedTopK) {
    o.top_k = kTopK;
    o.cache_topk_only = true;
    o.cache_capacity_bytes = w.cache_entries * kTopK * sizeof(ScoredNode);
  }
  return o;
}

void CreateEngine(const Workload& w, const Pinning& pin, const Graph& g,
                  Tpa tpa, Server& server) {
  auto method = std::make_unique<TpaMethod>(std::move(tpa));
  if (w.traffic == Traffic::kBatchDense) {
    server.sync.emplace(Unwrap(
        QueryEngine::Create(g, std::move(method), EngineOptions(w, pin)),
        "QueryEngine::Create"));
  } else {
    server.async = Unwrap(AsyncQueryEngine::Create(g, std::move(method),
                                                   EngineOptions(w, pin)),
                          "AsyncQueryEngine::Create");
  }
}

/// One in-RAM set-up: generate, preprocess, create.
void SetupInRam(const Workload& w, const Pinning& pin, Tracer& tracer,
                Server& server, SetupTimes& times) {
  const Clock::time_point start = Clock::now();
  const uint64_t setup = tracer.Add("setup", start, start);
  times.generate_s.push_back(tracer.Time("graph.generate", [&] {
    server.graph = std::make_unique<Graph>(
        Unwrap(BuildGraph(w, w.precision, w.storage), "GenerateRmat"));
  }, setup));
  std::optional<Tpa> tpa;
  times.preprocess_s.push_back(tracer.Time("core.preprocess", [&] {
    tpa.emplace(Unwrap(Tpa::Preprocess(*server.graph, TpaOptions{}),
                       "Tpa::Preprocess"));
  }, setup));
  tracer.Time("engine.create", [&] {
    CreateEngine(w, pin, *server.graph, std::move(*tpa), server);
  }, setup);
  tracer.Close(setup);
  const Clock::time_point end = Clock::now();
  times.total_s.push_back(std::chrono::duration<double>(end - start).count());
}

/// One snapshot set-up: LoadSnapshot (kMap, verified) + engine Create.
void SetupFromSnapshot(const Workload& w, const Pinning& pin,
                       const std::string& path, Tracer& tracer, Server& server,
                       SetupTimes& times) {
  const Clock::time_point start = Clock::now();
  const uint64_t setup = tracer.Add("setup", start, start);
  times.load_s.push_back(tracer.Time("snapshot.load", [&] {
    snapshot::LoadOptions opts;
    opts.mode = snapshot::LoadMode::kMap;
    opts.verify = true;
    server.loaded.emplace(
        Unwrap(snapshot::LoadSnapshot(path, opts), "LoadSnapshot"));
  }, setup));
  tracer.Time("engine.create", [&] {
    CreateEngine(w, pin, *server.loaded->graph,
                 std::move(*server.loaded->tpa), server);
  }, setup);
  tracer.Close(setup);
  const Clock::time_point end = Clock::now();
  times.total_s.push_back(std::chrono::duration<double>(end - start).count());
}

// ------------------------------------------------------------ timed phase

/// What one timed phase measured.
struct PhaseResult {
  size_t attempted = 0;
  size_t failed = 0;
  double wall_s = 0;
  std::vector<double> latency_ms;        // per query
  std::vector<double> call_latency_ms;   // per client call
  std::vector<double> hit_latency_ms;
  std::vector<double> serve_ms, wake_ms, lag_ms;
  std::vector<double> queue_depth;
  std::vector<NodeId> miss_seeds;
  size_t hits = 0;
  size_t cache_lookups = 0;
  uint64_t groups = 0;
  uint64_t grouped_seeds = 0;
  Usage before, after;
  /// Completed queries per second and latency percentiles of each round;
  /// the reported figures are their medians.
  std::vector<double> round_qps, round_p50_ms, round_p90_ms;

  /// Closes this result as one round.
  void EndRound() {
    round_qps.push_back(static_cast<double>(attempted - failed) / wall_s);
    round_p50_ms.push_back(Percentile(latency_ms, 0.5));
    round_p90_ms.push_back(Percentile(latency_ms, 0.9));
  }

  /// Appends the next round of the same phase.
  void Absorb(const PhaseResult& r) {
    if (attempted == 0) before = r.before;
    after = r.after;
    attempted += r.attempted;
    failed += r.failed;
    wall_s += r.wall_s;
    hits += r.hits;
    cache_lookups += r.cache_lookups;
    groups += r.groups;
    grouped_seeds += r.grouped_seeds;
    auto append = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    append(latency_ms, r.latency_ms);
    append(call_latency_ms, r.call_latency_ms);
    append(hit_latency_ms, r.hit_latency_ms);
    append(serve_ms, r.serve_ms);
    append(wake_ms, r.wake_ms);
    append(lag_ms, r.lag_ms);
    append(queue_depth, r.queue_depth);
    append(round_qps, r.round_qps);
    append(round_p50_ms, r.round_p50_ms);
    append(round_p90_ms, r.round_p90_ms);
    miss_seeds.insert(miss_seeds.end(), r.miss_seeds.begin(),
                      r.miss_seeds.end());
  }

  double mean_group_size() const {
    return groups ? static_cast<double>(grouped_seeds) /
                        static_cast<double>(groups)
                  : 0.0;
  }
};

/// Closed loop: `clients` threads, each sending its next query only after
/// the previous one completed.  Client c sends seeds c, c+C, c+2C, ...
PhaseResult RunClosedLoop(Server& server, const std::vector<NodeId>& seeds,
                          int clients, Tracer* tracer) {
  PhaseResult r;
  const bool traced = tracer != nullptr;
  const size_t n = seeds.size();
  std::vector<Clock::time_point> t0(n), tcb(n), t1(n);
  std::vector<double> depth(traced ? n : 0);
  std::vector<char> hit(n, 0), ok(n, 0);
  AsyncQueryEngine& engine = *server.async;
  const AsyncQueryEngine::AsyncStats stats_before = engine.stats();
  const QueryEngine::CacheStats cache_before = engine.engine().cache_stats();
  r.before = ReadUsage();
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < n;
           i += static_cast<size_t>(clients)) {
        SubmitOptions opts;
        if (traced) {
          depth[i] = static_cast<double>(engine.stats().queue_depth);
          opts.on_complete = [&tcb, i](const QueryResult&) {
            tcb[i] = Clock::now();
          };
        }
        t0[i] = Clock::now();
        QueryTicket ticket = engine.Submit(seeds[i], opts);
        const QueryResult& res = ticket.Wait();
        t1[i] = Clock::now();
        hit[i] = res.from_cache;
        ok[i] = res.status.ok() && !res.top.empty();
        if (!res.status.ok()) {
          std::cerr << "query " << seeds[i]
                    << " failed: " << res.status.ToString()
                    << "\n";
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  r.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  r.after = ReadUsage();
  const AsyncQueryEngine::AsyncStats stats_after = engine.stats();
  const QueryEngine::CacheStats cache_after = engine.engine().cache_stats();
  r.attempted = n;
  for (size_t i = 0; i < n; ++i) {
    const double lat = MsBetween(t0[i], t1[i]);
    r.latency_ms.push_back(lat);
    if (!ok[i]) ++r.failed;
    if (hit[i]) {
      ++r.hits;
      r.hit_latency_ms.push_back(lat);
    } else {
      r.miss_seeds.push_back(seeds[i]);
    }
    if (traced) {
      r.serve_ms.push_back(MsBetween(t0[i], tcb[i]));
      r.wake_ms.push_back(MsBetween(tcb[i], t1[i]));
      const uint64_t q = tracer->Add(hit[i] ? "query.hit" : "query.miss",
                                     t0[i], t1[i]);
      tracer->Add("engine.serve", t0[i], tcb[i], q);
      tracer->Add("engine.wake", tcb[i], t1[i], q);
    }
  }
  r.call_latency_ms = r.latency_ms;
  r.queue_depth = depth;
  r.cache_lookups = (cache_after.hits - cache_before.hits) +
                    (cache_after.misses - cache_before.misses);
  r.groups = stats_after.groups_dispatched - stats_before.groups_dispatched;
  r.grouped_seeds =
      stats_after.seeds_dispatched - stats_before.seeds_dispatched;
  r.EndRound();
  return r;
}

/// The closed loop in `rounds` equal rounds over consecutive slices of
/// `seeds`, so a burst of host noise moves one round's figures and not the
/// reported medians.
PhaseResult RunClosedRounds(Server& server, const std::vector<NodeId>& seeds,
                            int clients, int rounds, Tracer* tracer) {
  PhaseResult all;
  const size_t per = (seeds.size() + rounds - 1) / rounds;
  for (size_t b = 0; b < seeds.size(); b += per) {
    const std::vector<NodeId> slice(
        seeds.begin() + b, seeds.begin() + std::min(b + per, seeds.size()));
    all.Absorb(RunClosedLoop(server, slice, clients, tracer));
  }
  return all;
}

/// Open loop: seeded Poisson arrivals at an absolute rate, conditioned on
/// the run's arrival count (n uniform send times over n / rate seconds), so
/// the offered load is the same in every run while bursts stay random.
/// Each query is timed from its scheduled send time to its completion
/// callback.
PhaseResult RunOpenLoop(Server& server, const std::vector<NodeId>& seeds,
                        double rate_qps, Rng rng, Tracer* tracer) {
  PhaseResult r;
  const bool traced = tracer != nullptr;
  const size_t n = seeds.size();
  std::vector<double> offset_s(n);
  for (double& x : offset_s) {
    x = rng.NextDouble() * static_cast<double>(n) / rate_qps;
  }
  std::sort(offset_s.begin(), offset_s.end());
  std::vector<Clock::time_point> sched(n), sub(n), tcb(n), wait_start(n),
      wait_end(n);
  std::vector<char> ok(n, 0);
  std::vector<double> depth(traced ? n : 0);
  std::vector<QueryTicket> tickets(n);
  std::atomic<size_t> submitted{0};
  AsyncQueryEngine& engine = *server.async;
  const AsyncQueryEngine::AsyncStats stats_before = engine.stats();
  // A collector thread waits on each ticket in submission order and drops
  // it, so answers do not pile up in memory; it also times the
  // callback-to-Wait hand-off.
  auto collect = [&] {
    for (size_t i = 0; i < n; ++i) {
      while (submitted.load(std::memory_order_acquire) <= i) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      wait_start[i] = Clock::now();
      tickets[i].Wait();
      wait_end[i] = Clock::now();
      tickets[i] = QueryTicket();
    }
  };
  r.before = ReadUsage();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::thread collector(collect);
  for (size_t i = 0; i < n; ++i) {
    sched[i] = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(offset_s[i]));
    std::this_thread::sleep_until(sched[i]);
    sub[i] = Clock::now();
    if (traced) depth[i] = static_cast<double>(engine.stats().queue_depth);
    SubmitOptions opts;
    opts.on_complete = [&tcb, &ok, i](const QueryResult& res) {
      tcb[i] = Clock::now();
      ok[i] = res.status.ok() && !res.scores_f32.empty();
      if (!res.status.ok()) {
        std::cerr << "query failed: " << res.status.ToString() << "\n";
      }
    };
    tickets[i] = engine.Submit(seeds[i], opts);
    submitted.store(i + 1, std::memory_order_release);
  }
  collector.join();
  Clock::time_point last = start;
  for (size_t i = 0; i < n; ++i) last = std::max(last, tcb[i]);
  r.wall_s = std::chrono::duration<double>(last - start).count();
  r.after = ReadUsage();
  const AsyncQueryEngine::AsyncStats stats_after = engine.stats();
  r.attempted = n;
  for (size_t i = 0; i < n; ++i) {
    if (!ok[i]) ++r.failed;
    r.latency_ms.push_back(MsBetween(sched[i], tcb[i]));
    r.lag_ms.push_back(MsBetween(sched[i], sub[i]));
    r.miss_seeds.push_back(seeds[i]);
    if (traced) {
      r.serve_ms.push_back(MsBetween(sub[i], tcb[i]));
      const uint64_t q = tracer->Add("query", sched[i], tcb[i]);
      tracer->Add("loadgen.lag", sched[i], sub[i], q);
      tracer->Add("engine.serve", sub[i], tcb[i], q);
      // A hand-off is only observable when the collector was already
      // blocked on the ticket when its callback fired.
      if (wait_start[i] < tcb[i]) {
        r.wake_ms.push_back(MsBetween(tcb[i], wait_end[i]));
        tracer->Add("engine.wake", tcb[i], wait_end[i], q);
      }
    }
  }
  r.call_latency_ms = r.latency_ms;
  r.queue_depth = depth;
  r.groups = stats_after.groups_dispatched - stats_before.groups_dispatched;
  r.grouped_seeds =
      stats_after.seeds_dispatched - stats_before.seeds_dispatched;
  r.EndRound();
  return r;
}

/// Blocking QueryBatch calls over distinct seeds; a query's latency is its
/// call's (every seed of a batch is answered when the call returns).
PhaseResult RunBatches(Server& server,
                       const std::vector<std::vector<NodeId>>& batches,
                       Tracer* tracer) {
  PhaseResult r;
  QueryEngine& engine = *server.sync;
  r.before = ReadUsage();
  const Clock::time_point start = Clock::now();
  for (const std::vector<NodeId>& batch : batches) {
    const Clock::time_point t0 = Clock::now();
    std::vector<QueryResult> results = engine.QueryBatch(batch);
    const Clock::time_point t1 = Clock::now();
    const double ms = MsBetween(t0, t1);
    if (tracer != nullptr) tracer->Add("engine.query_batch", t0, t1);
    r.call_latency_ms.push_back(ms);
    for (const QueryResult& res : results) {
      ++r.attempted;
      r.latency_ms.push_back(ms);
      r.miss_seeds.push_back(res.seed);
      if (!res.status.ok() ||
          res.scores.size() != server.g().num_nodes()) {
        ++r.failed;
        std::cerr << "query " << res.seed
                  << " failed: " << res.status.ToString()
                  << "\n";
      }
    }
  }
  r.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  r.after = ReadUsage();
  const size_t width =
      static_cast<size_t>(std::max(1, engine.options().batch_block_size));
  for (const auto& batch : batches) {
    r.groups += (batch.size() + width - 1) / width;
  }
  r.grouped_seeds = r.attempted;
  r.EndRound();
  return r;
}

// ----------------------------------------------------------- correctness

/// Post-run accuracy sample: exact RWR per seed, checked against the
/// served answers.  Any violation fails the run.
struct Accuracy {
  double recall_at_10 = 0;
  double l1_err_max = 0;
  size_t checks = 0;
  size_t failed = 0;
};

bool SameTopK(const std::vector<ScoredNode>& a,
              const std::vector<ScoredNode>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node || a[i].score != b[i].score) return false;
  }
  return true;
}

double Recall(const std::vector<ScoredNode>& got,
              const std::vector<ScoredNode>& truth) {
  size_t hit = 0;
  for (const ScoredNode& t : truth) {
    for (const ScoredNode& x : got) hit += (x.node == t.node);
  }
  return truth.empty() ? 1.0
                       : static_cast<double>(hit) /
                             static_cast<double>(truth.size());
}

/// Runs fn(i) for i in [0, count) on `threads` threads.
void ParallelFor(size_t count, int threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < count; i = next++) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

/// A served or direct answer: the top-k list, plus the dense vector
/// (widened to fp64) where the answer is dense.
struct Answer {
  std::vector<ScoredNode> top;
  std::vector<double> dense;
};

/// The engine's answers for `seeds`, served again after the timed phase
/// (every answer is deterministic, cache hits included).
std::vector<Answer> ServeAgain(const Workload& w, Server& server,
                               const std::vector<NodeId>& seeds) {
  std::vector<QueryResult> results;
  if (w.traffic == Traffic::kBatchDense) {
    results = server.sync->QueryBatch(seeds);
  } else {
    for (NodeId seed : seeds) {
      results.push_back(server.async->Submit(seed).Wait());
    }
  }
  std::vector<Answer> out(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    const QueryResult& res = results[i];
    if (!res.status.ok()) continue;  // an empty answer fails every check
    if (w.traffic == Traffic::kClosedTopK) {
      out[i].top = res.top;
    } else if (!res.scores_f32.empty()) {
      out[i].top = TopKScores(res.scores_f32, kTopK);
      out[i].dense.assign(res.scores_f32.begin(), res.scores_f32.end());
    } else {
      out[i].top = TopKScores(res.scores, kTopK);
      out[i].dense = res.scores;
    }
  }
  return out;
}

/// The direct dense query of the core at the graph's tier.
Answer DirectAnswer(const Tpa& tpa, NodeId seed) {
  Answer a;
  if (tpa.precision() == la::Precision::kFloat32) {
    const std::vector<float> f = tpa.QueryF(seed);
    a.top = TopKScores(f, kTopK);
    a.dense.assign(f.begin(), f.end());
  } else {
    a.dense = tpa.Query(seed);
    a.top = TopKScores(a.dense, kTopK);
  }
  return a;
}

/// Runs the three correctness checks.  `consistency` (timed-phase seeds):
/// the engine's top-k must equal TopKScores of the direct dense query, and
/// a dense engine answer must equal the direct one bitwise.  `sample`
/// (the fixed accuracy sample): recall and L1 error against exact RWR, and
/// the L1 error within Theorem 2's 2(1-c)^S.
Accuracy CheckAccuracy(const Workload& w, Server& server,
                       const std::vector<NodeId>& consistency,
                       const std::vector<NodeId>& sample, int threads) {
  const Tpa& tpa = server.tpa();
  const bool dense = w.traffic != Traffic::kClosedTopK;
  Accuracy acc;
  auto check_served = [&](NodeId seed, const Answer& served,
                          const Answer& direct) {
    ++acc.checks;
    if (!SameTopK(served.top, direct.top)) {
      ++acc.failed;
      std::cerr << "CORRECTNESS: seed " << seed
                << ": engine top-k differs from TopKScores of the direct "
                   "dense query\n";
    } else if (dense && served.dense != direct.dense) {
      ++acc.failed;
      std::cerr << "CORRECTNESS: seed " << seed
                << ": engine dense answer differs from the direct query\n";
    }
  };
  const std::vector<Answer> served_traffic = ServeAgain(w, server, consistency);
  for (size_t i = 0; i < consistency.size(); ++i) {
    check_served(consistency[i], served_traffic[i],
                 DirectAnswer(tpa, consistency[i]));
  }

  // The fp32 workload's oracle is fp64 over the same topology.
  std::unique_ptr<Graph> fp64;
  if (server.g().value_precision() != la::Precision::kFloat64) {
    fp64 = std::make_unique<Graph>(Unwrap(
        BuildGraph(w, la::Precision::kFloat64, ValueStorage::kExplicit),
        "GenerateRmat (oracle)"));
  }
  const Graph& exact_graph = fp64 ? *fp64 : server.g();
  std::vector<std::vector<double>> exact(sample.size());
  // ε = 1e-8 leaves at most ε(1-c)/c < 6e-8 of L1 mass unpropagated,
  // far below TPA's error and the top-10 score gaps.
  CpiOptions exact_opts;
  exact_opts.restart_probability = tpa.options().restart_probability;
  exact_opts.tolerance = 1e-8;
  ParallelFor(sample.size(), threads, [&](size_t i) {
    exact[i] = Unwrap(Cpi::ExactRwr(exact_graph, sample[i], exact_opts),
                      "Cpi::ExactRwr");
  });
  const double bound = TotalErrorBound(tpa.options().restart_probability,
                                       tpa.options().family_window);
  const std::vector<Answer> served_sample = ServeAgain(w, server, sample);
  double recall_sum = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    const Answer direct = DirectAnswer(tpa, sample[i]);
    check_served(sample[i], served_sample[i], direct);
    recall_sum += Recall(served_sample[i].top, TopKScores(exact[i], kTopK));
    double l1 = 0;
    for (size_t v = 0; v < direct.dense.size(); ++v) {
      l1 += std::fabs(direct.dense[v] - exact[i][v]);
    }
    acc.l1_err_max = std::max(acc.l1_err_max, l1);
    ++acc.checks;
    if (!(l1 <= bound)) {
      ++acc.failed;
      std::cerr << "CORRECTNESS: seed " << sample[i] << ": L1 error " << l1
                << " exceeds Theorem 2's bound " << bound << "\n";
    }
  }
  acc.recall_at_10 =
      sample.empty() ? 0 : recall_sum / static_cast<double>(sample.size());
  return acc;
}

// -------------------------------------------------------------- layer probes

/// Direct calls into the core, the kernels and the snapshot layer, timed
/// one at a time on this thread (traced run only).
struct LayerProbe {
  std::vector<double> topk_ms, topk_last_iter, topk_early, query_ms,
      family_ms, merge_ms;
  double spmvt_ns_per_edge = 0;
  double save_s = 0, load_s = 0, first_query_ms = 0;
};

template <typename V>
double SpmvtNsPerEdge(const Graph& g, Tracer& tracer, uint64_t parent) {
  std::vector<V> x(g.num_nodes(), static_cast<V>(1.0 / g.num_nodes()));
  std::vector<V> y;
  g.MultiplyTransposeT<V>(x, y);  // warm
  std::vector<double> ns;
  for (int rep = 0; rep < 7; ++rep) {
    const double s =
        tracer.Time("la.spmvt", [&] { g.MultiplyTransposeT<V>(x, y); }, parent);
    ns.push_back(s * 1e9 / static_cast<double>(g.num_edges()));
  }
  return Percentile(ns, 0.5);
}

template <typename V>
void ProbeCore(const Tpa& tpa, const std::vector<NodeId>& seeds,
               Tracer& tracer, uint64_t parent, LayerProbe& p) {
  const Graph& g = tpa.graph();
  CpiOptions family;
  family.restart_probability = tpa.options().restart_probability;
  family.tolerance = tpa.options().tolerance;
  family.terminal_iteration = tpa.options().family_window - 1;
  family.frontier_density_threshold = tpa.options().frontier_density_threshold;
  Cpi::Workspace ws;
  auto query = [&](NodeId seed) {
    if constexpr (std::is_same_v<V, float>) {
      (void)tpa.QueryF(seed);
    } else {
      (void)tpa.Query(seed);
    }
  };
  auto run_family = [&](NodeId seed) {
    (void)Unwrap(Cpi::RunT<V>(g, {seed}, family, &ws), "Cpi::RunT");
  };
  // Warm the workspaces, so no timed call pays their first allocation.
  query(seeds.front());
  run_family(seeds.front());
  for (NodeId seed : seeds) {
    TopKQueryResult top;
    p.topk_ms.push_back(1e3 * tracer.Time("core.topk_query", [&] {
      top = tpa.QueryTopK(seed, kTopK);
    }, parent));
    p.topk_last_iter.push_back(top.last_iteration);
    p.topk_early.push_back(top.early_terminated ? 1.0 : 0.0);
    // The merge is a small remainder of two large timings, so each is the
    // fastest of a few alternating repetitions.
    double q_ms = 1e300, f_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      q_ms = std::min(q_ms, 1e3 * tracer.Time("core.query",
                                              [&] { query(seed); }, parent));
      f_ms = std::min(f_ms, 1e3 * tracer.Time("core.family",
                                              [&] { run_family(seed); },
                                              parent));
    }
    p.query_ms.push_back(q_ms);
    p.family_ms.push_back(f_ms);
    p.merge_ms.push_back(q_ms - f_ms);
  }
  p.spmvt_ns_per_edge = SpmvtNsPerEdge<V>(g, tracer, parent);
}

/// Saves the in-RAM workload's state, loads it back, and times the first
/// query on the fresh mapping (what a restart of this server would cost).
void ProbeSnapshot(const Tpa& tpa, NodeId seed, bool topk,
                   const std::string& dir, Tracer& tracer, uint64_t parent,
                   LayerProbe& p) {
  const std::string path = dir + "/probe.snap";
  p.save_s = tracer.Time("snapshot.save", [&] {
    const Status s = tpa.SaveSnapshot(path);
    if (!s.ok()) Die("SaveSnapshot: " + s.ToString());
  }, parent);
  std::optional<snapshot::LoadedSnapshot> loaded;
  p.load_s = tracer.Time("snapshot.load", [&] {
    loaded.emplace(Unwrap(snapshot::LoadSnapshot(path), "LoadSnapshot"));
  }, parent);
  p.first_query_ms = 1e3 * tracer.Time("snapshot.first_query", [&] {
    if (topk) {
      (void)loaded->tpa->QueryTopK(seed, kTopK);
    } else {
      (void)loaded->tpa->Query(seed);
    }
  }, parent);
  loaded.reset();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

// ------------------------------------------------------------------ main

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;
  std::string dir;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  if (argc < 2) Die("usage: tpa_perfbench prepare|run --workload W ...");
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--toy") a.toy = v == "1";
    else if (k == "--dir") a.dir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else Die("unknown flag " + k);
  }
  if (a.seconds <= 0) Die("--seconds must be positive");
  return a;
}

const Workload& FindWorkload(const std::vector<Workload>& all,
                             const std::string& name) {
  for (const Workload& w : all) {
    if (w.name == name) return w;
  }
  Die("unknown workload " + name);
}

std::string SnapshotPath(const Args& a) { return a.dir + "/serving.snap"; }

/// Untimed preparation of the snapshot workload; writes the snapshot and
/// its build timings (prepare.txt: generate_s preprocess_s save_s).
int Prepare(const Args& a, const Workload& w) {
  if (a.dir.empty()) Die("prepare needs --dir");
  Stopwatch sw;
  Graph g = Unwrap(BuildGraph(w, w.precision, w.storage), "GenerateRmat");
  const double gen_s = sw.ElapsedSeconds();
  sw.Reset();
  Tpa tpa = Unwrap(Tpa::Preprocess(g, TpaOptions{}), "Tpa::Preprocess");
  const double pre_s = sw.ElapsedSeconds();
  sw.Reset();
  const Status s = tpa.SaveSnapshot(SnapshotPath(a));
  if (!s.ok()) Die("SaveSnapshot: " + s.ToString());
  const double save_s = sw.ElapsedSeconds();
  std::ofstream out(a.dir + "/prepare.txt");
  out << Num(gen_s) << " " << Num(pre_s) << " " << Num(save_s) << "\n";
  return 0;
}

int Run(const Args& a, const Workload& w) {
  const Pinning pin = PinThreads(w);
  Tracer tracer(a.trace);
  const bool snapshot_workload = w.traffic == Traffic::kOpenDense;
  if ((snapshot_workload || a.trace) && a.dir.empty()) {
    Die("this run needs --dir");
  }

  // ---- set-up, repeated; the last instance serves.
  // Wall time of each stage of this run, for the record.
  std::vector<std::pair<std::string, double>> stages;
  Stopwatch stage;
  auto end_stage = [&](const char* name) {
    stages.emplace_back(name, stage.ElapsedSeconds());
    stage.Reset();
  };
  SetupTimes times;
  Server server;
  for (int i = 0; i < w.setups; ++i) {
    server.Reset();
    if (snapshot_workload) {
      SetupFromSnapshot(w, pin, SnapshotPath(a), tracer, server, times);
      // The first query on the fresh mapping (not part of set-up).
      NodeId first = 0;
      while (!IsActive(server.g(), first)) ++first;
      const Clock::time_point t0 = Clock::now();
      server.async->Submit(first).Wait();
      times.first_query_ms.push_back(MsBetween(t0, Clock::now()));
    } else {
      SetupInRam(w, pin, tracer, server, times);
    }
  }
  const Graph& g = server.g();
  const SeedSource source(g, a.seed, w.zipf_exponent);

  end_stage("setup");

  // ---- traffic: fixed work from fixed seed lists.
  const size_t work =
      static_cast<size_t>(std::ceil(w.work_per_second * a.seconds));
  const int width = std::max(1, server.engine().options().batch_block_size);
  const size_t batch = static_cast<size_t>(width * pin.pool);
  // Traced runs time an untraced phase and then a traced one on fresh
  // seeds of the same distribution; the gap is the tracing overhead.
  const int phases = a.trace ? 2 : 1;
  auto traced_phase = [&](int ph) { return ph == 1 ? &tracer : nullptr; };
  std::vector<PhaseResult> results;
  std::vector<NodeId> all_seeds;
  size_t warm_queries = 0;
  if (w.traffic == Traffic::kClosedTopK) {
    RunClosedLoop(server, source.Zipf(static_cast<size_t>(w.warmup), 1),
                  pin.clients, nullptr);
    warm_queries = static_cast<size_t>(w.warmup);
    for (int ph = 0; ph < phases; ++ph) {
      std::vector<NodeId> seeds = source.Zipf(work, 2 + ph);
      all_seeds.insert(all_seeds.end(), seeds.begin(), seeds.end());
      results.push_back(RunClosedRounds(server, seeds, pin.clients,
                                        kClosedRounds, traced_phase(ph)));
    }
  } else if (w.traffic == Traffic::kBatchDense) {
    const size_t n_batches = std::max<size_t>(1, work);
    const size_t total = batch * (n_batches * phases + w.warmup);
    const std::vector<NodeId> distinct = source.DistinctByDegree(total, 3);
    if (distinct.size() < total) Die("not enough distinct active seeds");
    auto slice = [&](size_t first_batch, size_t count) {
      std::vector<std::vector<NodeId>> out;
      for (size_t b = first_batch; b < first_batch + count; ++b) {
        out.emplace_back(distinct.begin() + b * batch,
                         distinct.begin() + (b + 1) * batch);
      }
      return out;
    };
    RunBatches(server, slice(0, w.warmup), nullptr);
    warm_queries = batch * w.warmup;
    for (int ph = 0; ph < phases; ++ph) {
      auto batches = slice(w.warmup + ph * n_batches, n_batches);
      for (const auto& b : batches) {
        all_seeds.insert(all_seeds.end(), b.begin(), b.end());
      }
      results.push_back(RunBatches(server, batches, traced_phase(ph)));
    }
  } else {
    for (NodeId s : source.ByDegree(static_cast<size_t>(w.warmup), 4)) {
      server.async->Submit(s).Wait();
    }
    warm_queries = static_cast<size_t>(w.warmup);
    for (int ph = 0; ph < phases; ++ph) {
      std::vector<NodeId> seeds = source.ByDegree(work, 5 + ph);
      all_seeds.insert(all_seeds.end(), seeds.begin(), seeds.end());
      results.push_back(RunOpenLoop(server, seeds, w.rate_qps,
                                    source.Stream(7 + ph), traced_phase(ph)));
    }
  }
  end_stage("traffic");
  const double peak_rss_mb = PeakRssMb();
  const PhaseResult& main = results.back();
  bool all_active = true;
  for (NodeId s : all_seeds) all_active = all_active && IsActive(g, s);

  // ---- per-layer probes (traced run only).
  LayerProbe probe;
  if (a.trace) {
    const uint64_t parent = tracer.Add("layer_probes", Clock::now(),
                                       Clock::now());
    const std::vector<NodeId> layer_seeds =
        FirstDistinct(main.miss_seeds, static_cast<size_t>(w.layer_seeds));
    if (server.tpa().precision() == la::Precision::kFloat32) {
      ProbeCore<float>(server.tpa(), layer_seeds, tracer, parent, probe);
    } else {
      ProbeCore<double>(server.tpa(), layer_seeds, tracer, parent, probe);
    }
    if (!snapshot_workload) {
      ProbeSnapshot(server.tpa(), layer_seeds.front(),
                    w.traffic == Traffic::kClosedTopK, a.dir, tracer, parent,
                    probe);
    }
    tracer.Close(parent);
  }

  end_stage("probes");

  // ---- accuracy and the correctness checks.
  const std::vector<NodeId> oracle_sample =
      source.FixedSample(static_cast<size_t>(w.oracle_seeds));
  const Accuracy acc = CheckAccuracy(
      w, server,
      FirstDistinct(all_seeds, static_cast<size_t>(w.consistency_seeds)),
      oracle_sample, pin.pool);
  size_t attempted = 0, failed = 0;
  for (const PhaseResult& r : results) {
    attempted += r.attempted;
    failed += r.failed;
  }
  failed += acc.failed;
  const bool correct = failed == 0 && all_active;
  if (!all_active) std::cerr << "CORRECTNESS: a seed is not active\n";

  end_stage("checks");

  // ---- record.
  const double steal_s = main.after.steal_s - main.before.steal_s;
  const long csw = main.after.involuntary_csw - main.before.involuntary_csw;
  const double cpu_s = main.after.cpu_s - main.before.cpu_s;
  const double hit_share =
      main.cache_lookups
          ? static_cast<double>(main.hits) /
                static_cast<double>(main.cache_lookups)
          : 0.0;
  std::unordered_set<NodeId> distinct(all_seeds.begin(), all_seeds.end());
  {
    std::ostringstream rec;
    rec << "{\"record\": {\"workload\": " << Quote(w.name)
        << ", \"seed\": " << a.seed << ", \"seconds\": " << Num(a.seconds)
        << ", \"trace\": " << (a.trace ? 1 : 0)
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"pool_threads\": " << pin.pool
        << ", \"clients\": "
        << (w.traffic == Traffic::kClosedTopK ? pin.clients : 1)
        << ", \"llc_bytes\": " << DetectLastLevelCacheBytes()
        << ", \"compiler\": " << Quote(PERFBENCH_COMPILER)
        << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE)
        << ", \"graph_nodes\": " << g.num_nodes()
        << ", \"graph_edges\": " << g.num_edges()
        << ", \"csr_bytes\": " << g.SizeBytes()
        << ", \"batch_block_size\": "
        << server.engine().options().batch_block_size
        << ", \"batch_size\": "
        << (w.traffic == Traffic::kBatchDense ? batch : 1)
        << ", \"rate_qps\": " << Num(w.rate_qps)
        << ", \"warmup_queries\": " << warm_queries
        << ", \"timed_queries\": " << main.attempted
        << ", \"distinct_seeds\": " << distinct.size()
        << ", \"active_nodes\": " << source.active_count()
        << ", \"seeds_non_isolated\": " << (all_active ? "true" : "false")
        << ", \"cache_hit_share\": " << Num(hit_share)
        << ", \"oracle_seeds\": " << oracle_sample.size()
        << ", \"steal_s\": " << Num(steal_s)
        << ", \"involuntary_csw\": " << csw
        << ", \"cpu_s\": " << Num(cpu_s) << ", \"stages_s\": {";
    for (size_t i = 0; i < stages.size(); ++i) {
      rec << (i ? ", " : "") << Quote(stages[i].first) << ": "
          << Num(stages[i].second);
    }
    rec << "}";
    auto list = [&rec](const char* name, const std::vector<double>& v) {
      rec << ", " << Quote(name) << ": [";
      for (size_t i = 0; i < v.size(); ++i) rec << (i ? ", " : "") << Num(v[i]);
      rec << "]";
    };
    list("round_qps", main.round_qps);
    list("round_p50_ms", main.round_p50_ms);
    list("round_p90_ms", main.round_p90_ms);
    if (w.traffic == Traffic::kBatchDense) {
      list("batch_calls_ms", main.call_latency_ms);
    }
    rec << "}}";
    std::cout << rec.str() << std::endl;
  }

  // ---- metrics.
  std::vector<Metric> m;
  if (!a.trace) {
    m.push_back({"setup_s", Percentile(times.total_s, 0.5), "s"});
    m.push_back({"throughput_qps", Percentile(main.round_qps, 0.5), "1/s"});
    m.push_back({"latency_p50_ms", Percentile(main.round_p50_ms, 0.5), "ms"});
    m.push_back({"latency_p90_ms", Percentile(main.round_p90_ms, 0.5), "ms"});
    m.push_back({"batch_latency_p50_ms",
                 Percentile(main.call_latency_ms, 0.5), "ms"});
    m.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    m.push_back({"recall_at_10", acc.recall_at_10, "ratio"});
    m.push_back({"l1_err_max", acc.l1_err_max, "L1"});
  } else {
    const double core_p50 = Percentile(probe.query_ms, 0.5);
    double overhead = 0;
    if (w.traffic == Traffic::kClosedTopK) {
      // A cache hit does no core work: its whole latency is engine cost.
      overhead = Percentile(main.hit_latency_ms, 0.5);
    } else if (w.traffic == Traffic::kOpenDense) {
      overhead = Percentile(main.latency_ms, 0.5) - core_p50;
    } else {
      // Per-seed share of a batch call on one pool thread, minus one
      // direct query: negative when SpMM groups beat per-seed queries.
      overhead = Percentile(main.call_latency_ms, 0.5) * pin.pool /
                     static_cast<double>(batch) -
                 core_p50;
    }
    const double ref = Mean(results.front().latency_ms);
    const double traced = Mean(results.back().latency_ms);
    if (snapshot_workload) {
      std::ifstream in(a.dir + "/prepare.txt");
      double gen = 0, pre = 0, save = 0;
      in >> gen >> pre >> save;
      times.generate_s = {gen};
      times.preprocess_s = {pre};
      probe.save_s = save;
      probe.load_s = Percentile(times.load_s, 0.5);
      probe.first_query_ms = Percentile(times.first_query_ms, 0.5);
    }
    m.push_back({"graph.generate_s", Percentile(times.generate_s, 0.5), "s"});
    m.push_back({"graph.csr_mb", static_cast<double>(g.SizeBytes()) / 1e6,
                 "MB"});
    m.push_back({"core.preprocess_s", Percentile(times.preprocess_s, 0.5),
                 "s"});
    m.push_back({"core.topk_query_ms_p50", Percentile(probe.topk_ms, 0.5),
                 "ms"});
    m.push_back({"core.topk_last_iteration_mean", Mean(probe.topk_last_iter),
                 "count"});
    m.push_back({"core.topk_early_terminated_frac", Mean(probe.topk_early),
                 "ratio"});
    m.push_back({"core.query_ms_p50", core_p50, "ms"});
    m.push_back({"core.family_ms_p50", Percentile(probe.family_ms, 0.5),
                 "ms"});
    m.push_back({"core.merge_ms_p50", Percentile(probe.merge_ms, 0.5), "ms"});
    m.push_back({"la.spmvt_ns_per_edge", probe.spmvt_ns_per_edge, "ns"});
    m.push_back({"engine.cache_hit_ratio", hit_share, "ratio"});
    m.push_back({"engine.batch_block_size",
                 static_cast<double>(
                     server.engine().options().batch_block_size),
                 "count"});
    m.push_back({"engine.mean_group_size", main.mean_group_size(), "count"});
    m.push_back({"engine.serve_ms_p50",
                 Percentile(w.traffic == Traffic::kBatchDense
                                ? main.call_latency_ms
                                : main.serve_ms,
                            0.5),
                 "ms"});
    m.push_back({"engine.wake_ms_p50", Percentile(main.wake_ms, 0.5), "ms"});
    m.push_back({"engine.overhead_ms_p50", overhead, "ms"});
    m.push_back({"engine.queue_depth_p90", Percentile(main.queue_depth, 0.9),
                 "count"});
    m.push_back({"snapshot.save_s", probe.save_s, "s"});
    m.push_back({"snapshot.load_s", probe.load_s, "s"});
    m.push_back({"snapshot.first_query_ms", probe.first_query_ms, "ms"});
    m.push_back({"loadgen.lag_p90_ms", Percentile(main.lag_ms, 0.9), "ms"});
    m.push_back({"host.steal_s", steal_s, "s"});
    m.push_back({"host.cpu_ms_per_query",
                 1e3 * cpu_s / static_cast<double>(main.attempted), "ms"});
    m.push_back({"trace.overhead_pct", 100.0 * (traced - ref) / ref, "%"});
  }
  tracer.Write(a.trace_out);

  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < m.size(); ++i) {
    out << (i ? ", " : "") << Quote(m[i].name) << ": {\"value\": "
        << Num(m[i].value) << ", \"unit\": " << Quote(m[i].unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace tpa

int main(int argc, char** argv) {
  const tpa::Args args = tpa::ParseArgs(argc, argv);
  const std::vector<tpa::Workload> all = tpa::Workloads(args.toy);
  const tpa::Workload& w = tpa::FindWorkload(all, args.workload);
  if (args.mode == "prepare") return tpa::Prepare(args, w);
  if (args.mode == "run") return tpa::Run(args, w);
  tpa::Die("unknown mode " + args.mode);
}
