// The benchmark's workloads: input generation and the measured runs.
//
// A run drives the library only through public calls, timed from outside:
//   fb3_ff5_lz    graph::read_edgelist_file, then per solve
//                 ffmr::solve_max_flow (FF5, LZ wire codec) and
//                 flow::certify_max_flow
//   lattice_ffpr  the same with ffpr::solve_max_flow
//   service_ff5   graph::read_edgelist_file and service::load_trace_file,
//                 then a FlowService replaying the trace through query,
//                 query_batch and apply, batching consecutive queries the
//                 way FlowService::replay() does
// README.md gives the reason for each workload and defines every metric.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "common/profile.h"
#include "common/rng.h"
#include "common/trace.h"
#include "ffmr/solver.h"
#include "ffpr/solver.h"
#include "flow/certify.h"
#include "flow/max_flow.h"
#include "fold.h"
#include "graph/edgelist_io.h"
#include "graph/generators.h"
#include "mapreduce/cluster.h"
#include "perfbench.h"
#include "service/flow_service.h"
#include "service/trace.h"

namespace perfbench {

using namespace mrflow;

namespace {

using Clock = std::chrono::steady_clock;
using common::TraceSpan;
using graph::Capacity;
using graph::VertexId;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Input sizes; the tiny set is the self-test's.
struct Sizes {
  double fb_scale;      // facebook_ladder scale: 0.04 gives FB3' 3,880 vertices
  int fb_w;             // super terminals per side
  VertexId rows, cols;  // lattice
  VertexId sw_n;        // service graph vertices
  uint64_t ops;         // service trace length
};
constexpr Sizes kFull{0.04, 16, 80, 60, 300, 600};
constexpr Sizes kTiny{0.004, 4, 12, 10, 60, 120};

// setup_s is the median of this many setups before the warm-up plus one
// after each timed solve or replay, so its samples span the whole run.
constexpr int kSetupRepeats = 5;
constexpr size_t kMinSamples = 3;   // timed solves or replays per phase
constexpr size_t kBatchWindow = 8;  // ServiceOptions::batch_window

enum class Solver { kFfmr, kFfpr };

// Every per-layer metric with its unit. A layer a workload does not run
// reads 0 there.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"graph.load_s", "s"},
    {"mapreduce.jobs", "count"},
    {"mapreduce.map_tasks", "count"},
    {"mapreduce.reduce_tasks", "count"},
    {"mapreduce.job_wall_s", "s"},
    {"mapreduce.job_wall_p50_ms", "ms"},
    {"mapreduce.job_wall_p99_ms", "ms"},
    {"mapreduce.map_task_p50_us", "us"},
    {"mapreduce.reduce_task_p50_us", "us"},
    {"mapreduce.shuffle_bytes", "bytes"},
    {"mapreduce.shuffle_bytes_wire", "bytes"},
    {"mapreduce.schimmy_bytes", "bytes"},
    {"mapreduce.map_output_records", "count"},
    {"mapreduce.task_retries", "count"},
    {"mapreduce.critical_path_ms", "ms"},
    {"mapreduce.blame.scheduler_idle_s", "sim_s"},
    {"mapreduce.blame.map_compute_s", "sim_s"},
    {"mapreduce.blame.shuffle_intra_wire_s", "sim_s"},
    {"mapreduce.blame.codec_s", "sim_s"},
    {"mapreduce.blame.merge_s", "sim_s"},
    {"mapreduce.blame.reduce_compute_s", "sim_s"},
    {"mapreduce.job_self_s", "s"},
    {"mapreduce.map_self_s", "s"},
    {"mapreduce.merge_self_s", "s"},
    {"mapreduce.reduce_self_s", "s"},
    {"codec.compress_s", "s"},
    {"codec.decompress_s", "s"},
    {"codec.compress_mbps", "MB/s"},
    {"codec.wire_ratio", "ratio"},
    {"pool.idle_s", "s"},
    {"pool.steals", "count"},
    {"dfs.writes", "count"},
    {"dfs.write_s", "s"},
    {"dfs.read_s", "s"},
    {"ffmr.rounds", "count"},
    {"ffmr.candidates", "count"},
    {"ffmr.accepted_paths", "count"},
    {"ffmr.accept_ratio", "ratio"},
    {"ffmr.paths_extended", "count"},
    {"ffmr.rpc_calls", "count"},
    {"ffmr.aug_s", "s"},
    {"ffmr.driver_s", "s"},
    {"ffpr.waves", "count"},
    {"ffpr.relabel_rounds", "count"},
    {"ffpr.requests", "count"},
    {"ffpr.pushes", "count"},
    {"ffpr.push_ratio", "ratio"},
    {"ffpr.lifts", "count"},
    {"ffpr.driver_s", "s"},
    {"flow.certify_s", "s"},
    {"service.cold", "count"},
    {"service.warm", "count"},
    {"service.cache", "count"},
    {"service.batch", "count"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.invalidations", "count"},
    {"service.evictions", "count"},
    {"service.repairs", "count"},
    {"service.cold_p50_ms", "ms"},
    {"service.warm_p50_ms", "ms"},
    {"service.cache_p50_ms", "ms"},
    {"service.batch_p50_ms", "ms"},
    {"service.update_p50_us", "us"},
    {"service.jobs_per_query", "ratio"},
    {"trace.spans", "count"},
    {"trace.dropped", "count"},
    {"trace.overhead_pct", "%"},
};

using Layers = std::map<std::string, double>;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int cpu_count() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// The driver thread runs tasks too (TaskGraph::wait_all), so nproc - 1
// executors keep the runnable threads at the core count.
int executor_threads() { return std::max(1, cpu_count() - 1); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------- inputs

// terminals.txt: the vertices a super source feeds and a super sink
// drains, and the capacity of those arcs ("inf" for kInfiniteCap).
void write_terminals(const std::string& path, const std::string& cap,
                     const std::vector<VertexId>& sources,
                     const std::vector<VertexId>& sinks) {
  std::ofstream out(path);
  out << "# super source -> each source vertex, each sink vertex -> super sink\n"
      << "cap " << cap << "\nsource";
  for (VertexId v : sources) out << ' ' << v;
  out << "\nsink";
  for (VertexId v : sinks) out << ' ' << v;
  out << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

// Every seed gets the same instance -- graph, terminals, trace -- under its
// own vertex numbering and edge order. Fresh random graphs per seed moved
// the work itself: FB3' analogs from five seeds took 1.29-1.54 ks of
// simulated time, and five service traces 270-346 ops/s.
constexpr uint64_t kInstanceSeed = 1;

// `g` with vertex v renamed id[v] and its edge pairs in a seeded order.
graph::Graph relabeled(const graph::Graph& g, uint64_t seed,
                       std::vector<VertexId>& id) {
  rng::Xoshiro256 rng(seed);
  id.resize(g.num_vertices());
  std::iota(id.begin(), id.end(), VertexId{0});
  rng.shuffle(id);
  std::vector<graph::EdgePair> edges = g.edges();
  rng.shuffle(edges);
  graph::Graph out(g.num_vertices());
  for (const graph::EdgePair& e : edges) {
    out.add_edge(id[e.a], id[e.b], e.cap_ab, e.cap_ba);
  }
  return out;
}

void generate_fb3(const Sizes& z, uint64_t seed, const std::string& dir) {
  const graph::FacebookLadderEntry fb3 = graph::facebook_ladder(z.fb_scale).at(2);
  const graph::Graph g =
      graph::facebook_like(fb3.vertices, fb3.avg_degree, kInstanceSeed);
  // Terminals as the paper benches pick them: random vertices of degree at
  // least 1.5x the average, the bar halved while too few qualify.
  size_t min_degree = static_cast<size_t>(fb3.avg_degree) * 3 / 2;
  graph::FlowProblem p;
  while (true) {
    try {
      p = graph::attach_super_terminals(g, z.fb_w, min_degree, kInstanceSeed);
      break;
    } catch (const std::invalid_argument&) {
      if (min_degree == 0) throw;
      min_degree /= 2;
    }
  }
  std::vector<VertexId> id;
  graph::write_edgelist_file(relabeled(g, seed, id), dir + "/graph.edges");
  // attach_super_terminals appends w pairs s->v, then w pairs v->t.
  const auto& edges = p.graph.edges();
  const size_t w = static_cast<size_t>(z.fb_w);
  const size_t first = edges.size() - 2 * w;
  std::vector<VertexId> sources, sinks;
  for (size_t i = 0; i < w; ++i) {
    sources.push_back(id[edges[first + i].b]);
    sinks.push_back(id[edges[first + w + i].a]);
  }
  write_terminals(dir + "/terminals.txt", "inf", sources, sinks);
}

void generate_lattice(const Sizes& z, uint64_t seed, const std::string& dir) {
  std::vector<VertexId> id;
  graph::write_edgelist_file(relabeled(graph::grid(z.rows, z.cols, 2), seed, id),
                             dir + "/graph.edges");
  std::vector<VertexId> left, right;
  for (VertexId r = 0; r < z.rows; ++r) {
    left.push_back(id[r * z.cols]);
    right.push_back(id[r * z.cols + z.cols - 1]);
  }
  // Finite terminal arcs, as lattice_flow_problem(rows, cols, 2, 2).
  write_terminals(dir + "/terminals.txt", "2", left, right);
}

void generate_service(const Sizes& z, uint64_t seed, const std::string& dir) {
  graph::Graph g = graph::watts_strogatz(z.sw_n, 6, 0.2, kInstanceSeed);
  g.finalize();
  service::TraceGenOptions t;
  t.ops = z.ops;
  t.query_fraction = 0.9;
  t.seed = kInstanceSeed;
  t.hot_pairs = 16;
  t.hot_fraction = 0.8;
  service::Trace trace = service::generate_trace(g, t);
  std::vector<VertexId> id;
  graph::write_edgelist_file(relabeled(g, seed, id), dir + "/graph.edges");
  for (service::Op& op : trace) {
    op.u = id[op.u];
    op.v = id[op.v];
  }
  service::save_trace_file(trace, dir + "/trace.txt");
}

// Reads terminals.txt and wires the super terminals the way
// graph::attach_super_terminals does: s and t are two new vertices after
// the highest id.
void wire_terminals(const std::string& path, graph::FlowProblem& p) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open " + path);
  Capacity cap = 0;
  std::vector<VertexId> sources, sinks;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key) || key[0] == '#') continue;
    if (key == "cap") {
      std::string c;
      ls >> c;
      cap = c == "inf" ? graph::kInfiniteCap : std::stoll(c);
    } else if (key == "source" || key == "sink") {
      std::vector<VertexId>& side = key == "source" ? sources : sinks;
      for (VertexId v; ls >> v;) side.push_back(v);
    } else {
      throw std::invalid_argument(path + ": unknown line '" + line + "'");
    }
  }
  if (cap <= 0 || sources.empty() || sinks.empty()) {
    throw std::invalid_argument(path + ": needs cap, source and sink lines");
  }
  p.source = p.graph.num_vertices();
  p.sink = p.source + 1;
  p.graph.ensure_vertex(p.sink);
  for (VertexId v : sources) p.graph.add_edge(p.source, v, cap, 0);
  for (VertexId v : sinks) p.graph.add_edge(v, p.sink, cap, 0);
  p.graph.finalize();
}

// ------------------------------------------------------- per-layer values

// The process-wide metrics registry's totals at one moment; two of them
// bracket a solve or replay.
struct RegistryPoint {
  common::MetricsSnapshot snapshot;

  static RegistryPoint now() {
    auto& registry = common::MetricsRegistry::global();
    registry.harvest();  // what no job end has harvested yet
    return {registry.cumulative()};
  }
  const common::Histogram* find(std::string_view name) const {
    auto it = snapshot.histograms.find(name);
    return it == snapshot.histograms.end() ? nullptr : &it->second;
  }
  double count(std::string_view name) const {
    const common::Histogram* h = find(name);
    return h ? static_cast<double>(h->count()) : 0.0;
  }
  double sum(std::string_view name) const {
    const common::Histogram* h = find(name);
    return h ? static_cast<double>(h->sum()) : 0.0;
  }
};

void add_registry_layers(const RegistryPoint& before, const RegistryPoint& after,
                         Layers& m) {
  m["pool.steals"] = after.count("pool.queue_steal") - before.count("pool.queue_steal");
  const double raw = after.sum("codec.block_raw_bytes") - before.sum("codec.block_raw_bytes");
  const double us = after.sum("codec.compress_us") - before.sum("codec.compress_us");
  m["codec.compress_mbps"] = ratio(raw, us);  // bytes per microsecond
}

void add_span_layers(const Fold& f, Layers& m) {
  m["mapreduce.job_wall_s"] = f.total_s("job");
  m["mapreduce.job_self_s"] = f.self_s("job");
  m["mapreduce.map_self_s"] = f.self_s("map");
  m["mapreduce.merge_self_s"] = f.self_s("merge");
  m["mapreduce.reduce_self_s"] = f.self_s("reduce");
  m["codec.compress_s"] = f.self_s("compress");
  m["codec.decompress_s"] = f.self_s("decompress");
  m["pool.idle_s"] = f.total_s("idle");
  m["dfs.writes"] = static_cast<double>(f.count("dfs.write"));
  m["dfs.write_s"] = f.self_s("dfs.write");
  m["dfs.read_s"] = f.self_s("dfs.read") + f.self_s("dfs.read_block");
  m["ffmr.aug_s"] = f.self_s("rpc") + f.self_s("aug.accept");
  m["flow.certify_s"] = f.total_s("bench.certify");
  m["trace.spans"] = static_cast<double>(f.spans);
}

// A blame category's key in profile reports ("map_compute_s").
std::string blame_key(size_t category) {
  return std::string(common::BlameBreakdown::name(
             static_cast<common::BlameCategory>(category))) +
         "_s";
}

void add_job_totals(size_t jobs, const mr::JobStats& t, Layers& m) {
  m["mapreduce.jobs"] = static_cast<double>(jobs);
  m["mapreduce.map_tasks"] = t.num_map_tasks;
  m["mapreduce.reduce_tasks"] = t.num_reduce_tasks;
  m["mapreduce.shuffle_bytes"] = static_cast<double>(t.shuffle_bytes);
  m["mapreduce.shuffle_bytes_wire"] = static_cast<double>(t.shuffle_bytes_wire);
  m["mapreduce.schimmy_bytes"] = static_cast<double>(t.schimmy_bytes);
  m["mapreduce.map_output_records"] = static_cast<double>(t.map_output_records);
  m["mapreduce.task_retries"] = static_cast<double>(t.task_retries);
  m["mapreduce.critical_path_ms"] = t.critical_path_ms;
  for (size_t c = 0; c < common::BlameBreakdown::kCategories; ++c) {
    m["mapreduce.blame." + blame_key(c)] = t.blame.seconds[c];
  }
  m["codec.wire_ratio"] = ratio(static_cast<double>(t.shuffle_bytes_wire),
                                static_cast<double>(t.shuffle_bytes));
}

// Pooled samples of the traced phase: one Layers map per solve or replay
// plus the distributions reported as percentiles.
struct TracedPhase {
  std::vector<Layers> samples;
  std::vector<double> walls;  // solve or replay wall, for the overhead
  std::vector<double> job_ms, map_ms, reduce_ms, load_ms;
  uint64_t dropped = 0;
  uint64_t busiest_thread_spans = 0;

  void add_fold(const Fold& f) {
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(job_ms, f.durations("job"));
    append(map_ms, f.durations("map"));
    append(reduce_ms, f.durations("reduce"));
    append(load_ms, f.durations("bench.load"));
    dropped += common::trace::dropped_count();
    busiest_thread_spans = std::max(busiest_thread_spans, f.busiest_thread_spans);
  }

  // Every per-layer metric: the median over the samples, with the pooled
  // distributions and the run-wide values set on top.
  void finish(double untraced_wall, RunResult& out) const {
    for (const LayerMetric& lm : kLayerMetrics) {
      std::vector<double> v;
      for (const Layers& s : samples) {
        auto it = s.find(lm.name);
        if (it != s.end()) v.push_back(it->second);
      }
      out.metrics[lm.name] = {median(std::move(v)), lm.unit};
    }
    auto set = [&](const char* name, double value) { out.metrics[name].value = value; };
    set("graph.load_s", median(load_ms) / 1e3);
    set("mapreduce.job_wall_p50_ms", median(job_ms));
    set("mapreduce.job_wall_p99_ms", quantile(job_ms, 0.99));
    set("mapreduce.map_task_p50_us", median(map_ms) * 1e3);
    set("mapreduce.reduce_task_p50_us", median(reduce_ms) * 1e3);
    set("trace.dropped", static_cast<double>(dropped));
    set("trace.overhead_pct", 100.0 * (ratio(median(walls), untraced_wall) - 1.0));
    out.info["trace_busiest_thread_spans"] = static_cast<double>(busiest_thread_spans);
    out.info["traced_samples"] = static_cast<double>(samples.size());
    if (dropped > 0) {
      out.problem("trace rings dropped " + std::to_string(dropped) +
                  " spans: the per-layer table is incomplete");
    }
  }
};

void check_exact(const std::map<std::string, int64_t>& reference,
                 const std::map<std::string, int64_t>& got,
                 const std::string& what, bool already_failed, RunResult& out) {
  if (got == reference || already_failed) return;
  std::string diff;
  for (const auto& [key, value] : reference) {
    auto it = got.find(key);
    if (it == got.end() || it->second != value) {
      diff += " " + key + "=" + (it == got.end() ? "?" : std::to_string(it->second)) +
              " (first run " + std::to_string(value) + ")";
    }
  }
  out.fail("determinism: " + what + ":" + diff);
}

// ------------------------------------------------- fb3_ff5_lz, lattice_ffpr

// The paper's testbed as bench_common models it -- 20 slaves with 15 map
// and 15 reduce slots, replication 2, 2 MB blocks, bandwidths scaled to the
// 0.04 data scale -- under bench_backends' warm-engine calibration (1 s per
// job, CPU slowdown 10). Under bench_common's JVM calibration measured host
// CPU dominates simulated time, which then jitters between identical solves.
mr::ClusterConfig testbed_config(int threads) {
  mr::ClusterConfig c;
  c.num_slave_nodes = 20;
  c.map_slots_per_node = 15;
  c.reduce_slots_per_node = 15;
  c.dfs_replication = 2;
  c.dfs_block_size = 2ull << 20;
  c.executor_threads = threads;
  const double bw = 0.04 / 40.0;
  c.cost.disk_mbps = 100.0 * bw;
  c.cost.network_mbps = 2.0 * bw;
  c.cost.codec_compress_mbps *= bw;
  c.cost.codec_decompress_mbps *= bw;
  c.cost.job_overhead_s = 1.0;
  c.cost.cpu_scale = 10.0;
  return c;
}

struct Loaded {
  graph::FlowProblem problem;
  VertexId base_vertices = 0;  // before the super terminals
  std::unique_ptr<mr::Cluster> cluster;
};

ffmr::FfmrOptions fb3_options(const Loaded& loaded, const std::string& base) {
  ffmr::FfmrOptions o;  // library defaults, as the CLI and the service run
  o.variant = ffmr::Variant::FF5;
  o.wire = ffmr::WireChoice::kOn;
  // The deterministic augmenter: with the async queue, accepted paths and
  // shuffled bytes depend on reducer arrival order.
  o.async_augmenter = false;
  // bench_fig7's data-sized reducers, one per ~500 vertices.
  o.num_reduce_tasks = static_cast<int>(
      std::clamp<VertexId>(loaded.base_vertices / 500, 8, 300));
  o.base = base;
  return o;
}

ffpr::FfprOptions lattice_options(const std::string& base) {
  ffpr::FfprOptions o;
  // bench_backends' lattice setting: exact initial heights and no periodic
  // relabel (finite terminal arcs strand no excess to drain back).
  o.initial_global_relabel = true;
  o.global_relabel_every = 0;
  o.base = base;
  return o;
}

struct Solve {
  double wall_s = 0;  // solve + certificate; 0 when the solve threw
  double sim_s = 0;
  bool failed = false;
  std::map<std::string, int64_t> exact;
  Layers layers;  // per-layer counts from the result
};

void record_ffmr(const ffmr::FfmrResult& r, Solve& s) {
  const mr::JobStats& t = r.totals;
  int64_t candidates = 0, accepted = 0, extended = 0;
  for (const ffmr::RoundInfo& info : r.rounds_info) {
    candidates += info.candidates;
    accepted += info.accepted_paths;
    extended += info.paths_extended;
  }
  s.sim_s = t.sim_seconds;
  s.exact = {{"max_flow", r.max_flow},
             {"mapreduce.jobs", static_cast<int64_t>(r.rounds_info.size())},
             {"ffmr.rounds", r.rounds},
             {"mapreduce.shuffle_bytes", static_cast<int64_t>(t.shuffle_bytes)},
             {"mapreduce.shuffle_bytes_wire", static_cast<int64_t>(t.shuffle_bytes_wire)}};
  add_job_totals(r.rounds_info.size(), t, s.layers);
  s.layers["ffmr.rounds"] = r.rounds;
  s.layers["ffmr.candidates"] = static_cast<double>(candidates);
  s.layers["ffmr.accepted_paths"] = static_cast<double>(accepted);
  s.layers["ffmr.accept_ratio"] = ratio(accepted, candidates);
  s.layers["ffmr.paths_extended"] = static_cast<double>(extended);
  s.layers["ffmr.rpc_calls"] = static_cast<double>(t.rpc_calls);
}

void record_ffpr(const ffpr::FfprResult& r, Solve& s) {
  const mr::JobStats& t = r.totals;
  int64_t requests = 0;
  for (const ffpr::WaveInfo& info : r.rounds_info) requests += info.requests;
  s.sim_s = t.sim_seconds;
  s.exact = {{"max_flow", r.max_flow},
             {"mapreduce.jobs", static_cast<int64_t>(r.rounds_info.size())},
             {"ffpr.waves", r.waves},
             {"ffpr.pushes", r.total_pushes},
             {"mapreduce.shuffle_bytes", static_cast<int64_t>(t.shuffle_bytes)},
             {"mapreduce.shuffle_bytes_wire", static_cast<int64_t>(t.shuffle_bytes_wire)}};
  add_job_totals(r.rounds_info.size(), t, s.layers);
  s.layers["ffpr.waves"] = r.waves;
  s.layers["ffpr.relabel_rounds"] = r.relabel_rounds;
  s.layers["ffpr.requests"] = static_cast<double>(requests);
  s.layers["ffpr.pushes"] = static_cast<double>(r.total_pushes);
  s.layers["ffpr.push_ratio"] = ratio(r.total_pushes, requests);
  s.layers["ffpr.lifts"] = static_cast<double>(r.total_lifts);
}

// One solve plus its certificate, timed together; the value is checked
// against the Dinic oracle. `corrupt` perturbs one pair flow first, which
// the certificate must catch.
Solve solve_once(Loaded& loaded, Solver solver, int seq, Capacity oracle,
                 bool corrupt, RunResult& out) {
  Solve s;
  const graph::FlowProblem& p = loaded.problem;
  const std::string base = "solve-" + std::to_string(seq);
  std::optional<ffmr::FfmrResult> fr;
  std::optional<ffpr::FfprResult> pr;
  const uint64_t failed_before = out.failed;
  ++out.attempted;
  try {
    const auto t0 = Clock::now();
    {
      TraceSpan span("bench.solve", "bench");
      if (solver == Solver::kFfmr) {
        fr = ffmr::solve_max_flow(*loaded.cluster, p, fb3_options(loaded, base));
      } else {
        pr = ffpr::solve_max_flow(*loaded.cluster, p, lattice_options(base));
      }
    }
    graph::FlowAssignment& flow = fr ? fr->assignment : pr->assignment;
    if (corrupt) flow.pair_flow.at(0) += 1;
    flow::Certificate cert;
    {
      TraceSpan span("bench.certify", "bench");
      cert = flow::certify_max_flow(p.graph, p.source, p.sink, flow);
    }
    s.wall_s = seconds_since(t0);
    const Capacity value = fr ? fr->max_flow : pr->max_flow;
    if (value != oracle || flow.value != oracle) {
      out.fail(base + ": flow " + std::to_string(value) + ", Dinic oracle " +
               std::to_string(oracle));
    } else if (!cert.valid()) {
      out.fail(base + ": invalid certificate: " + cert.summary());
    }
  } catch (const std::exception& e) {
    out.fail(base + ": " + e.what());
  }
  s.failed = out.failed != failed_before;
  // Untimed: the next solve starts from an equally empty DFS.
  for (const std::string& f : loaded.cluster->fs().list(base + "/")) {
    loaded.cluster->fs().remove(f);
  }
  if (fr) record_ffmr(*fr, s);
  if (pr) record_ffpr(*pr, s);
  return s;
}

RunResult run_solver(const RunConfig& cfg, Solver solver) {
  RunResult out;
  const int threads = executor_threads();

  // Setup: from the generated files to ready to solve.
  std::vector<double> setup_s;
  auto setup = [&] {
    const auto t0 = Clock::now();
    auto next = std::make_unique<Loaded>();
    {
      TraceSpan span("bench.load", "bench");
      next->problem.graph = graph::read_edgelist_file(cfg.inputs + "/graph.edges");
    }
    next->base_vertices = next->problem.graph.num_vertices();
    wire_terminals(cfg.inputs + "/terminals.txt", next->problem);
    next->cluster = std::make_unique<mr::Cluster>(testbed_config(threads));
    setup_s.push_back(seconds_since(t0));
    return next;
  };
  common::trace::set_enabled(cfg.trace);
  const uint64_t setup_begin = common::trace::now_ns();
  std::unique_ptr<Loaded> loaded;
  for (int i = 0; i < kSetupRepeats; ++i) {
    loaded.reset();  // free the previous copy before timing the next
    loaded = setup();
  }
  TracedPhase traced;
  traced.add_fold(fold_trace(setup_begin, common::trace::now_ns()));
  common::trace::set_enabled(false);
  common::trace::clear();

  const graph::FlowProblem& p = loaded->problem;
  const Capacity oracle = flow::max_flow_dinic(p.graph, p.source, p.sink).value;

  // Warm-up solve: arenas, caches and page faults settle. Its counts are
  // the reference every later solve must repeat exactly.
  int seq = 0;
  const Solve reference = solve_once(*loaded, solver, seq++, oracle, false, out);
  out.exact = reference.exact;
  const double phase_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;

  std::vector<double> walls, sims;
  bool corrupt = cfg.corrupt;
  for (const auto t0 = Clock::now();
       walls.size() < kMinSamples || seconds_since(t0) < phase_s;) {
    const Solve s = solve_once(*loaded, solver, seq++, oracle, corrupt, out);
    corrupt = false;
    check_exact(reference.exact, s.exact, "solve " + std::to_string(seq - 1),
                s.failed, out);
    if (s.wall_s <= 0) break;  // threw: stop rather than spin on failures
    walls.push_back(s.wall_s);
    sims.push_back(s.sim_s);
    setup();
  }
  out.info["solves"] = static_cast<double>(walls.size());

  if (!cfg.trace) {
    const double total = std::accumulate(walls.begin(), walls.end(), 0.0);
    out.metrics["setup_s"] = {median(setup_s), "s"};
    out.metrics["solve_wall_s"] = {median(walls), "s"};
    out.metrics["sim_makespan_s"] = {median(sims), "sim_s"};
    out.metrics["ops_per_s"] = {ratio(static_cast<double>(walls.size()), total), "1/s"};
    out.metrics["query_p50_ms"] = {1e3 * median(walls), "ms"};
    out.metrics["query_p99_ms"] = {1e3 * quantile(walls, 0.99), "ms"};
    out.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    return out;
  }

  common::trace::set_enabled(true);
  for (const auto t0 = Clock::now();
       traced.samples.size() < kMinSamples || seconds_since(t0) < phase_s;) {
    common::trace::clear();  // each thread's ring holds 65,536 spans
    const RegistryPoint before = RegistryPoint::now();
    const uint64_t begin = common::trace::now_ns();
    const Solve s = solve_once(*loaded, solver, seq++, oracle, false, out);
    const uint64_t end = common::trace::now_ns();
    const RegistryPoint after = RegistryPoint::now();
    check_exact(reference.exact, s.exact, "solve " + std::to_string(seq - 1),
                s.failed, out);
    if (s.wall_s <= 0) break;
    const Fold f = fold_trace(begin, end);
    traced.add_fold(f);
    Layers m = s.layers;
    add_span_layers(f, m);
    add_registry_layers(before, after, m);
    const double driver_s = f.total_s("bench.solve") - f.total_s("job");
    if (solver == Solver::kFfmr) {
      m["ffmr.driver_s"] = driver_s;
    } else {
      m["ffpr.driver_s"] = driver_s;
      m.erase("ffmr.aug_s");  // FF-PR's rpc spans are its grant service
    }
    traced.samples.push_back(std::move(m));
    traced.walls.push_back(s.wall_s);
  }
  common::trace::set_enabled(false);
  common::trace::clear();
  traced.finish(median(walls), out);
  return out;
}

// ----------------------------------------------------------- service_ff5

// bench_service's setup: a 4-node cluster (engine defaults otherwise) and
// a FlowService on the FF5 backend with every layer on -- cache, repair
// and warm start, batching, per-answer certification.
mr::ClusterConfig service_cluster_config(int threads) {
  mr::ClusterConfig c;
  c.num_slave_nodes = 4;
  c.executor_threads = threads;
  return c;
}

service::ServiceOptions service_options() {
  service::ServiceOptions o;
  o.backend = service::Backend::kFfmr;
  o.ffmr.variant = ffmr::Variant::FF5;
  o.ffmr.async_augmenter = false;
  return o;
}

// Totals of the jobs the ProfileCollector holds, read back from its
// report: FlowService returns no JobStats, so this is the only public view
// of the simulated cluster behind an answer.
struct JobTotals {
  double jobs = 0, sim_s = 0, critical_path_ms = 0;
  double shuffle_bytes = 0, shuffle_bytes_wire = 0;
  std::array<double, common::BlameBreakdown::kCategories> blame{};

  void add(const JobTotals& o) {
    jobs += o.jobs;
    sim_s += o.sim_s;
    critical_path_ms += o.critical_path_ms;
    shuffle_bytes += o.shuffle_bytes;
    shuffle_bytes_wire += o.shuffle_bytes_wire;
    for (size_t c = 0; c < blame.size(); ++c) blame[c] += o.blame[c];
  }
};

double report_number(const std::string& doc, size_t from, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = doc.find(needle, from);
  if (at == std::string::npos) {
    throw std::runtime_error("profile report has no " + key);
  }
  return std::strtod(doc.c_str() + at + needle.size(), nullptr);
}

JobTotals collected_job_totals() {
  const std::string doc = common::ProfileCollector::global().report_json(true);
  const size_t at = doc.find("\"totals\":{");
  if (at == std::string::npos) throw std::runtime_error("profile report has no totals");
  JobTotals t;
  t.jobs = report_number(doc, at, "jobs");
  t.sim_s = report_number(doc, at, "sim_s");
  t.critical_path_ms = report_number(doc, at, "critical_path_ms");
  t.shuffle_bytes = report_number(doc, at, "shuffle_bytes");
  t.shuffle_bytes_wire = report_number(doc, at, "shuffle_bytes_wire");
  for (size_t c = 0; c < t.blame.size(); ++c) {
    t.blame[c] = report_number(doc, at, blame_key(c));
  }
  return t;
}

// Untimed check of one answer against the service's graph at that moment:
// the value against a fresh Dinic solve, and the flow's certificate.
void check_answer(const graph::Graph& g, VertexId s, VertexId t,
                  const service::QueryResult& r, RunResult& out) {
  const Capacity oracle = flow::max_flow_dinic(g, s, t).value;
  flow::Certificate cert;
  {
    TraceSpan span("bench.certify", "bench");
    cert = flow::certify_max_flow(g, s, t, r.assignment);
  }
  const std::string what = "query " + std::to_string(s) + "->" + std::to_string(t) +
                           " (" + service::answer_source_name(r.source) + ")";
  if (r.value != oracle) {
    out.fail(what + ": value " + std::to_string(r.value) + ", Dinic oracle " +
             std::to_string(oracle));
  } else if (!cert.valid()) {
    out.fail(what + ": invalid certificate: " + cert.summary());
  }
}

struct Replay {
  double call_s = 0;  // summed wall of the timed calls
  uint64_t ops = 0;
  bool failed = false;
  std::vector<double> query_ms;     // caller-observed latency per query
  std::vector<double> solve_ms;     // ... of the queries the cache missed
  std::vector<double> solve_sim_s;  // simulated seconds of their calls
  std::array<std::vector<double>, 4> source_ms;  // by AnswerSource
  std::vector<double> update_us;
  std::map<std::string, int64_t> exact;
  Layers layers;
};

// A service ready to serve, from the generated files.
struct ServiceSetup {
  service::Trace trace;
  std::unique_ptr<mr::Cluster> cluster;
  std::unique_ptr<service::FlowService> svc;
};

ServiceSetup service_setup(const RunConfig& cfg, int threads) {
  ServiceSetup s;
  graph::Graph g;
  {
    TraceSpan span("bench.load", "bench");
    g = graph::read_edgelist_file(cfg.inputs + "/graph.edges");
  }
  s.trace = service::load_trace_file(cfg.inputs + "/trace.txt");
  s.cluster = std::make_unique<mr::Cluster>(service_cluster_config(threads));
  s.svc = std::make_unique<service::FlowService>(s.cluster.get(), std::move(g),
                                                 service_options());
  return s;
}

// One replay of the whole trace from the initial state, on a fresh
// service. Every call's wall time is the caller's: a query answered inside
// a batch waits for the whole query_batch call.
Replay replay_once(const RunConfig& cfg, int threads, bool corrupt,
                   RunResult& out) {
  Replay rp;
  const uint64_t failed_before = out.failed;
  const ServiceSetup setup = service_setup(cfg, threads);
  const service::Trace& trace = setup.trace;
  service::FlowService& svc = *setup.svc;

  auto& profile = common::ProfileCollector::global();
  JobTotals jobs;
  std::array<int64_t, 4> mix{};
  int64_t value_sum = 0, ffmr_rounds = 0;
  std::vector<std::pair<VertexId, VertexId>> window;
  auto flush = [&] {
    if (window.empty()) return;
    out.attempted += window.size();
    profile.clear();
    std::vector<service::QueryResult> results;
    const auto t0 = Clock::now();
    try {
      if (window.size() == 1) {
        TraceSpan span("bench.query", "bench");
        results.push_back(svc.query(window[0].first, window[0].second));
      } else {
        TraceSpan span("bench.query_batch", "bench");
        results = svc.query_batch(window);
      }
    } catch (const std::exception& e) {
      out.fail(std::to_string(window.size()) + " queries: " + e.what(),
               window.size());
      window.clear();
      return;
    }
    const double ms = 1e3 * seconds_since(t0);
    const JobTotals call = collected_job_totals();
    jobs.add(call);
    rp.call_s += ms / 1e3;
    rp.ops += window.size();
    for (size_t k = 0; k < results.size(); ++k) {
      service::QueryResult& r = results[k];
      const size_t source = static_cast<size_t>(r.source);
      rp.query_ms.push_back(ms);
      rp.source_ms[source].push_back(ms);
      ++mix[source];
      value_sum += r.value;
      if (r.source != service::AnswerSource::kCache) {
        rp.solve_ms.push_back(ms);
        rp.solve_sim_s.push_back(call.sim_s);
      }
      if (r.source == service::AnswerSource::kCold ||
          r.source == service::AnswerSource::kWarm) {
        ffmr_rounds += r.rounds;
      }
      if (corrupt && r.source != service::AnswerSource::kCache) {
        r.assignment.pair_flow.at(0) += 1;
        corrupt = false;
      }
      check_answer(svc.graph(), window[k].first, window[k].second, r, out);
    }
    window.clear();
  };

  for (const service::Op& op : trace) {
    if (op.kind == service::OpKind::kQuery) {
      window.emplace_back(op.u, op.v);
      if (window.size() >= kBatchWindow) flush();
      continue;
    }
    flush();
    ++out.attempted;
    const auto t0 = Clock::now();
    try {
      TraceSpan span("bench.update", "bench");
      svc.apply(op);
    } catch (const std::exception& e) {
      out.fail(std::string(service::op_kind_name(op.kind)) + ": " + e.what());
      continue;
    }
    const double s = seconds_since(t0);
    rp.call_s += s;
    ++rp.ops;
    rp.update_us.push_back(1e6 * s);
  }
  flush();
  rp.failed = out.failed != failed_before;

  const service::ServiceCounters& c = svc.counters();
  const double queries = static_cast<double>(mix[0] + mix[1] + mix[2] + mix[3]);
  rp.exact = {{"service.cold", mix[0]},
              {"service.warm", mix[1]},
              {"service.cache", mix[2]},
              {"service.batch", mix[3]},
              {"service.value_sum", value_sum},
              {"service.invalidations", static_cast<int64_t>(c.cache_invalidations)},
              {"service.repairs", static_cast<int64_t>(c.repair_rounds)},
              {"ffmr.rounds", ffmr_rounds},
              {"mapreduce.jobs", static_cast<int64_t>(jobs.jobs)},
              {"mapreduce.shuffle_bytes", static_cast<int64_t>(jobs.shuffle_bytes)}};
  Layers& m = rp.layers;
  m["service.cold"] = static_cast<double>(mix[0]);
  m["service.warm"] = static_cast<double>(mix[1]);
  m["service.cache"] = static_cast<double>(mix[2]);
  m["service.batch"] = static_cast<double>(mix[3]);
  m["service.cache_hit_ratio"] = ratio(static_cast<double>(mix[2]), queries);
  m["service.invalidations"] = static_cast<double>(c.cache_invalidations);
  m["service.evictions"] = static_cast<double>(c.cache_evictions);
  m["service.repairs"] = static_cast<double>(c.repair_rounds);
  m["service.jobs_per_query"] = ratio(jobs.jobs, queries);
  m["mapreduce.jobs"] = jobs.jobs;
  m["mapreduce.shuffle_bytes"] = jobs.shuffle_bytes;
  m["mapreduce.shuffle_bytes_wire"] = jobs.shuffle_bytes_wire;
  m["mapreduce.critical_path_ms"] = jobs.critical_path_ms;
  for (size_t c = 0; c < jobs.blame.size(); ++c) {
    m["mapreduce.blame." + blame_key(c)] = jobs.blame[c];
  }
  m["codec.wire_ratio"] = ratio(jobs.shuffle_bytes_wire, jobs.shuffle_bytes);
  m["ffmr.rounds"] = static_cast<double>(ffmr_rounds);
  return rp;
}

RunResult run_service(const RunConfig& cfg) {
  RunResult out;
  const int threads = executor_threads();
  common::ProfileCollector::global().set_enabled(true);
  std::vector<double> setup_s;
  auto setup = [&] {
    const auto t0 = Clock::now();
    const ServiceSetup ready = service_setup(cfg, threads);
    setup_s.push_back(seconds_since(t0));
  };
  for (int i = 0; i < kSetupRepeats; ++i) setup();
  // Warm-up replay; its counts are the reference every replay repeats.
  const Replay reference = replay_once(cfg, threads, false, out);
  out.exact = reference.exact;
  const double phase_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;

  std::vector<double> query_ms, solve_ms, solve_sim, replay_walls, replay_rates;
  bool corrupt = cfg.corrupt;
  for (const auto t0 = Clock::now();
       replay_walls.size() < kMinSamples || seconds_since(t0) < phase_s;) {
    const Replay rp = replay_once(cfg, threads, corrupt, out);
    corrupt = false;
    check_exact(reference.exact, rp.exact, "replay", rp.failed, out);
    query_ms.insert(query_ms.end(), rp.query_ms.begin(), rp.query_ms.end());
    solve_ms.insert(solve_ms.end(), rp.solve_ms.begin(), rp.solve_ms.end());
    solve_sim.insert(solve_sim.end(), rp.solve_sim_s.begin(), rp.solve_sim_s.end());
    replay_walls.push_back(rp.call_s);
    replay_rates.push_back(ratio(static_cast<double>(rp.ops), rp.call_s));
    setup();
  }
  out.info["replays"] = static_cast<double>(replay_walls.size());
  out.info["replay_ops_per_s_min"] = quantile(replay_rates, 0.0);
  out.info["replay_ops_per_s_max"] = quantile(replay_rates, 1.0);
  out.info["queries"] = static_cast<double>(query_ms.size());

  if (!cfg.trace) {
    out.metrics["setup_s"] = {median(setup_s), "s"};
    out.metrics["solve_wall_s"] = {median(solve_ms) / 1e3, "s"};
    out.metrics["sim_makespan_s"] = {median(solve_sim), "sim_s"};
    out.metrics["ops_per_s"] = {median(replay_rates), "1/s"};
    out.metrics["query_p50_ms"] = {median(query_ms), "ms"};
    out.metrics["query_p99_ms"] = {quantile(query_ms, 0.99), "ms"};
    out.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    return out;
  }

  TracedPhase traced;
  std::array<std::vector<double>, 4> source_ms;
  std::vector<double> update_us;
  common::trace::set_enabled(true);
  for (const auto t0 = Clock::now();
       traced.samples.size() < kMinSamples || seconds_since(t0) < phase_s;) {
    common::trace::clear();  // each thread's ring holds 65,536 spans
    const RegistryPoint before = RegistryPoint::now();
    const uint64_t begin = common::trace::now_ns();
    Replay rp = replay_once(cfg, threads, false, out);
    const uint64_t end = common::trace::now_ns();
    const RegistryPoint after = RegistryPoint::now();
    check_exact(reference.exact, rp.exact, "replay", rp.failed, out);
    const Fold f = fold_trace(begin, end);
    traced.add_fold(f);
    Layers m = std::move(rp.layers);
    add_span_layers(f, m);
    add_registry_layers(before, after, m);
    m["mapreduce.map_tasks"] = static_cast<double>(f.count("map"));
    m["mapreduce.reduce_tasks"] = static_cast<double>(f.count("reduce"));
    m["ffmr.rpc_calls"] = static_cast<double>(f.count("rpc"));
    // The service's own time around the jobs: cache, repair, certificate
    // and the solver driver.
    m["ffmr.driver_s"] = f.self_s("bench.query") + f.self_s("bench.query_batch");
    traced.samples.push_back(std::move(m));
    traced.walls.push_back(rp.call_s);
    for (size_t k = 0; k < source_ms.size(); ++k) {
      source_ms[k].insert(source_ms[k].end(), rp.source_ms[k].begin(),
                          rp.source_ms[k].end());
    }
    update_us.insert(update_us.end(), rp.update_us.begin(), rp.update_us.end());
  }
  common::trace::set_enabled(false);
  common::trace::clear();
  traced.finish(median(replay_walls), out);
  const char* const kSourceP50[] = {"service.cold_p50_ms", "service.warm_p50_ms",
                                    "service.cache_p50_ms", "service.batch_p50_ms"};
  for (size_t k = 0; k < source_ms.size(); ++k) {
    out.metrics[kSourceP50[k]].value = median(source_ms[k]);
  }
  out.metrics["service.update_p50_us"].value = median(update_us);
  return out;
}

}  // namespace

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

void generate(const std::string& workload, uint64_t seed, bool tiny,
              const std::string& dir) {
  const Sizes& z = tiny ? kTiny : kFull;
  if (workload == "fb3_ff5_lz") {
    generate_fb3(z, seed, dir);
  } else if (workload == "lattice_ffpr") {
    generate_lattice(z, seed, dir);
  } else if (workload == "service_ff5") {
    generate_service(z, seed, dir);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
}

RunResult run(const RunConfig& config) {
  RunResult out;
  if (config.workload == "fb3_ff5_lz") {
    out = run_solver(config, Solver::kFfmr);
  } else if (config.workload == "lattice_ffpr") {
    out = run_solver(config, Solver::kFfpr);
  } else if (config.workload == "service_ff5") {
    out = run_service(config);
  } else {
    throw std::invalid_argument("unknown workload '" + config.workload + "'");
  }
  out.info["nproc"] = cpu_count();
  out.info["executor_threads"] = executor_threads();
  return out;
}

}  // namespace perfbench
