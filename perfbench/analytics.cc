// analytics phase: one client, one job at a time, over the six catalog
// shapes regenerated from the seed. A pass runs all twelve algorithms on
// ICM per graph plus a minority of jobs on the paper's baseline platforms
// (MSB, CHL, TGB, GoFFish) over the GPlus-like and Reddit-like graphs.
// Every timed typed result is checked against a reference computed once
// before measuring: a sequential oracle where algorithms/oracle has one,
// otherwise the same algorithm on a baseline platform.
//
// In the churn mix every graph is grown in place: every second edge
// arrives through TemporalGraph::Append and stays in the uncompacted
// delta segment.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "alloc_counter.h"
#include "algorithms/oracle.h"
#include "algorithms/runners.h"
#include "bench.h"
#include "bench_common.h"
#include "gen/generators.h"
#include "graph/builder.h"

namespace perfbench {
namespace {

using namespace graphite;

// Catalog scale of the analytics graphs.
constexpr double kScale = 0.25;
constexpr int kWorkers = 8;
constexpr int kThreads = 4;

enum Group { kUnit, kLong, kRoad, kBaseline, kNumGroups };
const char* const kGroupName[] = {"unit", "long", "road", "baseline"};

// Canonical form of a typed result: integer values by digest, real
// values kept for a tolerance comparison.
struct Canon {
  uint64_t digest = kFnvSeed;
  std::vector<double> reals;
};

// `g` grown in place: every vertex and every other edge (by storage
// position) sealed by the builder, the rest appended through
// TemporalGraph::Append and left uncompacted, so that every vertex's
// edges span the sealed base and the delta segment.
TemporalGraph Grown(const TemporalGraph& g) {
  TemporalGraphBuilder builder;
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    builder.AddVertex(g.vertex_id(v), g.vertex_interval(v));
    for (const auto& [label, values] : g.VertexProperties(v)) {
      for (const auto& e : values.entries()) {
        builder.SetVertexProperty(g.vertex_id(v), g.LabelName(label), e.interval, e.value);
      }
    }
  }
  EdgeBatch later;
  for (EdgePos pos = 0; pos < g.num_edges(); ++pos) {
    const StoredEdge& e = g.edge(pos);
    const VertexId src = g.vertex_id(e.src), dst = g.vertex_id(e.dst);
    const bool sealed = pos % 2 == 0;
    if (sealed) {
      builder.AddEdge(e.eid, src, dst, e.interval);
    } else {
      later.edges.push_back({e.eid, src, dst, e.interval});
    }
    for (const auto& [label, values] : g.EdgeProperties(pos)) {
      for (const auto& p : values.entries()) {
        if (sealed) {
          builder.SetEdgeProperty(e.eid, g.LabelName(label), p.interval, p.value);
        } else {
          later.props.push_back({e.eid, g.LabelName(label), p.interval, p.value});
        }
      }
    }
  }
  BuilderOptions options;
  options.horizon = g.horizon();
  auto grown = builder.Build(options);
  if (!grown.ok() || !grown->Append(later).ok()) {
    std::fprintf(stderr, "[perfbench] analytics: cannot grow a catalog graph\n");
    std::exit(1);
  }
  return std::move(*grown);
}

template <typename V>
Canon GridCanon(const TemporalGraph& g, const TemporalResult<V>& r, V absent) {
  Canon c;
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    for (TimePoint t = 0; t < g.horizon(); ++t) {
      c.digest = Fnv(c.digest, static_cast<uint64_t>(ResultAt(r, v, t, absent)));
    }
  }
  return c;
}

template <typename V>
Canon GridCanon(const TemporalGraph& g, const std::vector<std::vector<V>>& r) {
  Canon c;
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    for (TimePoint t = 0; t < g.horizon(); ++t) {
      c.digest = Fnv(c.digest, static_cast<uint64_t>(r[v][static_cast<size_t>(t)]));
    }
  }
  return c;
}

// Real-valued results over each vertex's lifespan only (PR and LCC are
// undefined where the vertex does not exist).
Canon AliveReals(const TemporalGraph& g, const TemporalResult<double>& r,
                 double absent) {
  Canon c;
  for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
    for (TimePoint t = 0; t < g.horizon(); ++t) {
      if (g.vertex_interval(v).Contains(t)) {
        c.reals.push_back(ResultAt(r, v, t, absent));
      }
    }
  }
  return c;
}

Canon VectorCanon(const std::vector<int64_t>& r) {
  Canon c;
  for (int64_t x : r) c.digest = Fnv(c.digest, static_cast<uint64_t>(x));
  return c;
}

bool SameResult(const Canon& got, const Canon& want) {
  if (got.digest != want.digest || got.reals.size() != want.reals.size()) {
    return false;
  }
  for (size_t i = 0; i < got.reals.size(); ++i) {
    // The cross-platform and oracle tests' tolerance.
    if (std::fabs(got.reals[i] - want.reals[i]) >
        1e-9 * std::max(1.0, std::fabs(want.reals[i]))) {
      return false;
    }
  }
  return true;
}

// Times one call into a typed runner: wall time, heap allocations and a
// span, around the engine call only (not the benchmark's digest).
struct Probe {
  Tracer* tracer = nullptr;
  const char* span = "";
  int64_t id = 0;
  int64_t wall_ns = 0;
  uint64_t allocs = 0;

  template <typename F>
  auto Time(F&& run) {
    const int index = tracer != nullptr ? tracer->Begin(span, id) : -1;
    const uint64_t a0 = benchalloc::AllocCount();
    const int64_t t0 = NowNanos();
    auto result = run();
    wall_ns = NowNanos() - t0;
    allocs = benchalloc::AllocCount() - a0;
    if (tracer != nullptr) tracer->End(index);
    return result;
  }
};

Canon RunTyped(Workload& w, Platform p, Algorithm a, const RunConfig& c,
               RunMetrics* m, Probe* probe) {
  const TemporalGraph& g = w.graph();
  switch (a) {
    case Algorithm::kBfs:
      return GridCanon(g, probe->Time([&] { return RunBfsOn(w, p, c, m); }), kInfCost);
    case Algorithm::kWcc:
      return GridCanon(g, probe->Time([&] { return RunWccOn(w, p, c, m); }), kInfCost);
    case Algorithm::kScc:
      return GridCanon(g, probe->Time([&] { return RunSccOn(w, p, c, m); }), kInfCost);
    case Algorithm::kPr:
      return AliveReals(g, probe->Time([&] { return RunPrOn(w, p, c, m); }), -1.0);
    case Algorithm::kSssp:
      return GridCanon(g, probe->Time([&] { return RunSsspOn(w, p, c, m); }), kInfCost);
    case Algorithm::kEat:
      return VectorCanon(probe->Time([&] { return RunEatOn(w, p, c, m); }));
    case Algorithm::kFast:
      return VectorCanon(probe->Time([&] { return RunFastOn(w, p, c, m); }));
    case Algorithm::kLd:
      return VectorCanon(probe->Time([&] { return RunLdOn(w, p, c, m); }));
    case Algorithm::kTmst: {
      Canon out;
      for (const auto& [arrival, parent] :
           probe->Time([&] { return RunTmstOn(w, p, c, m); })) {
        out.digest = Fnv(Fnv(out.digest, static_cast<uint64_t>(arrival)),
                         static_cast<uint64_t>(parent));
      }
      return out;
    }
    case Algorithm::kRh:
      return GridCanon(g, probe->Time([&] { return RunRhOn(w, p, c, m); }),
                       static_cast<uint8_t>(0));
    case Algorithm::kLcc:
      return AliveReals(g, probe->Time([&] { return RunLccOn(w, p, c, m); }), 0.0);
    case Algorithm::kTc:
      return GridCanon(g, probe->Time([&] { return RunTcOn(w, p, c, m); }), int64_t{0});
  }
  return {};
}

// The reference each timed result must equal.
Canon Reference(Workload& w, Algorithm a, const RunConfig& c) {
  const TemporalGraph& g = w.graph();
  switch (a) {
    case Algorithm::kBfs: return GridCanon(g, OracleBfs(g, c.source));
    case Algorithm::kWcc: return GridCanon(g, OracleWcc(g));
    case Algorithm::kScc: return GridCanon(g, OracleScc(g));
    case Algorithm::kPr: {
      const auto pr = OraclePageRank(g, IcmPageRank::kIterations);
      Canon out;
      for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
        for (TimePoint t = 0; t < g.horizon(); ++t) {
          if (g.vertex_interval(v).Contains(t)) {
            out.reals.push_back(pr[v][static_cast<size_t>(t)]);
          }
        }
      }
      return out;
    }
    case Algorithm::kSssp: return GridCanon(g, OracleSsspCosts(g, c.source));
    case Algorithm::kEat: return VectorCanon(OracleEat(g, c.source));
    case Algorithm::kFast: return VectorCanon(OracleFastest(g, c.source));
    case Algorithm::kLd:
      return VectorCanon(OracleLatestDeparture(
          g, g.vertex_id(static_cast<VertexIdx>(g.num_vertices() - 1)),
          g.horizon()));
    case Algorithm::kRh: return GridCanon(g, OracleReach(g, c.source));
    case Algorithm::kTc: return GridCanon(g, OracleTriangles(g));
    case Algorithm::kLcc: {
      const auto tri = OracleTriangles(g);
      const auto degrees = OutDegreeProfiles(g);
      Canon out;
      for (VertexIdx v = 0; v < g.num_vertices(); ++v) {
        for (TimePoint t = 0; t < g.horizon(); ++t) {
          if (!g.vertex_interval(v).Contains(t)) continue;
          const int64_t d = degrees[v].Get(t).value_or(0);
          const int64_t n = tri[v][static_cast<size_t>(t)];
          out.reals.push_back(d >= 2 && n > 0 ? static_cast<double>(n) /
                                                    static_cast<double>(d * (d - 1))
                                              : 0.0);
        }
      }
      return out;
    }
    case Algorithm::kTmst: {
      // No oracle for parents: TGB is the cross-platform reference.
      RunConfig seq = c;
      seq.use_threads = false;
      Probe untimed;
      return RunTyped(w, Platform::kTgb, a, seq, nullptr, &untimed);
    }
  }
  return {};
}

struct Dataset {
  std::string name;
  Group group;
  std::unique_ptr<Workload> workload;
  RunConfig config;
};

struct Job {
  size_t dataset;
  Algorithm alg;
  Platform platform;
  Group group;
};

// Totals of one group over one pass.
struct GroupTotals {
  int64_t wall_ns = 0;
  int64_t allocs = 0;
  int64_t busy_ns = 0;
  int64_t thread_capacity_ns = 0;
  int64_t dense_workers = 0;
  int64_t worker_supersteps = 0;
  int64_t platform_ns[5] = {};
  RunMetrics metrics;
};

class Analytics : public Phase {
 public:
  explicit Analytics(const Context& ctx) : ctx_(ctx) {}

  double Setup() override {
    const int64_t t0 = NowNanos();
    datasets_.clear();
    int64_t gen_ns = 0;
    size_t delta_edges = 0, edges = 0;
    for (const DatasetSpec& spec0 : DatasetCatalog(kScale)) {
      DatasetSpec spec = spec0;
      spec.options.seed = ctx_.options->SubSeed(spec0.options.seed);
      const int64_t g0 = NowNanos();
      TemporalGraph graph = Generate(spec.options);
      if (ctx_.options->churn()) graph = Grown(graph);
      delta_edges += graph.num_delta_edges();
      edges += graph.num_edges();
      Dataset d{spec.name, GroupOf(spec.name), std::make_unique<Workload>(std::move(graph)),
                {}};
      gen_ns += NowNanos() - g0;
      d.config.num_workers = kWorkers;
      d.config.use_threads = true;
      d.config.runtime.num_threads = kThreads;
      d.config.source = bench::HubVertex(d.workload->graph());
      datasets_.push_back(std::move(d));
    }
    delta_edge_share_ = static_cast<double>(delta_edges) / static_cast<double>(edges);
    BuildJobs();
    // Derived graphs are built lazily on first use; building them here is
    // the "derive" part of setup, the warm-up pass then runs every job.
    const int64_t d0 = NowNanos();
    for (Dataset& d : datasets_) {
      d.workload->reversed();
      d.workload->undirected();
      d.workload->transformed();
      d.workload->transformed_zero();
    }
    derive_ns_.push_back(NowNanos() - d0);
    gen_ns_.push_back(gen_ns);
    // The warm-up pass: every job once. Its results are not checked here
    // (the references are computed after setup); every timed one is.
    RunPass(nullptr, /*threads=*/true, /*check=*/false);
    return static_cast<double>(NowNanos() - t0) / 1e9;
  }

  void Prepare() override {
    // One reference per (graph, algorithm); baseline jobs share it.
    refs_.assign(datasets_.size() * std::size(kAllAlgorithms), Canon{});
    for (size_t i = 0; i < datasets_.size(); ++i) {
      RunConfig seq = datasets_[i].config;
      seq.use_threads = false;
      for (Algorithm a : kAllAlgorithms) {
        refs_[RefIndex(i, a)] = Reference(*datasets_[i].workload, a, seq);
      }
    }
  }

  void MeasureRound(double seconds) override {
    const int64_t deadline = NowNanos() + static_cast<int64_t>(seconds * 1e9);
    Tracer* tracer = ctx_.tracer;
    const bool tracing = tracer->enabled();
    int64_t pass_ns = 0;
    do {
      // In a traced run, every other pass runs with spans off, so the
      // span cost shows as traced minus untraced pass time.
      tracer->set_enabled(tracing && passes_ % 2 == 0);
      std::vector<GroupTotals> totals(kNumGroups);
      const CpuTimes cpu0 = ReadCpuTimes();
      const int64_t p0 = NowNanos();
      RunPass(&totals, /*threads=*/true);
      pass_ns = NowNanos() - p0;
      pass_steal_.push_back(StealFrac(cpu0, ReadCpuTimes()));
      (tracer->enabled() ? traced_ms_ : untraced_ms_).push_back(Ms(pass_ns));
      for (int g = 0; g < kNumGroups; ++g) passes_totals_[g].push_back(totals[g]);
      ++passes_;
      // Another pass only when at least half of it fits the round.
    } while (NowNanos() + pass_ns / 2 < deadline);
    tracer->set_enabled(tracing);
  }

  void Finish() override {
    const auto& passes_totals = passes_totals_;
    Tracer* tracer = ctx_.tracer;
    const bool tracing = tracer->enabled();
    Report& r = *ctx_.report;
    r.Info("analytics.scale", kScale);
    r.Info("analytics.passes", passes_);
    r.Info("analytics.jobs_per_pass", static_cast<double>(jobs_.size()));
    r.Info("analytics.delta_edge_share", delta_edge_share_);
    // solve_s: the median over the half of the passes during which the
    // hypervisor took the least CPU time.
    const std::vector<size_t> kept = LeastStolenHalf(pass_steal_);
    std::vector<double> kept_steal;
    for (size_t i : kept) kept_steal.push_back(pass_steal_[i]);
    r.Info("analytics.kept_passes_steal_max",
           *std::max_element(kept_steal.begin(), kept_steal.end()));
    for (int g = 0; g < kNumGroups; ++g) {
      std::vector<double> wall_s;
      for (size_t i : kept) {
        wall_s.push_back(static_cast<double>(passes_totals[g][i].wall_ns) / 1e9);
      }
      r.Metric(std::string("solve_s.") + kGroupName[g], Median(wall_s), "s");
    }
    if (!tracing) return;

    // Per-layer metrics from the traced passes.
    for (int g = 0; g < kNumGroups; ++g) {
      const std::string sfx = std::string(".") + kGroupName[g];
      const auto& all = passes_totals[g];
      auto median_of = [&](auto field) {
        std::vector<double> xs;
        for (const GroupTotals& t : all) xs.push_back(field(t));
        return Median(xs);
      };
      const GroupTotals& last = all.back();
      const RunMetrics& m = last.metrics;
      const double supersteps = static_cast<double>(std::max<int64_t>(1, m.supersteps));
      if (g == kBaseline) {
        r.Layer("vcm.messaging_ms.baseline",
                 median_of([](const GroupTotals& t) { return Ms(t.metrics.messaging_ns); }),
                 "ms");
        r.Layer("vcm.allocs_per_superstep.baseline",
                 static_cast<double>(last.allocs) / supersteps, "count");
        continue;
      }
      r.Layer("icm.run_ms" + sfx, Median(GroupSelfMs(g)), "ms");
      r.Layer("engine.compute_ms" + sfx,
               median_of([](const GroupTotals& t) { return Ms(t.metrics.compute_ns); }), "ms");
      r.Layer("engine.messaging_ms" + sfx,
               median_of([](const GroupTotals& t) { return Ms(t.metrics.messaging_ns); }), "ms");
      r.Layer("engine.barrier_ms" + sfx,
               median_of([](const GroupTotals& t) { return Ms(t.metrics.barrier_ns); }), "ms");
      r.Layer("engine.supersteps" + sfx, static_cast<double>(m.supersteps), "count");
      r.Layer("engine.messages" + sfx, static_cast<double>(m.messages), "count");
      r.Layer("engine.message_bytes" + sfx, static_cast<double>(m.message_bytes), "bytes");
      r.Layer("icm.compute_calls" + sfx, static_cast<double>(m.compute_calls), "count");
      r.Layer("icm.scatter_calls" + sfx, static_cast<double>(m.scatter_calls), "count");
      r.Layer("icm.warp_slices" + sfx, static_cast<double>(m.warp_slices), "count");
      r.Layer("icm.warp_merge_ratio" + sfx,
               m.warp_slices > 0 ? static_cast<double>(m.warp_merge_hits) /
                                       static_cast<double>(m.warp_slices)
                                 : 0.0,
               "ratio");
      r.Layer("engine.steals" + sfx,
               median_of([](const GroupTotals& t) { return static_cast<double>(t.metrics.steals); }),
               "count");
      r.Layer("engine.thread_busy_frac" + sfx,
               median_of([](const GroupTotals& t) {
                 return t.thread_capacity_ns > 0
                            ? static_cast<double>(t.busy_ns) /
                                  static_cast<double>(t.thread_capacity_ns)
                            : 0.0;
               }),
               "ratio");
      r.Layer("engine.frontier_dense_frac" + sfx,
               last.worker_supersteps > 0
                   ? static_cast<double>(last.dense_workers) /
                         static_cast<double>(last.worker_supersteps)
                   : 0.0,
               "ratio");
      r.Layer("engine.allocs_per_superstep" + sfx,
               static_cast<double>(last.allocs) / supersteps, "count");
    }
    for (Platform p : {Platform::kMsb, Platform::kChl, Platform::kTgb, Platform::kGof}) {
      std::vector<double> ms;
      for (const GroupTotals& t : passes_totals[kBaseline]) {
        ms.push_back(Ms(t.platform_ns[static_cast<int>(p)]));
      }
      std::string key = PlatformName(p);
      std::transform(key.begin(), key.end(), key.begin(), ::tolower);
      r.Layer("vcm.run_ms." + key, Median(ms), "ms");
    }
    std::vector<double> gen, derive;
    for (int64_t ns : gen_ns_) gen.push_back(Ms(ns));
    for (int64_t ns : derive_ns_) derive.push_back(Ms(ns));
    r.Layer("gen.graph_ms", Median(gen), "ms");
    r.Layer("graph.derive_ms", Median(derive), "ms");
    r.Layer("trace.overhead_ms",
             Median(traced_ms_) - Median(untraced_ms_), "ms");

    // Sequential time / 4-thread time, one sequential pass per group.
    std::vector<GroupTotals> seq(kNumGroups);
    const bool was = tracer->enabled();
    tracer->set_enabled(false);
    RunPass(&seq, /*threads=*/false);
    tracer->set_enabled(was);
    for (int g = 0; g < kNumGroups; ++g) {
      if (g == kBaseline) continue;
      std::vector<double> par;
      for (const GroupTotals& t : passes_totals[g]) par.push_back(static_cast<double>(t.wall_ns));
      r.Layer(std::string("engine.parallel_speedup.") + kGroupName[g],
               static_cast<double>(seq[g].wall_ns) / Median(par), "ratio");
    }
  }

  double PeakRss() const override { return PeakRssMb(getpid()); }

 private:
  static size_t RefIndex(size_t dataset, Algorithm a) {
    return dataset * std::size(kAllAlgorithms) + static_cast<size_t>(a);
  }

  static Group GroupOf(const std::string& name) {
    if (name.rfind("GPlus", 0) == 0 || name.rfind("Reddit", 0) == 0) return kUnit;
    if (name.rfind("USRN", 0) == 0) return kRoad;
    return kLong;
  }

  void BuildJobs() {
    jobs_.clear();
    for (size_t i = 0; i < datasets_.size(); ++i) {
      for (Algorithm a : kAllAlgorithms) {
        jobs_.push_back({i, a, Platform::kIcm, datasets_[i].group});
      }
    }
    // The baseline minority: two algorithms per platform on the
    // unit-lifespan graphs, where the paper's baselines are closest.
    const std::pair<Platform, Algorithm> kBaselineJobs[] = {
        {Platform::kMsb, Algorithm::kBfs},  {Platform::kMsb, Algorithm::kWcc},
        {Platform::kChl, Algorithm::kBfs},  {Platform::kChl, Algorithm::kWcc},
        {Platform::kTgb, Algorithm::kSssp}, {Platform::kTgb, Algorithm::kEat},
        {Platform::kGof, Algorithm::kSssp}, {Platform::kGof, Algorithm::kEat},
    };
    for (size_t i = 0; i < datasets_.size(); ++i) {
      if (datasets_[i].group != kUnit) continue;
      for (const auto& [p, a] : kBaselineJobs) jobs_.push_back({i, a, p, kBaseline});
    }
  }

  // ICM job self times of group g over the traced passes, summed per pass.
  std::vector<double> GroupSelfMs(int g) const {
    const std::vector<double> self = ctx_.tracer->SelfMs(kSpanName[g]);
    const size_t per_pass = static_cast<size_t>(std::count_if(
        jobs_.begin(), jobs_.end(), [g](const Job& j) { return j.group == g; }));
    std::vector<double> sums;
    for (size_t i = 0; per_pass > 0 && i + per_pass <= self.size(); i += per_pass) {
      double s = 0;
      for (size_t k = i; k < i + per_pass; ++k) s += self[k];
      sums.push_back(s);
    }
    return sums;
  }

  void RunPass(std::vector<GroupTotals>* totals, bool threads,
               bool check = true) {
    for (size_t i = 0; i < jobs_.size(); ++i) {
      const Job& job = jobs_[i];
      Dataset& d = datasets_[job.dataset];
      RunConfig config = d.config;
      config.use_threads = threads;
      if (!threads && job.group == kBaseline) continue;
      RunMetrics metrics;
      Probe probe{ctx_.tracer, kSpanName[job.group], job_id_++};
      const Canon got = RunTyped(*d.workload, job.platform, job.alg, config, &metrics, &probe);
      const int64_t wall = probe.wall_ns;
      const uint64_t allocs = probe.allocs;
      if (check) {
        ctx_.report->Check(SameResult(got, refs_[RefIndex(job.dataset, job.alg)]),
                           d.name + " " + AlgorithmName(job.alg) + " on " +
                               PlatformName(job.platform));
      }
      if (totals == nullptr) continue;
      GroupTotals& t = (*totals)[job.group];
      t.wall_ns += wall;
      t.allocs += static_cast<int64_t>(allocs);
      t.metrics.Merge(metrics);
      for (const SuperstepMetrics& ss : metrics.per_superstep) {
        for (int64_t ns : ss.thread_compute_ns) t.busy_ns += ns;
        for (int64_t ns : ss.thread_messaging_ns) t.busy_ns += ns;
        t.dense_workers += ss.frontier_dense_workers;
      }
      t.thread_capacity_ns += metrics.makespan_ns * kThreads;
      t.worker_supersteps += metrics.supersteps * kWorkers;
      t.platform_ns[static_cast<int>(job.platform)] += wall;
    }
  }

  static constexpr const char* kSpanName[] = {"icm.unit", "icm.long", "icm.road",
                                             "vcm.baseline"};

  Context ctx_;
  std::vector<Dataset> datasets_;
  std::vector<Job> jobs_;
  std::vector<Canon> refs_;
  std::vector<int64_t> gen_ns_, derive_ns_;
  int64_t job_id_ = 0;
  // Over all rounds.
  std::vector<GroupTotals> passes_totals_[kNumGroups];
  std::vector<double> traced_ms_, untraced_ms_;
  std::vector<double> pass_steal_;  // host steal share during each pass
  int passes_ = 0;
  double delta_edge_share_ = 0;
};

}  // namespace

std::unique_ptr<Phase> NewAnalytics(const Context& ctx) {
  return std::make_unique<Analytics>(ctx);
}

}  // namespace perfbench
