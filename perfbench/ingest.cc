// ingest phase: the first half of a SyntheticUpdateStream feed seals a
// base graph during setup; the rest is replayed in a closed loop as
// windows. Every window goes UpdateBatcher -> TemporalGraph::Append ->
// IcmEngine::RunIncremental for three standing queries (SSSP, EAT, Reach
// from the base graph's hubs), with barrier checkpoints into a
// CheckpointStore, a periodic Compact, and a FaultInjector kill plus
// resume on kKilledWindows seed-chosen windows. The hot mix replays a
// steady feed (one feed time-point per window, Compact every 50 windows);
// the churn mix a bursty one (four time-points per window, Compact every
// 8 windows). Both checkpoint every 4th superstep: checkpointing at every
// superstep made freshness a measure of the file system's write stalls.
//
// Freshness is the time from a window's batch reaching Append until its
// last standing query result is ready. Results are checked outside the
// timed span: sampled windows and the last one against a cold full Run,
// resumed runs against uninterrupted ones, and every replay against the
// first.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/icm_path.h"
#include "bench.h"
#include "ckpt/checkpoint.h"
#include "ckpt/checkpoint_store.h"
#include "ckpt/fault_injector.h"
#include "icm/icm_engine.h"
#include "stream/update_stream.h"

namespace perfbench {
namespace {

using namespace graphite;

constexpr int kAccounts = 3000;
constexpr int kEvents = 150000;
constexpr TimePoint kHorizon = 512;
// Windows per replay that get a kill and a resume. In the hot mix (about
// 1%) they stay, together with the compacting windows (2%), under 5%, so
// that freshness_ms_p95 describes ordinary windows instead of jumping
// between the two kinds.
constexpr int kKilledWindows = 3;

// The feed's shape in one mix.
struct Feed {
  TimePoint window_points;  // feed time-points per window
  int checkpoint_every;     // supersteps between barrier checkpoints
  size_t compact_every;     // windows between compactions
};
constexpr Feed kSteadyFeed{1, 4, 50};
constexpr Feed kBurstyFeed{4, 4, 8};
constexpr int kSampledWindows = 4;

// The three standing queries share one code path through this shape.
template <typename Program>
struct Query {
  using States = std::vector<IntervalMap<typename Program::State>>;
  VertexId source = 0;
  States initial;  // converged on the sealed base
  States states;   // converged on the current head
};

struct Window {
  size_t begin = 0;  // feed range [begin, end)
  size_t end = 0;
  bool sampled = false;
  bool kill = false;
  int kill_query = 0;
  int kill_worker = 0;
};

// Timings and counters over all replays.
struct Tally {
  std::vector<double> freshness_ms, batch_ms, append_ms, compact_ms,
      incremental_ms, ckpt_write_ms, resume_ms;
  // Per replay: its windows' range in freshness_ms, its events, timed
  // nanoseconds and host steal share.
  struct ReplaySpan {
    size_t first = 0, last = 0;
    int64_t events = 0, timed_ns = 0;
    double steal = 0;
  };
  std::vector<ReplaySpan> replays;
  int64_t windows = 0, events = 0, entities = 0, timed_ns = 0;
  int64_t checkpoints = 0, checkpoint_bytes = 0;
  int64_t compacting = 0, checkpointing = 0, recovered = 0;
  int64_t inc_calls = 0, full_calls = 0;
};

template <typename Program>
uint64_t Digest(const std::vector<IntervalMap<typename Program::State>>& states) {
  uint64_t h = kFnvSeed;
  for (const auto& m : states) {
    for (const auto& e : m.entries()) {
      h = Fnv(Fnv(Fnv(h, static_cast<uint64_t>(e.interval.start)),
                  static_cast<uint64_t>(e.interval.end)),
              static_cast<uint64_t>(e.value));
    }
    h = Fnv(h, 0x5eed);
  }
  return h;
}

class Ingest : public Phase {
 public:
  explicit Ingest(const Context& ctx) : ctx_(ctx) {}

  double Setup() override {
    const int64_t t0 = NowNanos();
    feed_ = SyntheticUpdateStream(ctx_.options->SubSeed(400), kAccounts, kEvents,
                                  kHorizon);
    const TimePoint boot = kHorizon / 2;
    StreamingGraphBuilder builder;
    size_t cursor = 0;
    while (cursor < feed_.size() && feed_[cursor].time <= boot) {
      if (!builder.Apply(feed_[cursor]).ok()) Fatal("feed rejected by the builder");
      ++cursor;
    }
    auto sealed = builder.Seal(kHorizon);
    if (!sealed.ok()) Fatal("seal failed");
    base_ = std::make_unique<TemporalGraph>(std::move(*sealed));
    windows_.clear();
    const TimePoint step = shape_.window_points;
    for (TimePoint t = boot + step; t - step + 1 < kHorizon && cursor < feed_.size();
         t += step) {
      Window w;
      w.begin = cursor;
      while (cursor < feed_.size() && feed_[cursor].time <= t) ++cursor;
      w.end = cursor;
      windows_.push_back(w);
    }
    // Sources: the three highest out-degree vertices of the seed's base
    // graph, so that every standing query propagates widely.
    std::vector<VertexIdx> order(base_->num_vertices());
    for (VertexIdx v = 0; v < order.size(); ++v) order[v] = v;
    std::partial_sort(order.begin(), order.begin() + 3, order.end(),
                      [&](VertexIdx a, VertexIdx b) {
                        return base_->OutEdges(a).size() > base_->OutEdges(b).size();
                      });
    sssp_.source = base_->vertex_id(order[0]);
    eat_.source = base_->vertex_id(order[1]);
    reach_.source = base_->vertex_id(order[2]);
    // The warm-up: the standing queries converge on the sealed base.
    sssp_.initial = Cold<IcmSssp>(*base_, sssp_.source).states;
    eat_.initial = Cold<IcmEat>(*base_, eat_.source).states;
    reach_.initial = Cold<IcmReach>(*base_, reach_.source).states;
    return static_cast<double>(NowNanos() - t0) / 1e9;
  }

  void Prepare() override {
    Rng rng(ctx_.options->SubSeed(402));
    for (int k = 0; k < kKilledWindows;) {
      Window& w = windows_[rng.Uniform(windows_.size())];
      if (w.kill) continue;
      w.kill = true;
      w.kill_query = static_cast<int>(rng.Uniform(3));
      w.kill_worker = static_cast<int>(rng.Uniform(Options().num_workers));
      ++k;
    }
    for (int i = 0; i < kSampledWindows; ++i) {
      windows_[rng.Uniform(windows_.size())].sampled = true;
    }
    windows_[shape_.compact_every - 1].sampled = true;  // the first compaction
    windows_.back().sampled = true;
  }

  void MeasureRound(double seconds) override {
    const int64_t deadline = NowNanos() + static_cast<int64_t>(seconds * 1e9);
    int64_t replay_ns = 0;
    do {
      Tally& tally = tally_;
      const size_t first = tally.freshness_ms.size();
      const int64_t events = tally.events, timed_ns = tally.timed_ns;
      const CpuTimes cpu0 = ReadCpuTimes();
      const int64_t r0 = NowNanos();
      Replay(replays_, &tally);
      replay_ns = NowNanos() - r0;
      tally.replays.push_back({first, tally.freshness_ms.size(), tally.events - events,
                               tally.timed_ns - timed_ns, StealFrac(cpu0, ReadCpuTimes())});
      ++replays_;
      // Another replay only when at least half of it fits the round.
    } while (NowNanos() + replay_ns / 2 < deadline);
  }

  void Finish() override {
    const Tally& tally = tally_;
    const int replays = replays_;
    Report& r = *ctx_.report;
    const double windows = static_cast<double>(std::max<int64_t>(1, tally.windows));
    r.Info("ingest.feed_events", kEvents);
    r.Info("ingest.window_points", static_cast<double>(shape_.window_points));
    r.Info("ingest.replays", replays);
    r.Info("ingest.windows_per_replay", static_cast<double>(windows_.size()));
    r.Info("ingest.compact_share", static_cast<double>(tally.compacting) / windows);
    r.Info("ingest.checkpoint_share", static_cast<double>(tally.checkpointing) / windows);
    r.Info("ingest.recover_share", static_cast<double>(tally.recovered) / windows);
    // Over the windows of the half of the replays during which the
    // hypervisor took the least CPU time.
    std::vector<double> steal, fresh;
    for (const Tally::ReplaySpan& span : tally.replays) steal.push_back(span.steal);
    int64_t events = 0, timed_ns = 0;
    for (size_t k : LeastStolenHalf(steal)) {
      const Tally::ReplaySpan& span = tally.replays[k];
      fresh.insert(fresh.end(), tally.freshness_ms.begin() + static_cast<ptrdiff_t>(span.first),
                   tally.freshness_ms.begin() + static_cast<ptrdiff_t>(span.last));
      events += span.events;
      timed_ns += span.timed_ns;
    }
    r.Info("ingest.kept_windows", static_cast<double>(fresh.size()));
    r.Metric("freshness_ms_p95", Quantile(fresh, 0.95), "ms");
    // On the provenance line, not bounded: see serve.latency_ms_p50.
    r.Info("ingest.freshness_ms_p50", Quantile(fresh, 0.5));
    r.Info("ingest.events_per_s",
           static_cast<double>(events) / (static_cast<double>(timed_ns) / 1e9));
    if (!ctx_.tracer->enabled()) return;
    r.Layer("stream.batch_ms_p50", Quantile(tally.batch_ms, 0.5), "ms");
    r.Layer("graph.append_ms_p50", Quantile(tally.append_ms, 0.5), "ms");
    r.Layer("graph.append_entities_per_window",
            static_cast<double>(tally.entities) / windows, "count");
    r.Layer("graph.compact_ms_p50", Quantile(tally.compact_ms, 0.5), "ms");
    r.Layer("icm.incremental_ms_p50", Quantile(tally.incremental_ms, 0.5), "ms");
    r.Layer("icm.incremental_call_frac",
            tally.full_calls > 0 ? static_cast<double>(tally.inc_calls) /
                                       static_cast<double>(tally.full_calls)
                                 : 0.0,
            "ratio");
    r.Layer("ckpt.write_ms_p50", Quantile(tally.ckpt_write_ms, 0.5), "ms");
    r.Layer("ckpt.bytes_per_checkpoint",
            tally.checkpoints > 0 ? static_cast<double>(tally.checkpoint_bytes) /
                                        static_cast<double>(tally.checkpoints)
                                  : 0.0,
            "bytes");
    r.Layer("ckpt.checkpoints_per_window",
            static_cast<double>(tally.checkpoints) / windows, "count");
    r.Layer("ckpt.resume_ms_p50", Quantile(tally.resume_ms, 0.5), "ms");
  }

  double PeakRss() const override { return PeakRssMb(getpid()); }

  void Shutdown() override {
    std::error_code ec;
    std::filesystem::remove_all(CkptRoot(), ec);
  }

 private:
  [[noreturn]] static void Fatal(const std::string& what) {
    std::fprintf(stderr, "[perfbench] ingest: %s\n", what.c_str());
    std::exit(1);
  }

  std::string CkptRoot() const { return ctx_.options->work_dir + "/ckpt"; }

  // A window is a millisecond or two of work for all three queries, so
  // they run on the calling thread: with four OS threads the per-superstep
  // hand-offs cost more than the work and made freshness track the host's
  // CPU steal rather than the program.
  IcmOptions Options() const {
    IcmOptions o;
    o.num_workers = 8;
    o.use_threads = false;
    o.runtime.checkpoint = CheckpointPolicy::EveryK(shape_.checkpoint_every);
    return o;
  }

  template <typename Program>
  IcmResult<Program> Cold(const TemporalGraph& g, VertexId source) {
    Program program(g, source);
    IcmOptions o = Options();
    o.runtime.checkpoint = CheckpointPolicy::None();
    return IcmEngine<Program>::Run(g, program, o);
  }

  // One standing query's share of a window: the incremental run (killed
  // and resumed when the window says so).
  template <typename Program>
  void Recompute(const TemporalGraph& g, Query<Program>* q, int index,
                 const AppendReceipt& receipt, const Window& w,
                 CheckpointStore* store, Tally* tally, bool* checkpointed,
                 typename Query<Program>::States* pre_kill, int64_t* calls) {
    Program program(g, q->source);
    RecoveryContext recovery;
    recovery.store = store;
    FaultInjector fault;
    const bool kill = w.kill && w.kill_query == index;
    if (kill) {
      fault.ScheduleKill(/*superstep=*/1, w.kill_worker);
      recovery.fault = &fault;
    }
    IcmWarmStart<Program> warm;
    warm.states = kill ? *pre_kill : std::move(q->states);
    warm.receipt = receipt;
    int64_t t0 = NowNanos();
    IcmResult<Program> result;
    {
      Scope span(ctx_.tracer, "icm.incremental", tally->windows);
      result = IcmEngine<Program>::RunIncremental(g, program, std::move(warm),
                                                  Options(), recovery);
    }
    tally->incremental_ms.push_back(Ms(NowNanos() - t0));
    Account(result.metrics, tally, checkpointed);
    if (result.metrics.interrupted) {
      RecoveryContext resume;
      resume.store = store;
      resume.resume = true;
      IcmWarmStart<Program> again;
      again.states = *pre_kill;
      again.receipt = receipt;
      Program resumed_program(g, q->source);
      t0 = NowNanos();
      {
        Scope span(ctx_.tracer, "ckpt.resume", tally->windows);
        result = IcmEngine<Program>::RunIncremental(g, resumed_program, std::move(again),
                                                    Options(), resume);
      }
      tally->resume_ms.push_back(Ms(NowNanos() - t0));
      Account(result.metrics, tally, checkpointed);
      ++tally->recovered;
    }
    *calls = result.metrics.compute_calls;
    q->states = std::move(result.states);
  }

  static void Account(const RunMetrics& m, Tally* tally, bool* checkpointed) {
    for (const SuperstepMetrics& ss : m.per_superstep) {
      if (ss.checkpoint_bytes > 0) {
        tally->ckpt_write_ms.push_back(Ms(ss.checkpoint_ns));
        ++tally->checkpoints;
        tally->checkpoint_bytes += ss.checkpoint_bytes;
        *checkpointed = true;
      }
    }
  }

  // Checks one query's converged states against a cold full run.
  template <typename Program>
  void CheckAgainstCold(const TemporalGraph& g, const Query<Program>& q,
                        int64_t inc_calls, Tally* tally, const char* what,
                        size_t window) {
    const auto full = Cold<Program>(g, q.source);
    bool same = full.states.size() == q.states.size();
    for (size_t v = 0; same && v < full.states.size(); ++v) {
      same = full.states[v].entries() == q.states[v].entries();
    }
    ctx_.report->Check(same, std::string("ingest ") + what + " window " +
                                 std::to_string(window) +
                                 " differs from a cold full run");
    tally->inc_calls += inc_calls;
    tally->full_calls += full.metrics.compute_calls;
  }

  // Checks a resumed run against an uninterrupted one.
  template <typename Program>
  void CheckResumed(const TemporalGraph& g, const Query<Program>& q,
                    typename Query<Program>::States pre_kill,
                    const AppendReceipt& receipt, size_t window) {
    Program program(g, q.source);
    IcmWarmStart<Program> warm;
    warm.states = std::move(pre_kill);
    warm.receipt = receipt;
    IcmOptions o = Options();
    o.runtime.checkpoint = CheckpointPolicy::None();
    const auto clean = IcmEngine<Program>::RunIncremental(g, program, std::move(warm), o);
    bool same = clean.states.size() == q.states.size();
    for (size_t v = 0; same && v < clean.states.size(); ++v) {
      same = clean.states[v].entries() == q.states[v].entries();
    }
    ctx_.report->Check(same, "ingest resumed run at window " + std::to_string(window) +
                                 " differs from an uninterrupted run");
  }

  void Replay(int replay, Tally* tally) {
    std::error_code ec;
    std::filesystem::remove_all(CkptRoot(), ec);
    CheckpointStore stores[3] = {CheckpointStore(CkptRoot() + "/sssp"),
                                 CheckpointStore(CkptRoot() + "/eat"),
                                 CheckpointStore(CkptRoot() + "/reach")};
    TemporalGraph g = *base_;
    sssp_.states = sssp_.initial;
    eat_.states = eat_.initial;
    reach_.states = reach_.initial;
    UpdateBatcher batcher;
    for (size_t wi = 0; wi < windows_.size(); ++wi) {
      const Window& w = windows_[wi];
      // Kill windows keep the pre-window states of the doomed query so
      // that its resume (and the check after it) can start from them.
      Query<IcmSssp>::States sssp_pre;
      Query<IcmEat>::States eat_pre;
      Query<IcmReach>::States reach_pre;
      if (w.kill) {
        if (w.kill_query == 0) sssp_pre = sssp_.states;
        if (w.kill_query == 1) eat_pre = eat_.states;
        if (w.kill_query == 2) reach_pre = reach_.states;
      }
      const int64_t b0 = NowNanos();
      EdgeBatch batch;
      {
        Scope span(ctx_.tracer, "stream.batch", tally->windows);
        for (size_t i = w.begin; i < w.end; ++i) {
          const GraphUpdate& u = feed_[i];
          // Appends cannot express these; the feed's sealed-edge removals
          // are rejected by Push and dropped the same way.
          if (u.kind == GraphUpdate::Kind::kRemoveVertex ||
              u.kind == GraphUpdate::Kind::kSetVertexProp) {
            continue;
          }
          const Status pushed = batcher.Push(u);
          if (!pushed.ok() && u.kind != GraphUpdate::Kind::kRemoveEdge) {
            Fatal("batcher rejected a feed event: " + pushed.ToString());
          }
        }
        batch = batcher.DrainClosed();
      }
      const int64_t t0 = NowNanos();
      tally->batch_ms.push_back(Ms(t0 - b0));
      tally->events += static_cast<int64_t>(w.end - w.begin);
      bool checkpointed = false;
      int64_t calls[3] = {0, 0, 0};
      AppendReceipt receipt;
      {
        Scope window_span(ctx_.tracer, "ingest.window", tally->windows);
        {
          Scope span(ctx_.tracer, "graph.append", tally->windows);
          if (!g.Append(batch, &receipt).ok()) Fatal("append rejected a batch");
        }
        const int64_t t1 = NowNanos();
        tally->append_ms.push_back(Ms(t1 - t0));
        if ((wi + 1) % shape_.compact_every == 0) {
          {
            Scope span(ctx_.tracer, "graph.compact", tally->windows);
            g.Compact();
          }
          tally->compact_ms.push_back(Ms(NowNanos() - t1));
          ++tally->compacting;
        }
        Recompute(g, &sssp_, 0, receipt, w, &stores[0], tally, &checkpointed,
                  &sssp_pre, &calls[0]);
        Recompute(g, &eat_, 1, receipt, w, &stores[1], tally, &checkpointed,
                  &eat_pre, &calls[1]);
        Recompute(g, &reach_, 2, receipt, w, &stores[2], tally, &checkpointed,
                  &reach_pre, &calls[2]);
      }
      const int64_t done = NowNanos();
      tally->freshness_ms.push_back(Ms(done - t0));
      tally->timed_ns += done - b0;
      tally->entities += static_cast<int64_t>(batch.size());
      if (checkpointed) ++tally->checkpointing;
      ++tally->windows;

      // Outside the timed span: the checks.
      const uint64_t digest = Digest<IcmSssp>(sssp_.states) ^
                              (Digest<IcmEat>(eat_.states) * 3) ^
                              (Digest<IcmReach>(reach_.states) * 5);
      if (replay == 0) {
        first_digests_.push_back(digest);
        if (w.sampled) {
          CheckAgainstCold(g, sssp_, calls[0], tally, "sssp", wi);
          CheckAgainstCold(g, eat_, calls[1], tally, "eat", wi);
          CheckAgainstCold(g, reach_, calls[2], tally, "reach", wi);
        }
      } else {
        ctx_.report->Check(digest == first_digests_[wi],
                           "ingest replay " + std::to_string(replay) + " window " +
                               std::to_string(wi) + " differs from the first replay");
      }
      if (w.kill) {
        if (w.kill_query == 0) CheckResumed(g, sssp_, std::move(sssp_pre), receipt, wi);
        if (w.kill_query == 1) CheckResumed(g, eat_, std::move(eat_pre), receipt, wi);
        if (w.kill_query == 2) CheckResumed(g, reach_, std::move(reach_pre), receipt, wi);
      }
    }
  }

  Context ctx_;
  std::vector<GraphUpdate> feed_;
  std::unique_ptr<TemporalGraph> base_;
  std::vector<Window> windows_;
  std::vector<uint64_t> first_digests_;
  const Feed shape_ = ctx_.options->churn() ? kBurstyFeed : kSteadyFeed;
  Tally tally_;  // over all rounds
  int replays_ = 0;
  Query<IcmSssp> sssp_;
  Query<IcmEat> eat_;
  Query<IcmReach> reach_;
};

}  // namespace

std::unique_ptr<Phase> NewIngest(const Context& ctx) {
  return std::make_unique<Ingest>(ctx);
}

}  // namespace perfbench
