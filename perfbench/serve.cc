// serve phase: an open loop at a fixed ladder of offered rates against a
// graphite_server child on loopback TCP. The server holds a Twitter-like
// and a Reddit-like graph, generated from the seed and loaded as files
// with the `load` op. The mix is mostly path / reach_at / bfs_at with
// Zipf-skewed parameters (a measured share repeats and hits the cache),
// a few whole-graph runs, window/select pre-filtered requests and a small
// fixed share of `append` writes, which bump the graph's epoch and so
// invalidate its cache entries.
//
// Requests go out on a fixed schedule whatever the server does; latency is
// timed from each request's scheduled send time. A step at which the
// generator itself fell behind its schedule is not reported.
//
// The hot mix is read-mostly: 1% appends, parameters from a small pool of
// hubs, so a measured share hits the result cache. The churn mix is
// write-heavy: 10% appends, parameters drawn uniformly over every vertex
// alive over the whole horizon, so the cache is bypassed except by a few
// client retries.
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "gen/generators.h"
#include "io/text_format.h"
#include "server/query_service.h"
#include "util/json.h"

namespace perfbench {
namespace {

using namespace graphite;

constexpr double kScale = 0.25;
constexpr int kConnections = 4;
// The latency limit of max_rps_slo, on the p99.
constexpr double kSloMs = 100.0;
// Offered rates (requests/s). The nominal rate reports latency_ms_p50/p99;
// the ladder spans it so that the limit is crossed inside the ladder.
// Every round runs the nominal step and one other step, so that a step
// lasts long enough (many times the latency limit) for an overload to
// show as a growing backlog.
constexpr double kNominalRps = 200;
constexpr double kLadderRps[] = {200, 400, 700, 1200, 2000};
constexpr size_t kSteps = std::size(kLadderRps);
static_assert(kLadderRps[0] == kNominalRps);
// A step whose generator lag p99 exceeds this (a tenth of the limit) did
// not keep its schedule.
constexpr double kMaxLagMs = kSloMs / 10;
constexpr int64_t kTimeoutNs = 10'000'000'000;
// In the hot mix sources, targets and instants are drawn Zipf-skewed from
// small pools so that some requests repeat exactly and hit the cache.
constexpr int kSourcePool = 48;
constexpr double kZipfAlpha = 1.1;
// Share of the churn mix's requests that repeat their graph's previous
// drawn request (client retries): the only requests there that can hit
// the result cache.
constexpr double kRetryShare = 0.03;
// Appended entity ids start far above the generator's ids.
constexpr int64_t kFreshIdBase = int64_t{1} << 40;
// Upper bound on responses re-rendered standalone per run.
constexpr int kMaxSamples = 160;

struct Resident {
  const char* name;
  const char* dataset;
};
constexpr Resident kResidents[] = {{"tw", "twitter"}, {"rd", "reddit"}};
constexpr int kGraphs = 2;
// Share of the drawn requests sent to the Twitter-like graph, whose
// queries cost about four times the Reddit-like ones. At one half the
// median latency sat on the boundary between the two graphs' latency
// populations and jumped between them from run to run; at one third it
// lies inside the Reddit-like population and the p99 inside the
// Twitter-like one.
constexpr double kTwitterShare = 1.0 / 3;

// One request of the schedule.
struct Planned {
  std::string line;
  int graph = 0;
  bool append = false;
  bool sample = false;  // re-rendered standalone after the phase
  std::string op;
};

// What came back for one sent request.
struct Outcome {
  int64_t due_ns = 0;
  int64_t noticed_ns = 0;  // when the generator saw it fall due
  int64_t sent_ns = 0;
  int conn = -1;
  int64_t done_ns = 0;
  bool answered = false;
  bool ok = false;
  bool cached = false;
  bool rejected = false;
  int64_t queue_ns = 0;
  int64_t run_ns = 0;
  int64_t supersteps = 0;
  int head_lo = 0;  // appends of its graph acknowledged before sending
  int head_hi = 0;  // appends of its graph sent before its answer
  std::string fragment;  // sampled responses: the raw result fragment
  std::string error;
};

struct StepResult {
  double rate = 0;
  bool kept_schedule = true;
  bool backlog_growing = false;
  double p50_ms = 0;
  double p99_ms = 0;
  double lag_p99_ms = 0;
};

// The server child and its connections.
class ServerProcess {
 public:
  ~ServerProcess() { Stop(); }

  bool Start(const std::string& bin) {
    int out[2];
    if (pipe(out) != 0) return false;
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(out[1], STDOUT_FILENO);
      close(out[0]);
      close(out[1]);
      execl(bin.c_str(), bin.c_str(), "--port", "0", "--threads", "4",
            "--queue", "4096", "--workers", "4", static_cast<char*>(nullptr));
      _exit(127);
    }
    close(out[1]);
    std::string ready;
    pollfd p{out[0], POLLIN, 0};
    while (ready.find('\n') == std::string::npos) {
      if (poll(&p, 1, 20000) <= 0) break;
      char buf[256];
      const ssize_t n = read(out[0], buf, sizeof(buf));
      if (n <= 0) break;
      ready.append(buf, static_cast<size_t>(n));
    }
    close(out[0]);
    auto doc = ParseJson(ready.substr(0, ready.find('\n')));
    if (!doc.ok() || !doc->GetBool("ready")) return false;
    const int port = static_cast<int>(doc->GetInt("port"));
    for (int c = 0; c < kConnections; ++c) {
      const int fd = socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        close(fd);
        return false;
      }
      fds_.push_back(fd);
      bufs_.emplace_back();
    }
    return true;
  }

  void Stop() {
    if (pid_ <= 0) return;
    if (!fds_.empty()) Send(0, R"({"id":-1,"op":"shutdown"})");
    for (int fd : fds_) close(fd);
    fds_.clear();
    bufs_.clear();
    for (int i = 0; i < 100; ++i) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      usleep(50000);
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  bool Send(int conn, const std::string& line) {
    std::string data = line;
    data.push_back('\n');
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = write(fds_[conn], data.data() + off, data.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Waits up to `timeout_ns` for readable connections and appends every
  /// complete response line to `lines`.
  void Poll(int64_t timeout_ns, std::vector<std::string>* lines) {
    std::vector<pollfd> p;
    for (int fd : fds_) p.push_back({fd, POLLIN, 0});
    const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                      static_cast<long>(timeout_ns % 1'000'000'000)};
    if (ppoll(p.data(), p.size(), &ts, nullptr) <= 0) return;
    for (size_t c = 0; c < p.size(); ++c) {
      if ((p[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char buf[1 << 16];
      const ssize_t n = read(fds_[c], buf, sizeof(buf));
      if (n <= 0) continue;
      std::string& b = bufs_[c];
      b.append(buf, static_cast<size_t>(n));
      size_t start = 0;
      for (size_t nl; (nl = b.find('\n', start)) != std::string::npos; start = nl + 1) {
        lines->push_back(b.substr(start, nl - start));
      }
      b.erase(0, start);
    }
  }

  int pid() const { return pid_; }

 private:
  int pid_ = -1;
  std::vector<int> fds_;
  std::vector<std::string> bufs_;
};

std::string Line(const std::vector<std::pair<std::string, std::string>>& raw) {
  JsonWriter w;
  w.BeginObject();
  for (const auto& [k, v] : raw) w.Key(k).Raw(v);
  w.EndObject();
  return w.Take();
}

std::string Quote(const std::string& s) {
  JsonWriter w;
  w.String(s);
  return w.Take();
}

class Serve : public Phase {
 public:
  explicit Serve(const Context& ctx) : ctx_(ctx) {}

  double Setup() override {
    server_.Stop();
    const int64_t t0 = NowNanos();
    const std::string dir = ctx_.options->work_dir;
    for (int g = 0; g < kGraphs; ++g) {
      DatasetSpec spec = DatasetByName(kResidents[g].dataset, kScale);
      spec.options.seed = ctx_.options->SubSeed(100 + static_cast<uint64_t>(g));
      files_[g] = dir + "/" + kResidents[g].name + ".graph";
      const Status written = WriteTextGraphFile(Generate(spec.options), files_[g]);
      if (!written.ok()) Fatal("write " + files_[g] + ": " + written.ToString());
    }
    if (!server_.Start(ctx_.options->server_bin)) Fatal("cannot start graphite_server");
    for (int g = 0; g < kGraphs; ++g) {
      const int64_t l0 = NowNanos();
      const std::string resp = Roundtrip(Line({{"id", "0"},
                                               {"op", Quote("load")},
                                               {"graph", Quote(kResidents[g].name)},
                                               {"file", Quote(files_[g])}}));
      load_ms_.push_back(Ms(NowNanos() - l0));
      auto doc = ParseJson(resp);
      if (!doc.ok() || !doc->GetBool("ok")) Fatal("load failed: " + resp);
    }
    // Warm-up: the first path query of a graph builds its derived graphs.
    for (int g = 0; g < kGraphs; ++g) {
      for (const char* kind : {"eat", "reach"}) {
        Roundtrip(Line({{"id", "0"}, {"op", Quote("path")},
                        {"graph", Quote(kResidents[g].name)},
                        {"kind", Quote(kind)}, {"source", "0"}, {"target", "1"}}));
      }
    }
    const int64_t timed = NowNanos() - t0;
    for (int g = 0; g < kGraphs; ++g) {
      auto graph = ReadTextGraphFile(files_[g]);
      if (!graph.ok()) Fatal("read back " + files_[g]);
      base_[g] = std::make_unique<TemporalGraph>(std::move(*graph));
    }
    return static_cast<double>(timed) / 1e9;
  }

  void Prepare() override {
    for (int g = 0; g < kGraphs; ++g) {
      const TemporalGraph& graph = *base_[g];
      pools_[g].clear();
      full_life_[g].clear();
      std::vector<VertexIdx> order;
      for (VertexIdx v = 0; v < graph.num_vertices(); ++v) {
        if (graph.vertex_interval(v) == Interval(0, graph.horizon())) {
          order.push_back(v);
          full_life_[g].push_back(graph.vertex_id(v));
        }
      }
      // The source/target pool: the highest out-degree vertices alive over
      // the whole horizon (popular vertices are the ones asked about, and
      // every window keeps them); Zipf rank = out-degree rank.
      const size_t n = std::min<size_t>(kSourcePool, order.size());
      std::partial_sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(n), order.end(),
                        [&](VertexIdx a, VertexIdx b) {
                          return graph.OutEdges(a).size() > graph.OutEdges(b).size();
                        });
      for (size_t i = 0; i < n; ++i) pools_[g].push_back(graph.vertex_id(order[i]));
    }
  }

  void MeasureRound(double seconds) override {
    const size_t other = 1 + rounds_ % (kSteps - 1);
    ++rounds_;
    for (size_t step : {size_t{0}, other}) {
      const double rate = kLadderRps[step];
      const size_t first = plan_.size();
      const size_t n = static_cast<size_t>(0.5 * seconds * rate);
      for (size_t i = 0; i < n; ++i) plan_.push_back(Plan(rng_));
      at_end_[step].push_back(RunStep(first, plan_.size(), rate));
      step_ranges_[step].push_back({first, plan_.size()});
    }
  }

  void Finish() override {
    Report& r = *ctx_.report;
    Verify();
    std::vector<StepResult> results;
    for (size_t s = 0; s < kSteps; ++s) {
      if (!step_ranges_[s].empty()) results.push_back(Pooled(s));
    }
    const StepResult& at_nominal = results[0];
    if (!at_nominal.kept_schedule) {
      r.Check(false, "serve generator fell behind its schedule at the nominal rate");
    }
    // Reported on the provenance line, not as bounded end-to-end metrics:
    // on the shared host they were measured on, their spread over ten
    // seeds exceeded every bound the benchmark may set (README).
    r.Info("serve.latency_ms_p50", at_nominal.p50_ms);
    r.Info("serve.latency_ms_p99", at_nominal.p99_ms);
    r.Info("serve.max_rps_slo", MaxRpsWithinSlo(results));
    for (const StepResult& step : results) {
      const std::string at = "@" + std::to_string(static_cast<int>(step.rate));
      r.Info("serve.p99_ms" + at, step.p99_ms);
      r.Info("serve.lag_ms_p99" + at, step.lag_p99_ms);
      r.Info("serve.backlog_growing" + at, step.backlog_growing ? 1.0 : 0.0);
    }

    // Shares and per-layer metrics at the nominal rate.
    std::vector<size_t> nominal;
    for (const auto& [first, last] : step_ranges_[0]) {
      for (size_t i = first; i < last; ++i) nominal.push_back(i);
    }
    std::vector<double> queue, run, front, hit_us, append_ms, lag, supersteps;
    int64_t data = 0, hits = 0, rejected = 0, total = 0;
    for (size_t i : nominal) {
      const Outcome& o = outcomes_[i];
      ++total;
      lag.push_back(Ms(o.noticed_ns - o.due_ns));
      if (o.rejected) ++rejected;
      if (!o.ok) continue;
      const double latency = Ms(o.done_ns - o.due_ns);
      if (plan_[i].append) {
        append_ms.push_back(latency);
        continue;
      }
      ++data;
      if (o.cached) {
        ++hits;
        hit_us.push_back(1000.0 * latency);
      } else {
        queue.push_back(Ms(o.queue_ns));
        run.push_back(Ms(o.run_ns));
        supersteps.push_back(static_cast<double>(o.supersteps));
      }
    }
    // Where the nominal tail comes from: latency p99 per op.
    std::map<std::string, std::vector<double>> by_op;
    for (size_t i : nominal) {
      const Outcome& o = outcomes_[i];
      if (o.ok) by_op[plan_[i].op].push_back(Ms(o.done_ns - o.due_ns));
    }
    for (const auto& [op, ms] : by_op) {
      r.Info("serve.p99_ms." + op, Quantile(ms, 0.99));
      r.Info("serve.share." + op,
             static_cast<double>(ms.size()) / static_cast<double>(nominal.size()));
    }
    const double hit_ratio =
        data > 0 ? static_cast<double>(hits) / static_cast<double>(data) : 0.0;
    r.Info("serve.scale", kScale);
    r.Info("serve.cache_hit_share", hit_ratio);
    r.Info("serve.requests", static_cast<double>(plan_.size()));
    if (!ctx_.tracer->enabled()) return;
    front = ctx_.tracer->SelfMs("serve.request");
    r.Layer("server.queue_ms_p50", Quantile(queue, 0.5), "ms");
    r.Layer("server.queue_ms_p99", Quantile(queue, 0.99), "ms");
    r.Layer("server.run_ms_p50", Quantile(run, 0.5), "ms");
    r.Layer("server.run_ms_p99", Quantile(run, 0.99), "ms");
    r.Layer("server.front_ms_p50", Quantile(front, 0.5), "ms");
    r.Layer("server.hit_us_p50", Quantile(hit_us, 0.5), "us");
    r.Layer("cache.hit_ratio", hit_ratio, "ratio");
    r.Layer("scheduler.rejected_frac",
            total > 0 ? static_cast<double>(rejected) / static_cast<double>(total) : 0.0,
            "ratio");
    r.Layer("server.supersteps_per_miss", Mean(supersteps), "count");
    r.Layer("server.append_ms_p50", Quantile(append_ms, 0.5), "ms");
    r.Layer("server.backlog_max", static_cast<double>(nominal_backlog_max_), "count");
    r.Layer("server.generator_lag_ms_p99", Quantile(lag, 0.99), "ms");
    r.Layer("io.load_ms", Median(load_ms_), "ms");
  }

  double PeakRss() const override {
    return server_.pid() > 0 ? PeakRssMb(server_.pid()) : 0.0;
  }
  void Shutdown() override { server_.Stop(); }

 private:
  [[noreturn]] static void Fatal(const std::string& what) {
    std::fprintf(stderr, "[perfbench] serve: %s\n", what.c_str());
    std::exit(1);
  }

  static double Mean(const std::vector<double>& xs) {
    double sum = 0;
    for (double x : xs) sum += x;
    return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
  }

  // One closed request/response on connection 0 (setup only).
  std::string Roundtrip(const std::string& line) {
    if (!server_.Send(0, line)) Fatal("send failed");
    std::vector<std::string> lines;
    const int64_t deadline = NowNanos() + kTimeoutNs;
    while (lines.empty() && NowNanos() < deadline) server_.Poll(100'000'000, &lines);
    if (lines.empty()) Fatal("no response to " + line);
    return lines.front();
  }

  // A source or target vertex of graph g: Zipf-skewed over the hub pool
  // in the hot mix, uniform over the full-lifespan vertices in churn.
  VertexId Vertex(int g, Rng& rng) const {
    if (churn_) return full_life_[g][rng.Uniform(full_life_[g].size())];
    return pools_[g][rng.Zipf(pools_[g].size(), kZipfAlpha)];
  }

  Planned Plan(Rng& rng) {
    Planned p;
    p.graph = rng.Bernoulli(kTwitterShare) ? 0 : 1;
    const TemporalGraph& g = *base_[p.graph];
    const TimePoint horizon = g.horizon();
    const std::string id = std::to_string(plan_.size() + 1);
    const std::string graph = Quote(kResidents[p.graph].name);
    const std::string source = std::to_string(Vertex(p.graph, rng));
    const std::string target = std::to_string(Vertex(p.graph, rng));
    // Instants from a small Zipf-skewed set too in the hot mix.
    const std::string at = std::to_string(
        churn_ ? static_cast<TimePoint>(rng.Uniform(static_cast<uint64_t>(horizon)))
               : static_cast<TimePoint>(rng.Zipf(kSourcePool, kZipfAlpha) * 7) % horizon);
    // Writes and whole-graph runs sit at fixed positions (1% or 10%, and
    // 4% of the schedule) so that every run sees the same number of them;
    // the rest of the mix is drawn at random.
    const size_t slot = plan_.size();
    const size_t append_every = churn_ ? 10 : 100;
    const double u = rng.NextDouble();
    if (slot % append_every == append_every / 2) {
      p.graph = static_cast<int>((slot / append_every) % kGraphs);
      p.append = true;
      p.op = "append";
      p.line = AppendLine(p.graph, id, rng);
    } else if (slot % 25 == 12) {
      static const char* const kAlgs[] = {"bfs", "sssp", "eat"};
      const size_t k = slot / 25;
      p.graph = static_cast<int>(k % kGraphs);
      p.op = "run";
      p.line = Line({{"id", id}, {"op", Quote("run")},
                     {"graph", Quote(kResidents[p.graph].name)},
                     {"alg", Quote(kAlgs[(k / kGraphs) % 3])},
                     {"source", std::to_string(Vertex(p.graph, rng))},
                     {"max_vertices", "32"}});
    } else if (churn_ && !last_drawn_[p.graph].empty() && rng.Bernoulli(kRetryShare)) {
      // A client retry: the graph's previous drawn request again, under
      // a new id.
      const std::string& prev = last_drawn_[p.graph];
      const size_t comma = prev.find(',');
      p.op = last_op_[p.graph];
      p.line = "{\"id\": " + id + prev.substr(comma);
    } else if (u < 0.042) {
      const TimePoint from = static_cast<TimePoint>(rng.Uniform(static_cast<uint64_t>(horizon / 2)));
      const std::string window =
          "[" + std::to_string(from) + ", " + std::to_string(from + horizon / 2) + "]";
      p.op = "path";
      if (rng.Bernoulli(0.5)) {
        p.line = Line({{"id", id}, {"op", Quote("path")}, {"graph", graph},
                       {"kind", Quote("eat")}, {"source", source},
                       {"target", target}, {"window", window}});
      } else {
        p.op = "reach_at";
        p.line = Line({{"id", id}, {"op", Quote("reach_at")}, {"graph", graph},
                       {"source", source}, {"at", at}, {"max_vertices", "64"},
                       {"select", "{\"from\": " + std::to_string(from) + ", \"to\": " +
                                      std::to_string(from + horizon / 2) +
                                      ", \"pred\": \"intersects\"}"}});
      }
    } else if (u < 0.42) {
      // FAST is left to the analytics phase: on the long-lifespan graph
      // one FAST query costs as much as ten of the other kinds, and the
      // serving tail became a measure of a handful of them.
      static const char* const kKinds[] = {"eat", "sssp", "reach"};
      p.op = "path";
      p.line = Line({{"id", id}, {"op", Quote("path")}, {"graph", graph},
                     {"kind", Quote(kKinds[rng.Uniform(3)])}, {"source", source},
                     {"target", target}});
    } else if (u < 0.71) {
      p.op = "reach_at";
      p.line = Line({{"id", id}, {"op", Quote("reach_at")}, {"graph", graph},
                     {"source", source}, {"at", at}, {"max_vertices", "64"}});
    } else {
      p.op = "bfs_at";
      p.line = Line({{"id", id}, {"op", Quote("bfs_at")}, {"graph", graph},
                     {"source", source}, {"at", at}, {"max_vertices", "64"}});
    }
    if (!p.append && p.op != "run") {
      last_drawn_[p.graph] = p.line;
      last_op_[p.graph] = p.op;
    }
    p.sample = !p.append && rng.Bernoulli(0.05) && sampled_ < kMaxSamples;
    if (p.sample) ++sampled_;
    return p;
  }

  // A write beside the reads: one fresh vertex linked both ways to an
  // existing vertex that lives over the whole horizon.
  std::string AppendLine(int g, const std::string& id, Rng& rng) {
    const TemporalGraph& graph = *base_[g];
    const TimePoint h = graph.horizon();
    const int64_t k = static_cast<int64_t>(appends_[g].size());
    EdgeBatch batch;
    const VertexId fresh = kFreshIdBase + k;
    const VertexId old = full_life_[g][rng.Uniform(full_life_[g].size())];
    batch.vertices.push_back({fresh, Interval(0, h)});
    batch.edges.push_back({kFreshIdBase + 2 * k, old, fresh, Interval(1, h)});
    batch.edges.push_back({kFreshIdBase + 2 * k + 1, fresh, old, Interval(1, h)});
    for (int e = 0; e < 2; ++e) {
      batch.props.push_back({kFreshIdBase + 2 * k + e, kTravelTimeLabel, Interval(1, h), 1});
      batch.props.push_back({kFreshIdBase + 2 * k + e, kTravelCostLabel, Interval(1, h),
                             1 + static_cast<PropValue>(rng.Uniform(9))});
    }
    JsonWriter w;
    w.BeginObject();
    w.Key("id").Raw(id);
    w.Key("op").String("append");
    w.Key("graph").String(kResidents[g].name);
    w.Key("vertices").BeginArray();
    for (const auto& v : batch.vertices) {
      w.BeginArray().Int(v.vid).Int(v.interval.start).Int(v.interval.end).EndArray();
    }
    w.EndArray();
    w.Key("edges").BeginArray();
    for (const auto& e : batch.edges) {
      w.BeginArray().Int(e.eid).Int(e.src).Int(e.dst).Int(e.interval.start)
          .Int(e.interval.end).EndArray();
    }
    w.EndArray();
    w.Key("props").BeginArray();
    for (const auto& p : batch.props) {
      w.BeginArray().Int(p.eid).String(p.label).Int(p.interval.start)
          .Int(p.interval.end).Int(p.value).EndArray();
    }
    w.EndArray();
    w.EndObject();
    appends_[g].push_back(std::move(batch));
    return w.Take();
  }

  // Offers plan_[first, last) at `rate`, then waits for every answer.
  // Returns how many requests were still outstanding when the sending
  // window closed.
  //
  // The client keeps at most one request in flight per connection, as a
  // pooled request/response client does; a request whose time has come
  // while every connection is busy waits in the client, and that wait is
  // part of its latency. Appends also wait for the previous append's
  // answer, so that they apply in schedule order.
  size_t RunStep(size_t first, size_t last, double rate) {
    outcomes_.resize(last);
    const int64_t start = NowNanos() + 2'000'000;
    auto due = [&](size_t i) {
      return start + static_cast<int64_t>(static_cast<double>(i - first) * 1e9 / rate);
    };
    size_t next = first;       // next request to fall due
    std::deque<size_t> ready;  // fallen due, not sent
    std::vector<bool> busy(kConnections, false);
    bool append_in_flight = false;
    size_t outstanding = 0;
    size_t backlog_max = 0;
    std::vector<std::string> lines;
    while (true) {
      const int64_t now = NowNanos();
      while (next < last && due(next) <= now) {
        Outcome& o = outcomes_[next];
        o.due_ns = due(next);
        o.noticed_ns = now;
        ready.push_back(next);
        ++outstanding;
        ++next;
      }
      backlog_max = std::max(backlog_max, outstanding);
      while (!ready.empty()) {
        const Planned& p = plan_[ready.front()];
        const auto idle = std::find(busy.begin(), busy.end(), false);
        if (idle == busy.end() || (p.append && append_in_flight)) break;
        Outcome& o = outcomes_[ready.front()];
        o.conn = static_cast<int>(idle - busy.begin());
        o.head_lo = acked_[p.graph];
        if (p.append) {
          ++sent_appends_[p.graph];
          append_in_flight = true;
        }
        o.sent_ns = NowNanos();
        if (!server_.Send(o.conn, p.line)) Fatal("send failed");
        *idle = true;
        ready.pop_front();
      }
      if (next == last && outstanding == 0) break;
      if (next == last && now - outcomes_[last - 1].due_ns > kTimeoutNs) break;
      const int64_t wait_ns = next < last ? due(next) - NowNanos() : 50'000'000;
      lines.clear();
      server_.Poll(std::clamp<int64_t>(wait_ns, 0, 50'000'000), &lines);
      const int64_t done = NowNanos();
      for (const std::string& line : lines) {
        const int64_t id = Absorb(line, done);
        if (id < static_cast<int64_t>(first) || id >= static_cast<int64_t>(last)) continue;
        const Outcome& o = outcomes_[static_cast<size_t>(id)];
        busy[static_cast<size_t>(o.conn)] = false;
        if (plan_[static_cast<size_t>(id)].append) append_in_flight = false;
        --outstanding;
      }
      if (next == last && outstanding == 0) break;
    }
    // Requests still outstanding when the step's sending window closed.
    const int64_t end_ns = outcomes_[last - 1].due_ns;
    size_t at_end = 0;
    for (size_t i = first; i < last; ++i) {
      const Outcome& o = outcomes_[i];
      if (!o.answered || o.done_ns > end_ns) ++at_end;
      ctx_.report->Check(o.answered && o.ok,
                         "serve request " + plan_[i].line +
                             (o.answered ? " failed: " + o.error : " timed out"));
    }
    if (rate == kNominalRps) nominal_backlog_max_ = std::max(nominal_backlog_max_, backlog_max);
    if (ctx_.tracer->enabled() && rate == kNominalRps) {
      // Request spans with the client-side wait for a free connection and
      // the server-reported queue and run time as children: the request's
      // self time is the front (transport, parse, envelope) share.
      for (size_t i = first; i < last; ++i) {
        const Outcome& o = outcomes_[i];
        if (!o.answered || !o.ok || plan_[i].append) continue;
        const int span = ctx_.tracer->Add("serve.request", o.due_ns, o.done_ns, -1,
                                          static_cast<int64_t>(i + 1));
        ctx_.tracer->Add("client.wait", o.due_ns, o.sent_ns, span, static_cast<int64_t>(i + 1));
        ctx_.tracer->Add("server.queue", o.done_ns - o.run_ns - o.queue_ns,
                         o.done_ns - o.run_ns, span, static_cast<int64_t>(i + 1));
        ctx_.tracer->Add("server.run", o.done_ns - o.run_ns, o.done_ns, span,
                         static_cast<int64_t>(i + 1));
      }
    }
    return at_end;
  }

  // Ladder step s over all rounds. Its backlog was growing when, on
  // average over the rounds, more requests were outstanding at the end of
  // its sending window than the latency limit allows (Little's law).
  StepResult Pooled(size_t s) const {
    StepResult res;
    res.rate = kLadderRps[s];
    std::vector<double> lat, lag;
    double at_end = 0;
    for (size_t k = 0; k < step_ranges_[s].size(); ++k) {
      const auto [first, last] = step_ranges_[s][k];
      at_end += static_cast<double>(at_end_[s][k]);
      for (size_t i = first; i < last; ++i) {
        const Outcome& o = outcomes_[i];
        lat.push_back(o.answered && o.ok ? Ms(o.done_ns - o.due_ns)
                                         : std::numeric_limits<double>::infinity());
        lag.push_back(Ms(o.noticed_ns - o.due_ns));
      }
    }
    const double rounds = static_cast<double>(std::max<size_t>(1, step_ranges_[s].size()));
    res.backlog_growing = at_end / rounds > res.rate * kSloMs / 1000.0 + 1;
    res.lag_p99_ms = Quantile(lag, 0.99);
    res.kept_schedule = res.lag_p99_ms <= kMaxLagMs;
    res.p50_ms = Quantile(lat, 0.5);
    res.p99_ms = Quantile(lat, 0.99);
    return res;
  }

  // Records one response; returns the index of the planned request it
  // answered, or -1. Only
  // the envelope's head and "server" tail are parsed: responses carry
  // result listings the generator has no time to parse on its schedule.
  int64_t Absorb(const std::string& line, int64_t done_ns) {
    const size_t result = line.find(", \"result\": ");
    const size_t tail = line.rfind(", \"server\": {");
    const bool ok_shape = result != std::string::npos && tail != std::string::npos &&
                          tail > result;
    auto head = ParseJson(ok_shape ? line.substr(0, result) + "}" : line);
    if (!head.ok()) return -1;
    const int64_t id = head->GetInt("id", -1);
    if (id < 1 || static_cast<size_t>(id) > outcomes_.size()) return -1;
    Outcome& o = outcomes_[static_cast<size_t>(id - 1)];
    const Planned& p = plan_[static_cast<size_t>(id - 1)];
    o.answered = true;
    o.done_ns = done_ns;
    o.ok = head->GetBool("ok");
    o.head_hi = sent_appends_[p.graph];
    if (!o.ok) {
      const JsonValue* err = head->Find("error");
      o.rejected = err != nullptr && err->GetString("code") == "OutOfRange";
      o.error = line;
      return id - 1;
    }
    if (p.append) {
      ++acked_[p.graph];
      return id - 1;
    }
    if (!ok_shape) {
      o.ok = false;
      o.error = line;
      return id - 1;
    }
    o.cached = head->GetBool("cached");
    auto server = ParseJson(line.substr(tail + 12, line.size() - tail - 13));
    if (server.ok()) {
      o.queue_ns = server->GetInt("queue_ns");
      o.run_ns = server->GetInt("run_ns");
      o.supersteps = server->GetInt("supersteps");
    }
    if (p.sample) o.fragment = line.substr(result + 12, tail - result - 12);
    return id - 1;
  }

  // Re-renders every sampled response standalone against the graph head
  // it may have seen and compares the bytes.
  void Verify() {
    ServiceOptions options;
    options.default_workers = 4;
    for (int g = 0; g < kGraphs; ++g) {
      std::vector<size_t> samples;
      for (size_t i = 0; i < outcomes_.size(); ++i) {
        if (plan_[i].sample && plan_[i].graph == g && outcomes_[i].ok) samples.push_back(i);
      }
      std::vector<bool> matched(samples.size(), false);
      TemporalGraph head = *base_[g];
      for (size_t h = 0; h <= appends_[g].size(); ++h) {
        if (h > 0 && !head.Append(appends_[g][h - 1]).ok()) break;
        bool any = false;
        for (size_t s : samples) {
          any |= outcomes_[s].head_lo <= static_cast<int>(h) &&
                 static_cast<int>(h) <= outcomes_[s].head_hi;
        }
        if (!any) continue;
        Workload workload(head);
        for (size_t k = 0; k < samples.size(); ++k) {
          const Outcome& o = outcomes_[samples[k]];
          if (matched[k] || static_cast<int>(h) < o.head_lo ||
              static_cast<int>(h) > o.head_hi) {
            continue;
          }
          auto req = QueryService::Parse(plan_[samples[k]].line);
          if (!req.ok()) continue;
          auto want = QueryService::RenderFragmentWith(*req, workload, options, nullptr);
          matched[k] = want.ok() && *want == o.fragment;
        }
      }
      for (size_t k = 0; k < samples.size(); ++k) {
        ctx_.report->Check(matched[k], "serve response " + std::to_string(samples[k] + 1) +
                                           " differs from a standalone render");
      }
    }
  }

  // The highest offered rate whose p99 stays within kSloMs without a
  // growing backlog, interpolated (log-log) between the last passing and
  // the first failing ladder step so that it is not quantized to the
  // ladder. Steps at which the generator fell behind are not reported and
  // so take no part.
  static double MaxRpsWithinSlo(const std::vector<StepResult>& steps) {
    double best = 0;
    const StepResult* last_pass = nullptr;
    for (const StepResult& s : steps) {
      if (!s.kept_schedule) continue;
      if (!s.backlog_growing && s.p99_ms <= kSloMs) {
        best = s.rate;
        last_pass = &s;
        continue;
      }
      if (last_pass == nullptr) {
        // Even the lowest reported step missed the limit: scale its rate
        // down by how far its p99 overshot.
        if (std::isfinite(s.p99_ms)) best = s.rate * kSloMs / s.p99_ms;
      } else if (std::isfinite(s.p99_ms) && s.p99_ms > last_pass->p99_ms) {
        const double x0 = std::log(last_pass->rate), x1 = std::log(s.rate);
        const double y0 = std::log(std::max(last_pass->p99_ms, 1e-3));
        const double y1 = std::log(s.p99_ms);
        const double frac = std::clamp((std::log(kSloMs) - y0) / (y1 - y0), 0.0, 1.0);
        best = std::exp(x0 + frac * (x1 - x0));
      }
      break;
    }
    return best;
  }

  Context ctx_;
  ServerProcess server_;
  std::string files_[kGraphs];
  std::unique_ptr<TemporalGraph> base_[kGraphs];
  std::vector<VertexId> pools_[kGraphs];
  std::vector<VertexId> full_life_[kGraphs];
  std::vector<EdgeBatch> appends_[kGraphs];
  int acked_[kGraphs] = {};
  int sent_appends_[kGraphs] = {};
  std::vector<Planned> plan_;
  std::vector<Outcome> outcomes_;
  std::vector<double> load_ms_;
  size_t nominal_backlog_max_ = 0;
  int sampled_ = 0;
  const bool churn_ = ctx_.options->churn();
  std::string last_drawn_[kGraphs];
  std::string last_op_[kGraphs];
  Rng rng_{ctx_.options->SubSeed(300)};
  // Over all rounds: each ladder step's request ranges and the requests
  // outstanding when each of its sending windows closed.
  size_t rounds_ = 0;
  std::vector<std::pair<size_t, size_t>> step_ranges_[kSteps];
  std::vector<size_t> at_end_[kSteps];
};

}  // namespace

std::unique_ptr<Phase> NewServe(const Context& ctx) {
  return std::make_unique<Serve>(ctx);
}

}  // namespace perfbench
