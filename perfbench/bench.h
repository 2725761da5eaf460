// Shared pieces of the repo benchmark (perfbench/): run options, the
// per-run report, order statistics, the span tracer and process probes.
//
// One run executes three phases (analytics, serve, ingest), so that every
// end-to-end metric is measured in every run. The phases take turns in
// rounds of equal shares. The workload names the traffic mix: `hot` is
// read-mostly on sealed graphs, `churn` is write-heavy on growing graphs
// (see perfbench/README.md).
#ifndef GRAPHITE_PERFBENCH_BENCH_H_
#define GRAPHITE_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {

struct Options {
  std::string workload;    ///< hot | churn
  uint64_t seed = 1;
  double seconds = 10;     ///< Measured seconds of the whole run.
  bool trace = false;
  std::string server_bin;  ///< graphite_server executable.
  std::string work_dir;    ///< Scratch files of this run (inside checkout).

  /// The write-heavy mix on growing graphs.
  bool churn() const { return workload == "churn"; }
  /// A seed for one phase/purpose, derived from the workload seed.
  uint64_t SubSeed(uint64_t salt) const {
    graphite::Rng rng(seed * 0x9e3779b97f4a7c15ULL + salt);
    return rng.Next();
  }
};

/// Linear-interpolated quantile (numpy's default); q in [0, 1].
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

inline double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// FNV-1a over 64-bit words (result digests).
inline uint64_t Fnv(uint64_t h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}
inline constexpr uint64_t kFnvSeed = 0xcbf29ce484222325ULL;

/// Metrics, counters and provenance of one run.
class Report {
 public:
  /// An end-to-end metric (the result line of an untraced run).
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// A per-layer metric (the result line of a traced run).
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers_[name] = {value, unit};
  }
  /// Free-form facts printed on the provenance line (shares, sizes).
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, const char* value) {
    Info(key, std::string(value));
  }
  void Info(const std::string& key, double value);

  /// Counts one checked operation; `ok` false records a failure.
  void Check(bool ok, const std::string& what);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  /// The provenance line (all info keys) and the result line with the
  /// end-to-end or the per-layer metrics.
  std::string InfoJson() const;
  std::string ResultJson(bool layers) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, Value> layers_;
  std::map<std::string, std::string> info_;  // key -> rendered JSON value
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t logged_failures_ = 0;
};

/// Spans around the calls the benchmark makes into each layer. Kept in
/// memory and written out at exit. Single-threaded: every span is opened
/// and closed on the benchmark's own thread.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  ///< Index of the enclosing span, -1 at top level.
    int64_t id;      ///< Job, request or window id.
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span; returns its index (-1 when disabled).
  int Begin(const char* name, int64_t id);
  void End(int index);
  /// Records a finished span under `parent` (for intervals measured
  /// elsewhere, such as the server's queue and run times).
  int Add(const char* name, int64_t start_ns, int64_t end_ns, int parent,
          int64_t id);

  /// Self time of every span named `name`: duration minus children.
  std::vector<double> SelfMs(const std::string& name) const;
  size_t size() const { return spans_.size(); }

  /// One JSON object per span per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* t, const char* name, int64_t id)
      : tracer_(t), index_(t->Begin(name, id)) {}
  ~Scope() { tracer_->End(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
double PeakRssMb(int pid);

/// Aggregate CPU jiffies from /proc/stat (zeros when unreadable).
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();
/// Share of the CPU time between two readings that the hypervisor gave
/// to other guests (0 when nothing elapsed).
double StealFrac(const CpuTimes& before, const CpuTimes& after);

/// Indices of the half of `steal` (at least one) with the least steal,
/// ties in index order. A pass measured while the hypervisor held a vCPU
/// measures the host: with four threads meeting at every superstep's
/// barrier, one held vCPU stalls all of them.
std::vector<size_t> LeastStolenHalf(const std::vector<double>& steal);

/// The phases. Each owns its inputs; Setup() may be called repeatedly
/// (every call rebuilds from scratch) and returns its wall seconds.
class Phase {
 public:
  virtual ~Phase() = default;
  /// Builds inputs and warms up; timed as part of setup_s.
  virtual double Setup() = 0;
  /// The benchmark's own reference computation (not part of setup_s).
  virtual void Prepare() = 0;
  /// Measures one round for `seconds`, checking every result it times.
  virtual void MeasureRound(double seconds) = 0;
  /// Reports the metrics over all rounds.
  virtual void Finish() = 0;
  /// Peak RSS of the process hosting this phase's system under test.
  virtual double PeakRss() const = 0;
  virtual void Shutdown() {}
};

struct Context {
  const Options* options;
  Report* report;
  Tracer* tracer;
};

std::unique_ptr<Phase> NewAnalytics(const Context& ctx);
std::unique_ptr<Phase> NewServe(const Context& ctx);
std::unique_ptr<Phase> NewIngest(const Context& ctx);

}  // namespace perfbench

#endif  // GRAPHITE_PERFBENCH_BENCH_H_
