// perfbench — the repo benchmark binary. Usually started through
// perfbench/run.py, which builds it first:
//
//   perfbench --workload hot|churn --seed N --seconds S
//             --trace 0|1 --server PATH --work DIR
//
// Prints a provenance line, then as the last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when any
// checked result was wrong.
#define GRAPHITE_ALLOC_COUNTER_IMPL
#include "alloc_counter.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "util/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

// Rounds in which the phases take turns.
constexpr int kRounds = 4;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload hot|churn --seed N "
               "--seconds S --trace 0|1 --server PATH --work DIR "
               "[--source-digest HEX]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string source_digest = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--server") {
      options.server_bin = value;
    } else if (key == "--work") {
      options.work_dir = value;
    } else if (key == "--source-digest") {
      source_digest = value;
    } else {
      return Usage();
    }
  }
  if ((options.workload != "hot" && options.workload != "churn") ||
      options.seconds <= 0 || options.server_bin.empty() ||
      options.work_dir.empty()) {
    return Usage();
  }
  std::filesystem::create_directories(options.work_dir);

  Report report;
  Tracer tracer;
  const Context ctx{&options, &report, &tracer};
  std::vector<std::unique_ptr<Phase>> phases;
  phases.push_back(NewServe(ctx));
  phases.push_back(NewIngest(ctx));
  phases.push_back(NewAnalytics(ctx));

  report.Info("workload", options.workload);
  report.Info("seed", static_cast<double>(options.seed));
  report.Info("seconds", options.seconds);
  report.Info("trace", options.trace ? 1.0 : 0.0);
  report.Info("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.Info("simd_dispatch",
              graphite::SimdLevelName(graphite::SimdDispatchLevel()));
  const char* simd_env = std::getenv("GRAPHITE_SIMD");
  report.Info("graphite_simd_env", simd_env != nullptr ? simd_env : "");
  report.Info("build_type", PERFBENCH_BUILD_TYPE);
  report.Info("cxx_flags", PERFBENCH_CXX_FLAGS);
  report.Info("source_digest", source_digest);

  // Set-up is repeated and its median reported, so that one slow
  // allocation or page-cache miss does not decide setup_s. Every setup
  // rebuilds all inputs from the seed; the last one is measured against.
  constexpr int kSetups = 3;
  const int64_t start = graphite::NowNanos();
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetups; ++rep) {
    double total = 0;
    for (auto& phase : phases) total += phase->Setup();
    setup_s.push_back(total);
  }
  const int64_t prepare0 = graphite::NowNanos();
  for (auto& phase : phases) phase->Prepare();
  const int64_t measure0 = graphite::NowNanos();

  // The phases take turns in rounds and each reports over the passes of
  // all its rounds, so that a burst of host noise shorter than the run
  // lands in a minority of every phase's samples instead of deciding one
  // phase's metrics.
  tracer.set_enabled(options.trace);
  const CpuTimes before = ReadCpuTimes();
  const double slice = options.seconds / (kRounds * static_cast<double>(phases.size()));
  for (int round = 0; round < kRounds; ++round) {
    for (auto& phase : phases) phase->MeasureRound(slice);
  }
  const CpuTimes after = ReadCpuTimes();
  const int64_t finish0 = graphite::NowNanos();
  for (auto& phase : phases) phase->Finish();
  std::fprintf(stderr,
               "[perfbench] wall s: setup %.1f, prepare %.1f, measure %.1f, finish %.1f\n",
               static_cast<double>(prepare0 - start) / 1e9,
               static_cast<double>(measure0 - prepare0) / 1e9,
               static_cast<double>(finish0 - measure0) / 1e9,
               static_cast<double>(graphite::NowNanos() - finish0) / 1e9);
  tracer.set_enabled(false);
  // CPU time the hypervisor gave to others while we measured: a validity
  // check on the run, not a property of the program.
  report.Info("host.cpu_steal_frac", StealFrac(before, after));

  double peak_rss = 0;
  for (auto& phase : phases) peak_rss = std::max(peak_rss, phase->PeakRss());
  for (auto& phase : phases) phase->Shutdown();

  report.Metric("setup_s", Median(setup_s), "s");
  report.Metric("peak_rss_mb", peak_rss, "MiB");
  if (options.trace) {
    const std::string path = options.work_dir + "/../trace-" +
                             options.workload + "-" +
                             std::to_string(options.seed) + ".jsonl";
    if (!tracer.WriteJsonLines(path)) {
      std::fprintf(stderr, "[perfbench] cannot write %s\n", path.c_str());
    }
    report.Info("trace_spans", static_cast<double>(tracer.size()));
  }
  std::printf("%s\n", report.InfoJson().c_str());
  std::printf("%s\n", report.ResultJson(options.trace).c_str());
  std::fflush(stdout);
  return report.failed() == 0 ? 0 : 1;
}
