#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/json.h"

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void Report::Info(const std::string& key, const std::string& value) {
  graphite::JsonWriter w;
  w.String(value);
  info_[key] = w.Take();
}

void Report::Info(const std::string& key, double value) {
  graphite::JsonWriter w;
  if (std::isfinite(value)) {
    w.Double(value);
  } else {
    w.Null();  // e.g. the p99 of a step with failed requests
  }
  info_[key] = w.Take();
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  // The first few failures name what went wrong; the count says the rest.
  if (logged_failures_++ < 20) {
    std::fprintf(stderr, "[perfbench] FAILED: %s\n", what.c_str());
  }
}

std::string Report::InfoJson() const {
  graphite::JsonWriter w;
  w.BeginObject();
  w.Key("provenance").BeginObject();
  for (const auto& [key, value] : info_) w.Key(key).Raw(value);
  w.EndObject();
  w.EndObject();
  return w.Take();
}

std::string Report::ResultJson(bool layers) const {
  graphite::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(failed_ == 0 && attempted_ > 0);
  w.Key("attempted").Int(attempted_);
  w.Key("failed").Int(failed_);
  w.Key("metrics").BeginObject();
  for (const auto& [name, v] : layers ? layers_ : metrics_) {
    w.Key(name).BeginObject();
    // A failed run can leave a non-finite latency; JSON has no infinity.
    if (std::isfinite(v.value)) {
      w.Key("value").Double(v.value);
    } else {
      w.Key("value").Null();
    }
    w.Key("unit").String(v.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

int Tracer::Begin(const char* name, int64_t id) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, graphite::NowNanos(), 0, parent, id});
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = graphite::NowNanos();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns, int parent,
                int64_t id) {
  if (!enabled_) return -1;
  spans_.push_back({name, start_ns, end_ns, parent, id});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<double> Tracer::SelfMs(const std::string& name) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    out.push_back(Ms(spans_[i].end_ns - spans_[i].start_ns - child_ns[i]));
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    graphite::JsonWriter w;
    w.BeginObject();
    w.Key("name").String(s.name);
    w.Key("start_ns").Int(s.start_ns);
    w.Key("end_ns").Int(s.end_ns);
    w.Key("parent").Int(s.parent);
    w.Key("id").Int(s.id);
    w.EndObject();
    out << w.str() << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTimes t;
  in >> cpu;
  for (int field = 0; field < 8 && in; ++field) {
    uint64_t v = 0;
    in >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealFrac(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

std::vector<size_t> LeastStolenHalf(const std::vector<double>& steal) {
  std::vector<size_t> order(steal.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  order.resize(std::min(order.size(), (order.size() + 1) / 2));
  std::sort(order.begin(), order.end());
  return order;
}

double PeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
