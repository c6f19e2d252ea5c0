#include "common.hpp"

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace perfbench {

namespace {

std::string json_number(double v) {
  std::string out;
  obs::json_append_double(out, v);
  return out;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Report::error(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  errors_.push_back(what);
}

void Report::count_ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::to_json(const std::string& host_start,
                            const std::string& host_end) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    if (i > 0) out += ", ";
    obs::json_append_string(out, errors_[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  // A failed run reports no numbers.
  for (const auto& [name, v] : correct() ? metrics_ : decltype(metrics_){}) {
    if (!first) out += ", ";
    first = false;
    obs::json_append_string(out, name);
    out += ": {\"value\": ";
    obs::json_append_double(out, v.value);
    out += ", \"unit\": ";
    obs::json_append_string(out, v.unit);
    out += "}";
  }
  out += "}, \"host_health\": {\"start\": " + host_start +
         ", \"end\": " + host_end + "}}";
  return out;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

bool quantile_supported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

void report_quantile(Report& report, const std::string& name,
                     const std::vector<double>& samples, double q,
                     double scale, const std::string& unit) {
  if (!quantile_supported(samples.size(), q)) {
    report.error(name + ": " + std::to_string(samples.size()) +
                 " samples cannot support that quantile (need 10 beyond it)");
    return;
  }
  report.metric(name, quantile(samples, q) * scale, unit);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not ru_maxrss: getrusage keeps the pre-exec high-water mark of
  // the process that spawned us when that one was larger.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double thread_cpu_s(unsigned long pthread_handle) {
  clockid_t clock{};
  if (::pthread_getcpuclockid(static_cast<pthread_t>(pthread_handle),
                              &clock) != 0) {
    return 0.0;
  }
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string host_health_json() {
  std::string time_wait = "null";
  std::ifstream sockstat("/proc/net/sockstat");
  for (std::string line; std::getline(sockstat, line);) {
    if (line.rfind("TCP:", 0) != 0) continue;
    std::istringstream fields(line.substr(4));
    for (std::string key, value; fields >> key >> value;) {
      if (key == "tw") time_wait = value;
    }
  }

  std::string load = "null";
  std::ifstream loadavg("/proc/loadavg");
  double l1 = 0.0, l5 = 0.0, l15 = 0.0;
  if (loadavg >> l1 >> l5 >> l15) {
    load = "[" + json_number(l1) + ", " + json_number(l5) + ", " +
           json_number(l15) + "]";
  }

  // cpu  user nice system idle iowait irq softirq steal ...
  std::string steal = "null";
  std::ifstream stat("/proc/stat");
  std::string label;
  std::uint64_t field[8] = {};
  if (stat >> label && label == "cpu") {
    bool ok = true;
    for (auto& f : field) ok = ok && static_cast<bool>(stat >> f);
    if (ok) steal = std::to_string(field[7]);
  }

  return "{\"t\": " + json_number(now_s()) +
         ", \"tcp_time_wait\": " + time_wait + ", \"loadavg\": " + load +
         ", \"steal_ticks\": " + steal + "}";
}

double self_time(double start, double end,
                 std::vector<std::pair<double, double>> children) {
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double cursor = start;
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return (end - start) - covered;
}

std::vector<double> span_durations_us(const std::vector<obs::TraceEvent>& ev,
                                      const std::string& name) {
  std::vector<double> out;
  for (const obs::TraceEvent& e : ev) {
    if (e.phase == 'X' && e.name == name) out.push_back(e.dur_us);
  }
  return out;
}

}  // namespace perfbench
