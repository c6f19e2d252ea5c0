// Shared plumbing of the perfbench binary: options, the result report,
// sample statistics, process/thread clocks, host-health readings and span
// arithmetic. The workloads themselves live in sim_workloads.cpp and
// rt_workloads.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

namespace obs = idr::obs;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs for the benchmark's own tests: fewer sim clients and
  /// smaller rt objects, so a sub-second run still has >= 100 ops.
  bool tiny = false;
  /// Overrides the recorded default-seed digest of a sim workload (the
  /// tests use it to prove the digest gate fires).
  std::optional<std::uint64_t> expect_digest;
  /// Arms rt::FaultShim to truncate every client-side body (the tests use
  /// it to prove the rt correctness gate fires).
  bool fault_truncate = false;
};

/// Everything one run reports. A run is correct only when no op failed
/// and no gate recorded an error.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void error(const std::string& what);
  void count_ops(std::uint64_t attempted, std::uint64_t failed);

  bool correct() const { return errors_.empty() && failed_ == 0; }
  /// Single-line JSON: correct, attempted, failed, errors, metrics (empty
  /// unless correct), host_health.
  std::string to_json(const std::string& host_start,
                      const std::string& host_end) const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- Sample statistics ----------------------------------------------------

/// Linear-interpolated quantile of `samples` (copied and sorted).
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// A quantile is reported only when at least ten samples lie beyond it:
/// n * (1 - q) >= 10. Otherwise the run records an error.
bool quantile_supported(std::size_t n, double q);

/// Reports `name` as the q-quantile of `samples` scaled by `scale`, or
/// records an error when the sample count does not support it.
void report_quantile(Report& report, const std::string& name,
                     const std::vector<double>& samples, double q,
                     double scale, const std::string& unit);

double ratio(double num, double den);

// --- Clocks ----------------------------------------------------------------

double now_s();                  // steady clock, seconds
double process_cpu_s();          // user + sys of the whole process
double peak_rss_mb();            // VmHWM of this process image
/// CPU clock of a pthread (pthread_getcpuclockid), seconds.
double thread_cpu_s(unsigned long pthread_handle);

// --- Host health -------------------------------------------------------------

/// One JSON object: TIME_WAIT sockets (/proc/net/sockstat), loadavg and
/// steal ticks (/proc/stat). Fields that cannot be read are null.
std::string host_health_json();

// --- Spans -------------------------------------------------------------------

/// Self time of a span: its duration minus the part of [start, end) that
/// `children` (start, end pairs, any order, may overlap) cover.
double self_time(double start, double end,
                 std::vector<std::pair<double, double>> children);

/// Durations (microseconds) of every complete event named `name`.
std::vector<double> span_durations_us(const std::vector<obs::TraceEvent>& ev,
                                      const std::string& name);

}  // namespace perfbench
