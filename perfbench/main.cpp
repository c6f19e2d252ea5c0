// perfbench — the indiroute end-to-end benchmark binary.
//
//   perfbench --workload sim_sparse|sim_dense|rt_race --seed N
//             --seconds S --trace 0|1 [--tiny] [--expect-digest HEX]
//             [--fault-truncate]
//
// Prints one JSON object as the last line of stdout: correct, attempted,
// failed, errors, metrics ({name: {value, unit}}) and host_health (start
// and end readings). --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer ones. Exits 1 when any correctness gate fired, 2 on a
// usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s\nusage: %s --workload sim_sparse|sim_dense|rt_race "
               "--seed N --seconds S --trace 0|1 [--tiny] "
               "[--expect-digest HEX] [--fault-truncate]\n",
               why.c_str(), argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--expect-digest") {
      o.expect_digest = std::strtoull(value().c_str(), nullptr, 16);
    } else if (arg == "--fault-truncate") {
      o.fault_truncate = true;
    } else {
      return usage(argv[0], "unknown argument: " + arg);
    }
  }
  const bool sim = o.workload == "sim_sparse" || o.workload == "sim_dense";
  const bool rt = o.workload == "rt_race";
  if (!sim && !rt) return usage(argv[0], "unknown workload: " + o.workload);
  if (!(o.seconds > 0.0)) return usage(argv[0], "--seconds must be > 0");

  const std::string host_start = perfbench::host_health_json();
  perfbench::Report report;
  try {
    if (sim) {
      perfbench::run_sim_workload(o, report);
    } else {
      perfbench::run_rt_workload(o, report);
    }
  } catch (const std::exception& e) {
    report.error(e.what());
  }
  std::printf("%s\n",
              report.to_json(host_start, perfbench::host_health_json()).c_str());
  return report.correct() ? 0 : 1;
}
