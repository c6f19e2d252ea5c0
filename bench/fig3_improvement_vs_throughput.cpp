// Fig. 3: improvement vs. direct-path throughput for selected clients.
// Paper: a downward trend — the lower the client's direct throughput, the
// larger the improvement from indirect routing.
#include <cstdio>

#include "bench_common.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace idr;
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::print_header(
      "Fig. 3 - improvement vs. direct-path throughput",
      "downward trend: improvement inversely related to client throughput",
      opts);

  obs::Tracer tracer;
  tracer.set_enabled(obs::out_enabled());
  testbed::Section2Config config = bench::section2_good_relay_config(opts);
  config.tracer = &tracer;
  const testbed::Section2Result result =
      testbed::run_section2(config);
  const auto points =
      testbed::improvement_vs_throughput_points(result.sessions);

  // Bucket the scatter by direct throughput for a textual rendering of
  // the trend, then report the regression slope the figure implies.
  struct Bucket {
    double lo, hi;
    util::OnlineStats improvements;
  };
  std::vector<Bucket> buckets;
  for (double lo = 0.0; lo < 4.0; lo += 0.5) {
    buckets.push_back(Bucket{lo, lo + 0.5, {}});
  }
  buckets.push_back(Bucket{4.0, 1e9, {}});

  std::vector<double> xs, ys;
  for (const auto& p : points) {
    xs.push_back(p.direct_mbps);
    ys.push_back(p.improvement_pct);
    for (auto& b : buckets) {
      if (p.direct_mbps >= b.lo && p.direct_mbps < b.hi) {
        b.improvements.add(p.improvement_pct);
        break;
      }
    }
  }

  util::TextTable table(
      {"Direct throughput (Mbps)", "Points", "Avg improvement (%)"});
  for (const auto& b : buckets) {
    if (b.improvements.empty()) continue;
    const std::string label =
        b.hi > 100.0 ? util::format_fixed(b.lo, 1) + "+"
                     : util::format_fixed(b.lo, 1) + " - " +
                           util::format_fixed(b.hi, 1);
    table.row().cell(label).cell(b.improvements.count()).cell(
        b.improvements.mean(), 1);
  }
  std::printf("%s", table.render().c_str());

  const double slope = util::linear_regression_slope(xs, ys);
  std::printf(
      "\nregression slope: %.1f %% per Mbps (paper: negative / downward)\n",
      slope);
  std::printf("points: %zu\n", xs.size());
  bench::finish_run("fig3", result.metrics,
                   &tracer);
  return 0;
}
