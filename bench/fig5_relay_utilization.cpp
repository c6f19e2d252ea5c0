// Fig. 5: utilization statistics (average / stdev / RMS) for intermediate
// nodes, aggregated over all clients.
// Paper: averages vary by relay (Berkeley ~26 %) but every relay sees
// significant use; mean across relays is 45 %.
#include <cstdio>

#include "bench_common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace idr;
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::print_header(
      "Fig. 5 - intermediate node utilization (avg/stdev/RMS)",
      "per-relay averages vary; overall mean utilization 45%", opts);

  obs::Tracer tracer;
  tracer.set_enabled(obs::out_enabled());
  testbed::Section2Config config = bench::section2_rotation_config(opts);
  config.tracer = &tracer;
  const testbed::Section2Result result =
      testbed::run_section2(config);
  const auto rows = testbed::relay_utilization_summary(result.sessions);

  util::TextTable table(
      {"Intermediate node", "Average (%)", "Stdev (%)", "RMS (%)",
       "Sessions"});
  util::OnlineStats averages;
  for (const auto& r : rows) {
    averages.add(100.0 * r.average);
    table.row()
        .cell(r.relay)
        .cell(100.0 * r.average, 1)
        .cell(100.0 * r.stdev, 1)
        .cell(100.0 * r.rms, 1)
        .cell(r.sessions);
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nmean utilization across relays: %.0f %% (paper: 45 %%)\n",
              averages.mean());
  std::printf("overall utilization across transfers: %.0f %%\n",
              100.0 * testbed::overall_utilization(result.sessions));
  bench::finish_run("fig5", result.metrics,
                   &tracer);
  return 0;
}
