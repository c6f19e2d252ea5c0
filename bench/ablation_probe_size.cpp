// Ablation A1: sweep the probe size x. The paper fixed x = 100 KB as
// "large enough to marginalize slow-start" while keeping overhead low;
// this bench regenerates the trade-off: tiny probes mispredict (they race
// inside slow start), huge probes waste time on the losing path.
#include <cstdio>

#include "bench_common.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace idr;
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::print_header(
      "Ablation A1 - probe size sweep",
      "x = 100 KB balances prediction accuracy and probing overhead",
      opts);

  const double kProbeKB[] = {10, 25, 50, 100, 200, 400, 1000};
  util::TextTable table({"Probe x (KB)", "Avg improvement (%)",
                         "Median (%)", "Negative picks (%)",
                         "Indirect chosen (%)"});
  testbed::SchedulerWork sim_work;
  for (double kb : kProbeKB) {
    testbed::Section2Config config = bench::section2_good_relay_config(opts);
    if (!opts.paper_scale) config.transfers_per_session = 40;
    config.knobs.probe_bytes = util::kilobytes(kb);
    const testbed::Section2Result result = testbed::run_section2(config);
    util::SampleSet imp;
    imp.add_all(testbed::indirect_improvements(result.sessions));
    sim_work += result.work;
    table.row()
        .cell(util::format_fixed(kb, 0))
        .cell(imp.empty() ? 0.0 : imp.mean(), 1)
        .cell(imp.empty() ? 0.0 : imp.median(), 1)
        .cell(imp.empty() ? 0.0 : 100.0 * imp.fraction_below(0.0), 1)
        .cell(100.0 * testbed::overall_utilization(result.sessions), 1);
  }
  std::printf("%s", table.render().c_str());
  bench::print_scheduler_work(sim_work);
  return 0;
}
