// Table III: per-relay utilization and throughput improvement for Duke as
// the client (Section 4 random-set experiment).
// Paper: Texas best (76.1 % / +71.0 %); utilization and improvement are
// positively correlated, with imperfections (Michigan outperforms several
// more-utilized nodes; MIT is net negative at 1.3 % / -19.6 %).
#include <cstdio>

#include "bench_common.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace idr;
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::print_header(
      "Table III - relay utilization vs. improvement (Duke as client)",
      "best relay 76%/+71%; utilization correlates with improvement",
      opts);

  obs::Tracer tracer;
  tracer.set_enabled(obs::out_enabled());
  testbed::Section4Config config = bench::section4_config(opts);
  config.tracer = &tracer;
  config.clients = {"Duke"};
  config.client_inbound_mbps = {2.0};
  config.set_sizes = {10};  // the knee of Fig. 6
  if (!opts.paper_scale) config.transfers = 240;
  const testbed::Section4Result result = testbed::run_section4(config);
  const auto& cell = result.cell("Duke", 10);

  util::TextTable table(
      {"Node", "Utilization (%)", "Improvement (%)", "Selected"});
  std::vector<double> utils, imps;
  for (const auto& r : cell.relay_stats.by_utilization()) {
    if (r.selections == 0) continue;  // paper lists non-zero rows only
    const double util_pct = 100.0 * r.utilization();
    const double imp = r.improvement_pct.mean();
    utils.push_back(util_pct);
    imps.push_back(imp);
    table.row()
        .cell(r.name)
        .cell(util_pct, 1)
        .cell(imp, 1)
        .cell(r.selections);
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nnon-zero-utilization relays: %zu of %zu (paper: 22 of 35)\n",
              utils.size(), cell.relay_stats.relay_count());
  if (utils.size() >= 3) {
    std::printf("Spearman(utilization, improvement) = %.2f "
                "(paper: positive, imperfect)\n",
                util::spearman_correlation(utils, imps));
  }
  bench::finish_run("table3", result.metrics, &tracer);
  return 0;
}
