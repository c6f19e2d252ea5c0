// Fig. 6: average throughput improvement vs. random-set size for the
// Section 4 clients (Duke, Sweden, Italy).
// Paper: curves rise with n and level off around n = 10 of 35.
#include <cstdio>

#include "bench_common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace idr;
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::print_header(
      "Fig. 6 - avg improvement vs. random set size (Duke/Sweden/Italy)",
      "curves level off around n = 10 of 35", opts);

  obs::Tracer tracer;
  tracer.set_enabled(obs::out_enabled());
  testbed::Section4Config config = bench::section4_config(opts);
  config.tracer = &tracer;
  config.clients = {"Duke", "Sweden", "Italy"};
  config.client_inbound_mbps = {2.0, 1.4, 1.2};
  const testbed::Section4Result result = testbed::run_section4(config);

  util::TextTable table({"n", "Duke (%)", "Sweden (%)", "Italy (%)"});
  for (std::size_t n : config.set_sizes) {
    table.row()
        .cell(n)
        .cell(result.cell("Duke", n).avg_improvement_pct, 1)
        .cell(result.cell("Sweden", n).avg_improvement_pct, 1)
        .cell(result.cell("Italy", n).avg_improvement_pct, 1);
  }
  std::printf("%s", table.render().c_str());

  // Knee check: how much of the n = max improvement is reached by n = 10?
  for (const char* client : {"Duke", "Sweden", "Italy"}) {
    const double at10 = result.cell(client, 10).avg_improvement_pct;
    const double at_max =
        result.cell(client, config.set_sizes.back()).avg_improvement_pct;
    std::printf("%-7s n=10 reaches %.0f %% of the n=%zu improvement\n",
                client, at_max > 0 ? 100.0 * at10 / at_max : 0.0,
                config.set_sizes.back());
  }
  bench::finish_run("fig6", result.metrics, &tracer);
  return 0;
}
