// Ablation A3: the enhancement the paper's conclusion proposes — weight
// the random set by historical utilization so better relays are probed
// more often. Compares uniform vs. weighted subsets at small n.
#include <cstdio>

#include "bench_common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace idr;
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::print_header(
      "Ablation A3 - uniform vs. utilization-weighted random sets",
      "(paper future work): weighting should reach the plateau at smaller n",
      opts);

  testbed::Section4Config base = bench::section4_config(opts);
  base.clients = {"Duke", "Italy"};
  base.client_inbound_mbps = {2.0, 1.2};
  base.set_sizes = {2, 3, 5, 10};
  if (!opts.paper_scale) base.transfers = 240;

  const testbed::Section4Result uni = testbed::run_section4(base);

  testbed::Section4Config weighted = base;
  weighted.policy.kind = testbed::PolicyKind::Weighted;
  const testbed::Section4Result wei = testbed::run_section4(weighted);

  util::TextTable table({"Client", "n", "Uniform avg imp (%)",
                         "Weighted avg imp (%)", "Delta"});
  for (const auto& client : base.clients) {
    for (std::size_t n : base.set_sizes) {
      const double u = uni.cell(client, n).avg_improvement_pct;
      const double w = wei.cell(client, n).avg_improvement_pct;
      table.row()
          .cell(client)
          .cell(n)
          .cell(u, 1)
          .cell(w, 1)
          .cell(std::string(w >= u ? "+" : "")
                    .append(util::format_fixed(w - u, 1)));
    }
  }
  std::printf("%s", table.render().c_str());
  testbed::SchedulerWork sim_work = uni.work;
  sim_work += wei.work;
  bench::print_scheduler_work(sim_work);
  return 0;
}
