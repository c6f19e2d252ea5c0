// Table II: each client's top three intermediate nodes by utilization.
// Paper: heavy overlap — a handful of intermediates (NYU, Upenn, UIUC,
// Princeton, Notre Dame, ...) dominate many clients' top-3; utilizations
// range from ~99 % (Canada, Greece, Israel, Italy) down to ~5 %
// (Singapore, UK).
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace idr;
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::print_header(
      "Table II - per-client top-3 intermediate nodes (utilization)",
      "top-3 sets overlap heavily across clients; 99% rows for stable "
      "poor-path clients, ~5% for High-throughput clients",
      opts);

  obs::Tracer tracer;
  tracer.set_enabled(obs::out_enabled());
  testbed::Section2Config config = bench::section2_rotation_config(opts);
  config.tracer = &tracer;
  const testbed::Section2Result result = testbed::run_section2(config);

  const auto tops = testbed::top_relays_per_client(result.sessions, 3);
  util::TextTable table({"Client", "First", "Second", "Third"});
  std::map<std::string, int> top3_membership;
  for (const auto& t : tops) {
    auto cell = [&](std::size_t i) -> std::string {
      if (i >= t.top.size()) return "-";
      top3_membership[t.top[i].relay]++;
      return t.top[i].relay + " (" +
             util::format_fixed(100.0 * t.top[i].utilization, 0) + "%)";
    };
    // Evaluation order of arguments is unspecified; materialize in order.
    const std::string first = cell(0);
    const std::string second = cell(1);
    const std::string third = cell(2);
    table.row().cell(t.client).cell(first).cell(second).cell(third);
  }
  std::printf("%s", table.render().c_str());

  std::printf("\nrelay overlap across clients' top-3 sets:\n");
  for (const auto& [relay, count] : top3_membership) {
    if (count >= 2) std::printf("  %-14s in %d clients' top-3\n",
                                relay.c_str(), count);
  }
  bench::finish_run("table2", result.metrics,
                   &tracer);
  return 0;
}
