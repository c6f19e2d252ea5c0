// The paper's headline: "indirect routing produces a throughput
// improvement ranging from 33% to 49% on average, depending on the Web
// site" (eBay, Google, Microsoft/MSN, Yahoo), and is "worth doing 45% of
// the time". One Section 2 run per destination server.
#include <cstdio>

#include "bench_common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace idr;
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::print_header(
      "Headline - average improvement per destination server",
      "33-49% average improvement depending on the Web site; indirect "
      "worth doing ~45% of the time",
      opts);

  util::TextTable table({"Server", "Avg improvement (%)", "Median (%)",
                         "Indirect chosen (%)", "Points"});
  double lo = 1e9, hi = -1e9;
  obs::Tracer tracer;
  tracer.set_enabled(obs::out_enabled());
  obs::Snapshot metrics;
  for (const char* server : {"eBay", "Google", "MSN", "Yahoo"}) {
    testbed::Section2Config config = bench::section2_good_relay_config(opts);
    config.server = server;
    config.tracer = &tracer;
    const testbed::Section2Result result = testbed::run_section2(config);
    util::SampleSet imp;
    imp.add_all(testbed::indirect_improvements(result.sessions));
    metrics.merge(result.metrics);
    const double avg = imp.empty() ? 0.0 : imp.mean();
    lo = std::min(lo, avg);
    hi = std::max(hi, avg);
    table.row()
        .cell(server)
        .cell(avg, 1)
        .cell(imp.empty() ? 0.0 : imp.median(), 1)
        .cell(100.0 * testbed::overall_utilization(result.sessions), 0)
        .cell(imp.count());
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nmeasured range: +%.0f%% .. +%.0f%% (paper: +33%% .. +49%%)\n",
              lo, hi);
  bench::finish_run("headline_servers", metrics, &tracer);
  return 0;
}
