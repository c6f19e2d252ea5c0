// Fig. 1: histogram of throughput improvements aggregated over all
// clients, for transfers where the indirect path was chosen.
// Paper: average +49 %, median +37 %, 84 % of points in [0, 100),
// ~12 % negative.
#include <cstdio>

#include "bench_common.hpp"
#include "util/histogram.hpp"

int main(int argc, char** argv) {
  using namespace idr;
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::print_header(
      "Fig. 1 - improvement histogram (all clients, eBay)",
      "avg +49%, median +37%, 84% in [0,100), ~12% negative", opts);

  obs::Tracer tracer;
  tracer.set_enabled(obs::out_enabled());
  testbed::Section2Config config = bench::section2_good_relay_config(opts);
  config.tracer = &tracer;
  const testbed::Section2Result result = testbed::run_section2(config);
  const std::vector<double> improvements =
      testbed::indirect_improvements(result.sessions);

  util::Histogram hist(-100.0, 200.0, 30);
  util::SampleSet samples;
  for (double imp : improvements) {
    hist.add(imp);
    samples.add(imp);
  }

  std::printf("%s\n", hist.render().c_str());
  if (!samples.empty()) {
    std::printf("points               %zu\n", samples.count());
    std::printf("average improvement  %+.1f %%   (paper: +49 %%)\n",
                samples.mean());
    std::printf("median improvement   %+.1f %%   (paper: +37 %%)\n",
                samples.median());
    std::printf("fraction in [0,100)  %.0f %%    (paper: 84 %%)\n",
                100.0 * samples.fraction_in(0.0, 100.0));
    std::printf("fraction negative    %.0f %%    (paper: ~12 %%)\n",
                100.0 * samples.fraction_below(0.0));
  }
  std::printf("overall indirect-path utilization %.0f %% (paper: 45 %%)\n",
              100.0 * testbed::overall_utilization(result.sessions));
  bench::finish_run("fig1", result.metrics, &tracer);
  return 0;
}
