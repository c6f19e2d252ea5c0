// Fig. 2: per-client improvement histograms for selected clients.
// Paper: most clients look like the aggregate — mass in [0, 100) peaking
// near +50 % — with occasional exceptions (France).
#include <cstdio>

#include "bench_common.hpp"
#include "util/histogram.hpp"

int main(int argc, char** argv) {
  using namespace idr;
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::print_header(
      "Fig. 2 - per-client improvement histograms",
      "per-client shapes mirror the aggregate; peak near +50%", opts);

  obs::Tracer tracer;
  tracer.set_enabled(obs::out_enabled());
  testbed::Section2Config config = bench::section2_good_relay_config(opts);
  config.tracer = &tracer;
  const testbed::Section2Result result =
      testbed::run_section2(config);

  const char* kShown[] = {"Australia 2", "Canada",  "France",
                          "Italy",       "Beirut",  "Korea"};
  for (const char* client : kShown) {
    util::Histogram hist(-100.0, 200.0, 15);
    util::SampleSet samples;
    for (const auto& s : result.sessions) {
      if (s.client != client) continue;
      for (const auto& t : s.transfers) {
        if (t.ok && t.chose_indirect) {
          hist.add(t.improvement_pct);
          samples.add(t.improvement_pct);
        }
      }
    }
    std::printf("--- %s (%zu indirect transfers) ---\n", client,
                samples.count());
    if (samples.empty()) {
      std::printf("  (direct path always won for this client)\n\n");
      continue;
    }
    std::printf("%s", hist.render(40).c_str());
    std::printf("  mean %+.1f %%, median %+.1f %%\n\n", samples.mean(),
                samples.median());
  }
  bench::finish_run("fig2", result.metrics,
                   &tracer);
  return 0;
}
