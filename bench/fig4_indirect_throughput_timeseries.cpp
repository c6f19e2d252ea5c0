// Fig. 4: indirect-path throughput over time for selected clients.
// Paper: variations but "no discernable uptrend or downtrend", with a few
// small jumps — the indirect path is steadier than the direct one.
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace idr;
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::print_header(
      "Fig. 4 - indirect-path throughput vs. time",
      "fluctuations but no trend; steadier than the direct path", opts);

  obs::Tracer tracer;
  tracer.set_enabled(obs::out_enabled());
  testbed::Section2Config config = bench::section2_good_relay_config(opts);
  config.tracer = &tracer;
  // Each session samples its selecting world every 10 virtual minutes;
  // the windowed deltas below come from diffing those snapshots — the
  // exact machinery behind `GET /metrics?window=<s>` on the rt daemons.
  config.sample_period = util::minutes(10);
  config.sample_capacity = 128;
  const testbed::Section2Result result =
      testbed::run_section2(config);

  const char* kShown[] = {"Canada", "Italy", "Korea", "Beirut"};
  for (const char* client : kShown) {
    std::vector<double> times, rates;
    util::OnlineStats indirect_stats, direct_stats;
    const obs::TimeSeries* series = nullptr;
    for (const auto& s : result.sessions) {
      if (s.client != client) continue;
      direct_stats.merge(s.direct_rate_stats);
      if (series == nullptr) series = &s.series;
      for (const auto& t : s.transfers) {
        if (t.ok && t.chose_indirect) {
          times.push_back(t.start_time / 60.0);  // minutes
          rates.push_back(util::to_mbps(t.selected_rate));
          indirect_stats.add(util::to_mbps(t.selected_rate));
        }
      }
    }
    std::printf("--- %s ---\n", client);
    if (times.size() < 5) {
      std::printf("  too few indirect transfers (%zu)\n\n", times.size());
      continue;
    }
    // Sparkline-style series, 1 char per sample, scaled to the max.
    double peak = 1e-9;
    for (double r : rates) peak = std::max(peak, r);
    std::string spark;
    static const char kLevels[] = " .:-=+*#%@";
    for (double r : rates) {
      spark += kLevels[static_cast<int>(std::floor(r / peak * 9.0))];
    }
    std::printf("  series (time ->): [%s] peak=%.2f Mbps\n", spark.c_str(),
                peak);
    const double slope_per_hour =
        util::linear_regression_slope(times, rates) * 60.0;
    std::printf("  samples %zu, mean %.2f Mbps, cv %.2f, trend %+.3f "
                "Mbps/hour (paper: ~0)\n",
                times.size(), indirect_stats.mean(), indirect_stats.cv(),
                slope_per_hour);
    std::printf("  direct-path cv over same period: %.2f (indirect should "
                "be steadier)\n",
                direct_stats.cv());
    // Trailing-2h windowed rates from the virtual-time sampler, per
    // minute: transfer completions and indirect race wins should both be
    // flat across windows when the paper's "no trend" claim holds.
    if (series != nullptr && series->size() >= 2) {
      const double kWindowS = 2.0 * 3600.0;
      const auto win = series->window(kWindowS);
      std::printf("  windowed (last %.0f min of one session, %zu samples): "
                  "%.2f transfers/min, %.2f indirect wins/min\n",
                  win.duration / 60.0, win.samples,
                  series->rate("sim.engine.transfers_completed", kWindowS) *
                      60.0,
                  series->rate("sim.race.races_won_indirect", kWindowS) *
                      60.0);
    }
    std::printf("\n");
  }
  bench::finish_run("fig4", result.metrics,
                   &tracer);
  return 0;
}
