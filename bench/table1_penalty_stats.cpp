// Table I: penalty statistics under the paper's three filters.
// Paper: All 12 % of points / avg 290 % / sd 706 % / max 3840 %;
//        Med+Low throughput 8 % / 43 % / 71 % / 356 %;
//        Low variability 3 % / 12 % / 7 % / 35 %.
#include <cstdio>

#include "bench_common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace idr;
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::print_header(
      "Table I - penalty statistics",
      "All 12%/290%/706%/3840; Med-Low 8%/43%/71%/356; LowVar 3%/12%/7%/35",
      opts);

  obs::Tracer tracer;
  tracer.set_enabled(obs::out_enabled());
  testbed::Section2Config config = bench::section2_good_relay_config(opts);
  config.tracer = &tracer;
  const testbed::Section2Result result =
      testbed::run_section2(config);

  util::TextTable table({"Filter", "Penalty points", "Avg penalty",
                         "St. dev", "Max", "(paper)"});
  auto add_row = [&](const char* label, const char* paper, auto keep) {
    const auto pairs =
        testbed::indirect_rate_pairs_if(result.sessions, keep);
    const core::PenaltySummary s = core::summarize_penalties(pairs);
    table.row()
        .cell(label)
        .cell(util::format_fixed(100.0 * s.penalty_fraction, 1) + " %")
        .cell(util::format_fixed(s.avg_penalty_pct, 1) + " %")
        .cell(util::format_fixed(s.stddev_penalty_pct, 1) + " %")
        .cell(util::format_fixed(s.max_penalty_pct, 1) + " %")
        .cell(paper);
  };

  add_row("All", "12% / 290% / 706% / 3840%",
          [](const testbed::SessionResult&) { return true; });
  add_row("Med/Low throughput", "8% / 43% / 71% / 356%",
          [](const testbed::SessionResult& s) {
            return s.category() != core::ThroughputCategory::High;
          });
  add_row("Low variability", "3% / 12% / 7% / 35%",
          [](const testbed::SessionResult& s) {
            return s.category() != core::ThroughputCategory::High &&
                   s.variability() == core::VariabilityClass::Low;
          });

  std::printf("%s", table.render().c_str());
  std::printf(
      "\nNote: the synthetic testbed bounds direct/indirect rate ratios, so\n"
      "penalty magnitudes are compressed relative to the paper's outliers\n"
      "(their 3840%% maximum implies a 39x rate ratio); the structure —\n"
      "penalties concentrated in high-throughput, high-variability clients\n"
      "and shrinking under the filters — is what this table checks.\n");
  bench::finish_run("table1", result.metrics,
                   &tracer);
  return 0;
}
