// Policy-vs-policy matrix: the Fig. 6 ablation extended across the whole
// SelectionPolicy family, trading probe overhead against improvement.
//
// Runs the Section 4 testbed (Duke + Italy) once per policy at a fixed
// candidate-set size and reports, per policy:
//
//   - mean steady improvement (the Fig. 6 y-axis),
//   - probe overhead bytes (sim.select.probe_bytes: the probe span sent
//     down every losing lane, zero for skipped races),
//   - races run / skipped (sim.select.races_run / races_skipped),
//   - relay load skew: max/mean selections across the relay roster —
//     the herding measure behind Table III's saturating top relays.
//
// Self-gating (exit 1 on failure), results in BENCH_policy.json
// (--out=PATH to override):
//
//   1. race-on-staleness cuts probe overhead bytes by >= 50% vs
//      always-race while retaining >= 80% of its mean improvement;
//   2. hybrid-weighted-passive's relay load skew stays below full-set
//      racing's (the utilization cap prevents herding);
//   3. zero failed transfers under every policy.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/table.hpp"

namespace {

using namespace idr;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

struct PolicyRow {
  std::string name;
  double mean_improvement_pct = 0.0;
  std::uint64_t probe_bytes = 0;
  std::uint64_t races_run = 0;
  std::uint64_t races_skipped = 0;
  std::size_t failed_transfers = 0;
  double load_skew = 0.0;  // max/mean selections over the relay roster
};

std::uint64_t counter_of(const obs::Snapshot& snapshot, const char* name) {
  const obs::MetricValue* m = snapshot.find(name);
  return m != nullptr ? m->count : 0;
}

PolicyRow run_policy(const testbed::Section4Config& base,
                     const testbed::PolicyParams& params,
                     std::size_t set_size) {
  testbed::Section4Config config = base;
  config.policy = params;
  const testbed::Section4Result result = testbed::run_section4(config);

  PolicyRow row;
  row.name = testbed::policy_kind_name(params.kind);

  // Selections aggregated by relay name across cells (both clients use
  // the same roster names): the run-level herding view.
  std::map<std::string, std::size_t> selections;
  util::OnlineStats improvements;
  for (const auto& client : config.clients) {
    const testbed::Section4Cell& cell = result.cell(client, set_size);
    row.failed_transfers += cell.session.failed_transfers;
    for (const auto& t : cell.session.transfers) {
      if (t.ok) improvements.add(t.improvement_steady_pct);
    }
    for (const auto& r : cell.relay_stats.records()) {
      selections[r.name] += r.selections;
    }
  }
  row.mean_improvement_pct = improvements.mean();

  const obs::Snapshot& metrics = result.metrics;
  row.probe_bytes = counter_of(metrics, "sim.select.probe_bytes");
  row.races_run = counter_of(metrics, "sim.select.races_run");
  row.races_skipped = counter_of(metrics, "sim.select.races_skipped");

  std::size_t max_sel = 0;
  std::size_t total_sel = 0;
  for (const auto& [name, count] : selections) {
    max_sel = std::max(max_sel, count);
    total_sel += count;
  }
  const double mean_sel = selections.empty()
                              ? 0.0
                              : static_cast<double>(total_sel) /
                                    static_cast<double>(selections.size());
  row.load_skew =
      mean_sel > 0.0 ? static_cast<double>(max_sel) / mean_sel : 0.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_policy.json";
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  const bench::Options opts = bench::parse_options(
      static_cast<int>(passthrough.size()), passthrough.data());
  bench::print_header(
      "Policy matrix - probe overhead vs. improvement per selection policy",
      "racing every transfer buys selection accuracy with probe bytes; "
      "passive estimates should recover most improvement at a fraction "
      "of the overhead",
      opts);

  testbed::Section4Config base = bench::section4_config(opts);
  base.clients = {"Duke", "Italy"};
  base.client_inbound_mbps = {2.0, 1.2};
  const std::size_t set_size = 5;
  base.set_sizes = {set_size};
  if (!opts.paper_scale) base.transfers = 240;

  // One transfer every `interval`: a 600 s staleness threshold re-races
  // roughly every 13th transfer at the scaled 45 s cadence.
  testbed::PolicyParams always;
  always.kind = testbed::PolicyKind::AlwaysRace;
  testbed::PolicyParams stale;
  stale.kind = testbed::PolicyKind::RaceOnStaleness;
  stale.staleness_threshold = 600.0;
  testbed::PolicyParams hybrid;
  hybrid.kind = testbed::PolicyKind::HybridPassive;
  hybrid.utilization_cap = 0.35;
  testbed::PolicyParams fullset;
  fullset.kind = testbed::PolicyKind::FullSet;

  std::vector<PolicyRow> rows;
  rows.push_back(run_policy(base, always, set_size));
  rows.push_back(run_policy(base, stale, set_size));
  rows.push_back(run_policy(base, hybrid, set_size));
  rows.push_back(run_policy(base, fullset, set_size));
  const PolicyRow& r_always = rows[0];
  const PolicyRow& r_stale = rows[1];
  const PolicyRow& r_hybrid = rows[2];
  const PolicyRow& r_fullset = rows[3];

  util::TextTable table({"Policy", "Mean imp (%)", "Probe MB", "Races",
                         "Skipped", "Load skew", "Failed"});
  for (const PolicyRow& row : rows) {
    table.row()
        .cell(row.name)
        .cell(row.mean_improvement_pct, 1)
        .cell(static_cast<double>(row.probe_bytes) / 1e6, 1)
        .cell(row.races_run)
        .cell(row.races_skipped)
        .cell(row.load_skew, 2)
        .cell(row.failed_transfers);
  }
  std::printf("%s", table.render().c_str());

  // --- Gates ---------------------------------------------------------------
  const double probe_ratio =
      r_always.probe_bytes > 0
          ? static_cast<double>(r_stale.probe_bytes) /
                static_cast<double>(r_always.probe_bytes)
          : 1.0;
  const double improvement_retention =
      r_always.mean_improvement_pct > 0.0
          ? r_stale.mean_improvement_pct / r_always.mean_improvement_pct
          : 1.0;
  check(probe_ratio <= 0.5,
        "race-on-staleness probe overhead ratio " +
            std::to_string(probe_ratio) +
            " > 0.5 of always-race (races not being skipped)");
  check(improvement_retention >= 0.8,
        "race-on-staleness retains only " +
            std::to_string(improvement_retention) +
            " of always-race improvement (< 0.8)");
  check(r_stale.races_skipped > 0,
        "race-on-staleness skipped no races at all");
  check(r_hybrid.load_skew < r_fullset.load_skew,
        "hybrid load skew " + std::to_string(r_hybrid.load_skew) +
            " not below full-set racing's " +
            std::to_string(r_fullset.load_skew) +
            " (utilization cap not spreading load)");
  for (const PolicyRow& row : rows) {
    check(row.failed_transfers == 0,
          row.name + ": " + std::to_string(row.failed_transfers) +
              " failed transfers");
  }

  // --- BENCH_policy.json ---------------------------------------------------
  std::string json;
  char buf[512];
  json += "{\n  \"bench\": \"ablation_policy_matrix\",\n";
  std::snprintf(buf, sizeof buf,
                "  \"seed\": %llu,\n  \"set_size\": %zu,\n"
                "  \"transfers_per_cell\": %zu,\n",
                static_cast<unsigned long long>(opts.seed), set_size,
                base.transfers);
  json += buf;
  json += "  \"policies\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PolicyRow& row = rows[i];
    std::snprintf(
        buf, sizeof buf,
        "    {\"policy\": \"%s\", \"mean_improvement_pct\": %.6g,\n"
        "     \"probe_bytes\": %llu, \"races_run\": %llu,\n"
        "     \"races_skipped\": %llu, \"load_skew\": %.6g,\n"
        "     \"failed_transfers\": %zu}%s\n",
        row.name.c_str(), row.mean_improvement_pct,
        static_cast<unsigned long long>(row.probe_bytes),
        static_cast<unsigned long long>(row.races_run),
        static_cast<unsigned long long>(row.races_skipped), row.load_skew,
        row.failed_transfers, i + 1 < rows.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  std::snprintf(
      buf, sizeof buf,
      "  \"gates\": {\n"
      "    \"probe_overhead_ratio\": {\"measured\": %.6g, \"max\": 0.5},\n"
      "    \"improvement_retention\": {\"measured\": %.6g, \"min\": 0.8},\n"
      "    \"hybrid_skew_below_fullset\": {\"hybrid\": %.6g, "
      "\"fullset\": %.6g}\n  }\n}\n",
      probe_ratio, improvement_retention, r_hybrid.load_skew,
      r_fullset.load_skew);
  json += buf;

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path.c_str());
    ++g_failures;
  }

  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::puts("ablation_policy_matrix OK");
  return 0;
}
