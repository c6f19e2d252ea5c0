// Section 4 experiment driver: the selecting client picks the best of a
// random subset of n relays per transfer (probing all of them against the
// direct path). Sweeping n produces Fig. 6; the per-relay utilization and
// improvement history produces Table III. Cells run on the shard runner
// (run_sharded), one session per shard.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/relay_stats.hpp"
#include "obs/trace.hpp"
#include "testbed/policy.hpp"
#include "testbed/records.hpp"
#include "testbed/scenario.hpp"
#include "testbed/shard.hpp"

namespace idr::testbed {

struct Section4Config {
  std::uint64_t seed = 2007;
  std::string server = "eBay";
  /// The paper's Section 4 clients.
  std::vector<std::string> clients = {"Duke", "Italy", "Sweden"};
  /// Direct-path mean overrides pinning the clients into the Low/Medium
  /// bands (Duke is a US site whose profile is relay-grade otherwise).
  /// Parallel to `clients`; 0 keeps the profile value.
  std::vector<double> client_inbound_mbps = {2.0, 1.2, 1.4};
  /// Random-set sizes to sweep (paper: 1..35).
  std::vector<std::size_t> set_sizes = {1, 2, 3, 5, 7, 10, 15, 20, 25, 30, 35};
  /// Relays in the full set (Tables IV+V minus the clients; paper: 35).
  std::size_t relay_count = 35;
  /// Paper defaults: 720 transfers, one every 30 seconds (6 hours).
  std::size_t transfers = 720;
  util::Duration interval = util::seconds(30);
  /// Selection policy of every cell; the swept set size replaces
  /// `policy.subset_size` per cell. The default is the paper's uniform
  /// random set; Weighted is the utilization-weighted enhancement the
  /// paper proposes (ablation A3).
  PolicyParams policy;
  ScenarioKnobs knobs{};
  unsigned threads = 0;
  /// Optional span sink shared by every cell (the Tracer is thread-safe);
  /// each cell traces on its own track (task index).
  obs::Tracer* tracer = nullptr;
};

/// Result of one (client, set size) run.
struct Section4Cell {
  std::string client;
  std::size_t set_size = 0;
  /// Average improvement over ALL transfers (direct selections count at
  /// their ~0 improvement), matching Fig. 6's y-axis.
  double avg_improvement_pct = 0.0;
  double utilization = 0.0;
  SessionResult session;
  core::RelayStatsTable relay_stats;
};

struct Section4Result {
  std::vector<Section4Cell> cells;  // in task order
  /// Run-level totals from the shard runner, as in Section2Result.
  obs::Snapshot metrics;
  SchedulerWork work;
  ShardSummary summary;

  const Section4Cell& cell(const std::string& client,
                           std::size_t set_size) const;
};

Section4Result run_section4(const Section4Config& config);

/// The full relay roster a Section 4 client uses: the 21 US intermediates
/// (minus the client, if it is one of them) topped up with international
/// sites (minus the clients) to `count`.
std::vector<const SiteProfile*> section4_relays(
    const Section4Config& config, const std::string& client,
    std::size_t count);

}  // namespace idr::testbed
