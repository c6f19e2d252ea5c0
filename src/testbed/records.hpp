// Experiment data records and the aggregations behind the paper's tables
// and figures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace idr::testbed {

using util::Rate;
using util::TimePoint;

/// One experiment point: a selecting transfer and its concurrent plain
/// direct reference.
struct TransferObservation {
  std::string client;
  /// The session's static relay (Section 2) or empty (Section 4).
  std::string session_relay;
  TimePoint start_time = 0.0;
  bool ok = false;
  bool chose_indirect = false;
  std::string chosen_relay;  // empty when the direct path was selected
  Rate selected_rate = 0.0;  // bytes/s, probe overhead included
  /// Steady-phase rate of the selected path (remainder transfer only) —
  /// the Section 4 metric, free of n-way probe contention.
  Rate selected_steady_rate = 0.0;
  Rate direct_rate = 0.0;    // bytes/s, from the mirrored plain client
  double improvement_pct = 0.0;
  double improvement_steady_pct = 0.0;
  /// Fault accounting for this trial (all zero on fault-free runs):
  /// probe lanes that died, retry attempts beyond each phase's first try,
  /// and whether the transfer was salvaged over the direct path.
  std::size_t probe_failures = 0;
  std::size_t retries = 0;
  bool fell_back_direct = false;
  /// True when the probe race was skipped on a pinned relay (a
  /// race-skipping policy rode its cached estimate). Always false under
  /// the default always-race policies.
  bool race_skipped = false;
  /// Attempts rejected by relay admission control (503 shed) during this
  /// trial; a subset of the failures above in spirit but tallied apart —
  /// shed relays are alive, just full.
  std::size_t overload_rejections = 0;
};

/// Discrete-event scheduler work behind one session (both mirrored
/// worlds summed): events fired, per kind and in total, plus the timer
/// churn — in-place cancellations and reschedules — the run exerted on
/// the event core. Benchmark drivers print these next to their
/// figures/tables so a scheduler regression (e.g. churn reverting to
/// cancel + re-schedule pairs) is visible without a profiler.
using SchedulerWork = sim::Simulator::WorkCounters;

/// All transfers of one (client, relay-or-policy) session.
struct SessionResult {
  std::string client;
  std::string session_relay;  // empty for Section 4 sessions
  std::vector<TransferObservation> transfers;
  /// Direct-path throughput distribution over the session (drives the
  /// Low/Medium/High categorization and the variability classification).
  util::OnlineStats direct_rate_stats;
  /// Event-core work both worlds performed to produce this session.
  SchedulerWork sim_work;
  /// Both mirrors' `sim.*` registry series merged (flow core, transfer
  /// engine, probe races), plus `sim.core.*` event-core totals. Drivers
  /// merge these across sessions for the run-level exposition.
  obs::Snapshot metrics;
  /// Periodic Snapshots of the selecting world (virtual time), populated
  /// only when SessionSpec::sample_period > 0 — windowed rates come from
  /// diffing these.
  obs::TimeSeries series;
  /// Fault totals over the session: per-trial counters summed, plus the
  /// number of transfers the selecting world's fault plane killed or
  /// refused (includes cancelled probe losers the trials never report).
  std::size_t fault_probe_failures = 0;
  std::size_t fault_retries = 0;
  std::size_t fault_fallbacks = 0;
  std::size_t failed_transfers = 0;
  std::uint64_t faults_injected = 0;
  /// Overload-governance totals (zero unless relay admission control is
  /// enabled): attempts shed with 503 across the session's races, plus
  /// the selecting engine's shed/queued admission counters.
  std::size_t fault_overloads = 0;
  std::size_t transfers_shed = 0;
  std::size_t transfers_queued = 0;

  std::size_t indirect_count() const;
  /// Fraction of transfers routed through the indirect path.
  double utilization() const;
  core::ThroughputCategory category() const;
  core::VariabilityClass variability(
      double cv_threshold = core::kVariabilityCvThreshold) const;
};

// --- Aggregations ---------------------------------------------------------

/// Improvements (percent) of transfers where the indirect path was chosen
/// — the population of Fig. 1/2.
std::vector<double> indirect_improvements(
    const std::vector<SessionResult>& sessions);

/// (selected, direct) rate pairs of indirect-chosen transfers, optionally
/// filtered by a session predicate — the Table I input.
std::vector<std::pair<Rate, Rate>> indirect_rate_pairs(
    const std::vector<SessionResult>& sessions);

template <typename Predicate>
std::vector<std::pair<Rate, Rate>> indirect_rate_pairs_if(
    const std::vector<SessionResult>& sessions, Predicate keep_session) {
  std::vector<std::pair<Rate, Rate>> pairs;
  for (const SessionResult& s : sessions) {
    if (!keep_session(s)) continue;
    for (const TransferObservation& t : s.transfers) {
      if (t.ok && t.chose_indirect) {
        pairs.emplace_back(t.selected_rate, t.direct_rate);
      }
    }
  }
  return pairs;
}

/// Per-client top relays by per-session utilization (Table II rows).
struct RelayUtilizationEntry {
  std::string relay;
  double utilization = 0.0;  // fraction, 0..1
};
struct ClientTopRelays {
  std::string client;
  std::vector<RelayUtilizationEntry> top;  // descending utilization
};
std::vector<ClientTopRelays> top_relays_per_client(
    const std::vector<SessionResult>& sessions, std::size_t k);

/// Per-relay utilization aggregated over all clients (Fig. 5): the
/// average is total-chosen / total-possible; stdev and RMS are over the
/// per-session utilizations, as the paper's robustness measures.
struct RelayUtilizationSummary {
  std::string relay;
  double average = 0.0;
  double stdev = 0.0;
  double rms = 0.0;
  std::size_t sessions = 0;
};
std::vector<RelayUtilizationSummary> relay_utilization_summary(
    const std::vector<SessionResult>& sessions);

/// Mean utilization over all sessions (the paper's headline 45 %).
double overall_utilization(const std::vector<SessionResult>& sessions);

/// (direct-path throughput, improvement) points for Fig. 3's scatter.
struct ImprovementVsThroughputPoint {
  std::string client;
  std::string relay;
  double direct_mbps = 0.0;
  double improvement_pct = 0.0;
};
std::vector<ImprovementVsThroughputPoint> improvement_vs_throughput_points(
    const std::vector<SessionResult>& sessions);

/// (time, indirect throughput) samples for Fig. 4's time series.
struct IndirectThroughputSample {
  std::string client;
  TimePoint time = 0.0;
  double indirect_mbps = 0.0;
};
std::vector<IndirectThroughputSample> indirect_throughput_timeseries(
    const std::vector<SessionResult>& sessions);

}  // namespace idr::testbed
