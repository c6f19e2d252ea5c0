// Section 2/3 experiment driver: each client runs one session per
// candidate relay with the paper's static-relay methodology (probe race
// between the direct path and that one relay, every `interval`, N times).
// The resulting sessions feed Figs. 1-5 and Tables I-II. Sessions run on
// the shard runner (run_sharded), one session per shard.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "testbed/records.hpp"
#include "testbed/scenario.hpp"
#include "testbed/shard.hpp"

namespace idr::testbed {

/// How each client's static relay sessions are chosen.
enum class RelayAssignment {
  /// One session per client via a relay "determined a priori to be a good
  /// one, though not necessarily the best" (paper Section 2.2) — ranked
  /// by expected leg bandwidth, taking `good_rank`-th best. This is the
  /// dataset behind Figs. 1-4 and Table I.
  AprioriGood,
  /// One session per (client, sampled relay) pair — the dataset behind
  /// the utilization analyses (Table II, Fig. 5).
  RotateSampled,
};

struct Section2Config {
  std::uint64_t seed = 2007;
  std::string server = "eBay";
  /// Clients to run; empty = all 22 of Table IV.
  std::vector<std::string> clients;
  RelayAssignment assignment = RelayAssignment::RotateSampled;
  /// For AprioriGood: rank of the chosen relay by expected leg bandwidth
  /// (0 = the best; the paper's wording suggests "good, not necessarily
  /// best", so a small nonzero rank is the default).
  std::size_t good_rank = 10;
  /// For RotateSampled: relays (sessions) per client, sampled
  /// deterministically from the 21 of Table V; 0 = all of them.
  std::size_t relays_per_client = 6;
  /// Paper defaults: 100 transfers, one every 6 minutes (10 hours).
  std::size_t transfers_per_session = 100;
  util::Duration interval = util::minutes(6);
  ScenarioKnobs knobs{};
  /// Worker threads; 0 = hardware concurrency. Results are independent of
  /// this value.
  unsigned threads = 0;
  /// Optional span sink shared by every session (the Tracer is
  /// thread-safe); each session traces on its own track (task index).
  obs::Tracer* tracer = nullptr;
  /// Forwarded into every SessionSpec: per-race flight records (the ring
  /// is mutex-guarded, so shard workers may share it) and the
  /// virtual-time sampling that fills each result's TimeSeries.
  obs::FlightRecorder* flights = nullptr;
  util::Duration sample_period = 0.0;
  std::size_t sample_capacity = 256;
};

struct Section2Result {
  std::vector<SessionResult> sessions;  // in task order
  /// Run-level totals from the shard runner: every session's registry
  /// merged in task order (plus the `testbed.shard.*` series), the summed
  /// event-core work, and the transfer digest.
  obs::Snapshot metrics;
  SchedulerWork work;
  ShardSummary summary;
};

Section2Result run_section2(const Section2Config& config);

}  // namespace idr::testbed
