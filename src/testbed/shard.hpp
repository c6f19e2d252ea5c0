// Shard execution layer: planet-scale runs as a fleet of independent
// simulations.
//
// A shard is a slice of a run — a group of client sessions — that shares
// no state with any other shard: each session inside it builds its own
// sim::Simulator, flow::FlowSimulator and obs registry (via ClientWorld),
// and the shard itself keeps a private registry for its `testbed.shard.*`
// series. Shards therefore execute on any number of worker threads
// (parallel_for) with bitwise-identical results: every stochastic stream
// is derived from stable identities (shard id, client name) through
// util::child_stream, never from execution order, and the cross-shard
// merge — records, obs::Snapshot::merge, scheduler-work counters — runs
// serially in shard-index order after the fork-join barrier.
//
// This is the PR-1 observation (disjoint bottleneck components never
// interact) promoted from the max-min solver to the whole testbed: the
// partition unit is the connected component of the scenario graph, which
// in this testbed is the per-client world (mirrored pair), grouped
// `clients_per_shard` at a time to amortize per-task overhead.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "testbed/policy.hpp"
#include "testbed/records.hpp"
#include "testbed/scenario.hpp"
#include "testbed/session.hpp"
#include "testbed/sites.hpp"

namespace idr::testbed {

/// One independently executable slice of a run. `shard_id` is the stable
/// identity the shard's RNG streams are keyed by (fleet planners derive
/// session seeds as child_stream(child_stream(root, shard_id), ...)); it
/// also fixes the shard's position in the deterministic merge order.
struct ShardSpec {
  std::uint64_t shard_id = 0;
  std::vector<SessionSpec> sessions;
};

/// Order-sensitive aggregate of a shard's (or run's) transfer records:
/// enough for a planet-scale driver to drop the per-transfer observations
/// after each shard completes and still gate on outcome totals and
/// bitwise determinism across thread counts.
struct ShardSummary {
  std::size_t transfers = 0;
  std::size_t ok = 0;
  std::size_t indirect = 0;
  std::size_t failed = 0;
  /// Sum of improvement_steady_pct over ok transfers (mean = sum / ok).
  double improvement_sum = 0.0;
  /// FNV-1a over every transfer's outcome fields, in record order. Equal
  /// digests across IDR_THREADS settings certify bitwise-identical runs.
  std::uint64_t digest = 0xcbf29ce484222325ULL;

  void absorb(const SessionResult& session);
  /// Folds `other` in as the next block of records (index order matters:
  /// digests chain, counters add).
  void combine(const ShardSummary& other);
};

/// Everything one shard produced.
struct ShardResult {
  std::uint64_t shard_id = 0;
  std::vector<SessionOutput> sessions;  // in ShardSpec::sessions order
  ShardSummary summary;
  /// Event-core work summed over the shard's sessions.
  SchedulerWork work;
  /// The shard's sessions' registries merged (in session order), plus the
  /// shard-scoped `testbed.shard.*` series. Timing never enters the
  /// snapshot — it must stay bitwise thread-count-independent.
  obs::Snapshot metrics;
  /// Wall-clock the worker spent inside this shard (load/imbalance
  /// accounting; nondeterministic by nature, kept out of `metrics`).
  double busy_seconds = 0.0;
};

/// Merged view of a sharded run.
struct ShardRunResult {
  /// Per-session outputs concatenated in (shard index, session) order —
  /// exactly the order a single-threaded loop over the specs would
  /// produce. Empty for sessions a per-shard reducer cleared.
  std::vector<SessionOutput> outputs;
  ShardSummary summary;
  SchedulerWork work;
  obs::Snapshot metrics;
  std::size_t shard_count = 0;
  double busy_seconds = 0.0;  // sum of per-shard worker time
  double wall_seconds = 0.0;  // fork-join wall clock of the whole run
};

/// Runs one shard to completion on the calling thread.
ShardResult run_shard(const ShardSpec& spec);

/// Runs every shard across `threads` workers (resolve_threads rules) and
/// merges the results in shard-index order. `per_shard`, when set, runs
/// on the worker thread right after its shard completes — a planet-scale
/// driver uses it to fold observations down and release their memory
/// before the join; it must only touch the ShardResult it is handed.
ShardRunResult run_sharded(
    std::vector<ShardSpec> shards, unsigned threads,
    const std::function<void(ShardResult&)>& per_shard = nullptr);

/// Groups an already-built session list into shards of
/// `sessions_per_shard` consecutive sessions (shard_id = ordinal) — the
/// component partition for drivers that already enumerate independent
/// sessions (Section 2/4 style task lists).
std::vector<ShardSpec> plan_shards(std::vector<SessionSpec> sessions,
                                   std::size_t sessions_per_shard);

// --- Planet-scale fleets ----------------------------------------------------

/// A population far beyond PlanetLab: `clients` client sites and
/// `relay_pool` relay sites synthesized from the calibrated Table IV/V
/// profiles by seeded perturbation. Site `Foo#k` inherits profile `Foo`
/// with its bandwidth, variability and relay-goodness parameters drawn
/// from child_stream(seed, fnv1a("Foo#k")) — stable per name, so a fleet
/// is fully determined by (seed, counts) and any subset of it can be
/// re-generated independently.
struct FleetSpec {
  std::uint64_t seed = 2026;
  std::size_t clients = 200;
  std::size_t relay_pool = 200;
  /// Candidate relays per client, sampled from the pool per client name.
  std::size_t relays_per_client = 3;
  /// Relays raced per transfer (the policy's subset size).
  std::size_t probe_set = 2;
  std::size_t transfers_per_client = 64;
  /// Paper cadence (one transfer per 6 minutes). Long enough that even a
  /// degraded direct path finishes before the next transfer starts —
  /// shorter cadences make transfers overlap on the shared access link
  /// and measure self-induced queueing instead of path quality.
  util::Duration interval = util::minutes(6);
  std::size_t clients_per_shard = 4;
  std::string server = "eBay";
  ScenarioKnobs knobs{};
  /// Selection policy of every client (default: the uniform random
  /// subset); subset_size is replaced by min(probe_set,
  /// relays_per_client). Each session builds its own policy instance, so
  /// per-shard estimate state never crosses shard boundaries.
  PolicyParams policy;
};

class SyntheticFleet {
 public:
  explicit SyntheticFleet(const FleetSpec& spec);

  const std::vector<SiteProfile>& clients() const { return clients_; }
  const std::vector<SiteProfile>& relays() const { return relays_; }
  const SiteProfile& server() const { return server_; }

 private:
  std::deque<std::string> names_;  // stable storage behind profile views
  std::vector<SiteProfile> clients_;
  std::vector<SiteProfile> relays_;
  SiteProfile server_;
};

/// Builds the shard plan for a fleet: clients in name order, grouped
/// `clients_per_shard` at a time, one session per client racing a random
/// `probe_set`-subset of its `relays_per_client` candidates. Every seed
/// derives from (spec.seed, shard id, client name) via child_stream.
std::vector<ShardSpec> plan_fleet_shards(const FleetSpec& spec,
                                         const SyntheticFleet& fleet);

}  // namespace idr::testbed
