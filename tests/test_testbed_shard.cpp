// Shard execution layer: the guarantees the planet-scale drivers rely on.
//
// The contract under test: a sharded run is a pure reshuffling of the
// serial per-session loop — same per-transfer records, same merged
// metrics, same digests — at every thread count, because all randomness
// keys off stable identities and all order-sensitive merging happens
// serially in shard-index order.
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "testbed/shard.hpp"

namespace idr::testbed {
namespace {

FleetSpec small_fleet() {
  FleetSpec spec;
  spec.seed = 77;
  spec.clients = 8;
  spec.relay_pool = 10;
  spec.relays_per_client = 3;
  spec.probe_set = 2;
  spec.transfers_per_client = 6;
  spec.clients_per_shard = 3;  // shards of 3, 3, 2
  return spec;
}

TEST(ShardSummary, AbsorbAndCombineChainDeterministically) {
  SessionResult session;
  session.client = "Duke";
  session.session_relay = "CMU";
  session.transfers.resize(2);
  session.transfers[0].ok = true;
  session.transfers[0].chose_indirect = true;
  session.transfers[0].improvement_steady_pct = 25.0;
  session.transfers[1].ok = false;

  ShardSummary a;
  a.absorb(session);
  EXPECT_EQ(a.transfers, 2u);
  EXPECT_EQ(a.ok, 1u);
  EXPECT_EQ(a.failed, 1u);
  EXPECT_EQ(a.indirect, 1u);
  EXPECT_DOUBLE_EQ(a.improvement_sum, 25.0);

  ShardSummary b;
  b.absorb(session);
  EXPECT_EQ(a.digest, b.digest);

  // combine() chains digests in order: (a then b) != (b then a) unless
  // symmetric, but equal sequences always agree.
  ShardSummary left = a, right = b;
  left.combine(b);
  right.combine(a);
  EXPECT_EQ(left.digest, right.digest);  // same inputs, same order
  EXPECT_EQ(left.transfers, 4u);
  EXPECT_NE(left.digest, a.digest);
}

TEST(PlanShards, GroupsConsecutiveSessionsWithOrdinalIds) {
  std::vector<SessionSpec> sessions(7);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    sessions[i].client_seed = 1000 + i;
  }
  const std::vector<ShardSpec> shards = plan_shards(std::move(sessions), 3);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].shard_id, 0u);
  EXPECT_EQ(shards[1].shard_id, 1u);
  EXPECT_EQ(shards[2].shard_id, 2u);
  EXPECT_EQ(shards[0].sessions.size(), 3u);
  EXPECT_EQ(shards[1].sessions.size(), 3u);
  EXPECT_EQ(shards[2].sessions.size(), 1u);
  // Session order is preserved across the grouping.
  EXPECT_EQ(shards[0].sessions[0].client_seed, 1000u);
  EXPECT_EQ(shards[1].sessions[0].client_seed, 1003u);
  EXPECT_EQ(shards[2].sessions[0].client_seed, 1006u);
}

TEST(SyntheticFleet, PureFunctionOfSpec) {
  const FleetSpec spec = small_fleet();
  const SyntheticFleet f1(spec);
  const SyntheticFleet f2(spec);
  ASSERT_EQ(f1.clients().size(), spec.clients);
  ASSERT_EQ(f1.relays().size(), spec.relay_pool);
  for (std::size_t i = 0; i < f1.clients().size(); ++i) {
    EXPECT_EQ(f1.clients()[i].name, f2.clients()[i].name);
    EXPECT_DOUBLE_EQ(f1.clients()[i].inbound_mbps,
                     f2.clients()[i].inbound_mbps);
    EXPECT_DOUBLE_EQ(f1.clients()[i].variability_cv,
                     f2.clients()[i].variability_cv);
    EXPECT_EQ(f1.clients()[i].jumpy, f2.clients()[i].jumpy);
  }
  // A different seed perturbs differently (same names, distinct draws).
  FleetSpec other = spec;
  other.seed = 78;
  const SyntheticFleet f3(other);
  bool any_diff = false;
  for (std::size_t i = 0; i < f1.clients().size(); ++i) {
    EXPECT_EQ(f1.clients()[i].name, f3.clients()[i].name);
    any_diff |= f1.clients()[i].inbound_mbps != f3.clients()[i].inbound_mbps;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RunSharded, MatchesSerialSessionLoop) {
  const FleetSpec spec = small_fleet();
  const SyntheticFleet fleet(spec);
  std::vector<ShardSpec> shards = plan_fleet_shards(spec, fleet);
  ASSERT_EQ(shards.size(), 3u);

  // The reference: the plain serial loop a non-sharded driver would run,
  // absorbed in the same (shard, session) order.
  ShardSummary reference;
  std::vector<std::string> reference_clients;
  for (const ShardSpec& shard : shards) {
    ShardSummary shard_summary;
    for (const SessionSpec& session : shard.sessions) {
      const SessionOutput out = run_session(session);
      shard_summary.absorb(out.result);
      reference_clients.push_back(out.result.client);
    }
    reference.combine(shard_summary);
  }

  const ShardRunResult run = run_sharded(std::move(shards), 1);
  EXPECT_EQ(run.shard_count, 3u);
  EXPECT_EQ(run.summary.digest, reference.digest);
  EXPECT_EQ(run.summary.transfers, spec.clients * spec.transfers_per_client);
  EXPECT_EQ(run.summary.ok, reference.ok);
  ASSERT_EQ(run.outputs.size(), reference_clients.size());
  for (std::size_t i = 0; i < run.outputs.size(); ++i) {
    EXPECT_EQ(run.outputs[i].result.client, reference_clients[i]);
  }
}

TEST(RunSharded, BitwiseIdenticalAcrossThreadCounts) {
  const FleetSpec spec = small_fleet();
  const SyntheticFleet fleet(spec);

  const ShardRunResult base =
      run_sharded(plan_fleet_shards(spec, fleet), 1);
  const std::string base_json = base.metrics.to_json();
  for (unsigned threads : {2u, 4u}) {
    const ShardRunResult run =
        run_sharded(plan_fleet_shards(spec, fleet), threads);
    EXPECT_EQ(run.summary.digest, base.summary.digest)
        << "digest diverged at " << threads << " threads";
    EXPECT_EQ(run.metrics.to_json(), base_json)
        << "metrics diverged at " << threads << " threads";
    EXPECT_EQ(run.work.executed, base.work.executed);
    EXPECT_EQ(run.work.reschedules, base.work.reschedules);
    EXPECT_EQ(run.work.cancellations, base.work.cancellations);
    ASSERT_EQ(run.outputs.size(), base.outputs.size());
    for (std::size_t i = 0; i < run.outputs.size(); ++i) {
      EXPECT_EQ(run.outputs[i].result.client, base.outputs[i].result.client);
    }
  }
}

TEST(RunSharded, PassivePoliciesBitwiseIdenticalAcrossThreadCounts) {
  // The estimate plane is per-client state: each session owns its own
  // RelayStatsTable, so pinning decisions made from passive estimates
  // must not leak across shards or depend on execution interleaving.
  // Run the two estimate-driven policies across thread counts and demand
  // the same bitwise digests and merged metrics as the 1-thread run.
  for (const PolicyKind kind :
       {PolicyKind::RaceOnStaleness, PolicyKind::HybridPassive}) {
    FleetSpec spec = small_fleet();
    PolicyParams params;
    params.kind = kind;
    // 2.5x the 6-minute cadence: each race win pins the next couple of
    // transfers, then goes stale — both regimes exercised per session.
    params.staleness_threshold = 900.0;
    params.utilization_cap = 0.4;
    spec.policy = params;

    const SyntheticFleet fleet(spec);
    const ShardRunResult base =
        run_sharded(plan_fleet_shards(spec, fleet), 1);
    EXPECT_EQ(base.summary.transfers,
              spec.clients * spec.transfers_per_client);
    EXPECT_EQ(base.summary.failed, 0u) << policy_kind_name(kind);
    if (kind == PolicyKind::RaceOnStaleness) {
      // The fleet actually skipped races somewhere, or the digest check
      // proves nothing new about the pinned path.
      const obs::MetricValue* skipped =
          base.metrics.find("sim.select.races_skipped");
      ASSERT_NE(skipped, nullptr);
      EXPECT_GT(skipped->count, 0u);
    }
    const std::string base_json = base.metrics.to_json();
    for (unsigned threads : {2u, 4u}) {
      const ShardRunResult run =
          run_sharded(plan_fleet_shards(spec, fleet), threads);
      EXPECT_EQ(run.summary.digest, base.summary.digest)
          << policy_kind_name(kind) << " digest diverged at " << threads
          << " threads";
      EXPECT_EQ(run.metrics.to_json(), base_json)
          << policy_kind_name(kind) << " metrics diverged at " << threads
          << " threads";
    }
  }
}

TEST(RunSharded, PolicyChangesTheRunDefaultDoesNot) {
  // The default FleetSpec.policy (uniform) and an explicit
  // AlwaysRace-over-uniform must be behaviorally identical (same digest):
  // the hook's default preserves the pre-policy runs bit for bit. A
  // pinning policy, by contrast, must actually change the transfer
  // stream.
  const FleetSpec plain = small_fleet();
  EXPECT_EQ(plain.policy.kind, PolicyKind::Uniform);
  FleetSpec always = small_fleet();
  always.policy.kind = PolicyKind::AlwaysRace;
  FleetSpec stale = small_fleet();
  stale.policy.kind = PolicyKind::RaceOnStaleness;
  stale.policy.staleness_threshold = 900.0;

  const SyntheticFleet fleet(plain);
  const ShardRunResult plain_run =
      run_sharded(plan_fleet_shards(plain, fleet), 2);
  const ShardRunResult always_run =
      run_sharded(plan_fleet_shards(always, fleet), 2);
  const ShardRunResult stale_run =
      run_sharded(plan_fleet_shards(stale, fleet), 2);
  EXPECT_EQ(always_run.summary.digest, plain_run.summary.digest);
  EXPECT_NE(stale_run.summary.digest, plain_run.summary.digest);
}

TEST(RunSharded, ShardSeriesAndWorkTotals) {
  const FleetSpec spec = small_fleet();
  const SyntheticFleet fleet(spec);
  const ShardRunResult run =
      run_sharded(plan_fleet_shards(spec, fleet), 2);

  const obs::MetricValue* shards_run =
      run.metrics.find("testbed.shard.shards_run");
  const obs::MetricValue* sessions = run.metrics.find("testbed.shard.sessions");
  const obs::MetricValue* transfers =
      run.metrics.find("testbed.shard.transfers");
  ASSERT_NE(shards_run, nullptr);
  ASSERT_NE(sessions, nullptr);
  ASSERT_NE(transfers, nullptr);
  EXPECT_EQ(shards_run->count, run.shard_count);
  EXPECT_EQ(sessions->count, spec.clients);
  EXPECT_EQ(transfers->count, spec.clients * spec.transfers_per_client);

  // The merged work tally is exactly the sum over the retained outputs.
  SchedulerWork sum;
  for (const SessionOutput& out : run.outputs) {
    sum += out.result.sim_work;
  }
  EXPECT_EQ(run.work.executed, sum.executed);
  EXPECT_EQ(run.work.cancellations, sum.cancellations);
  EXPECT_EQ(run.work.reschedules, sum.reschedules);
  // And the event-core series in the snapshot agrees with it.
  const obs::MetricValue* executed =
      run.metrics.find("sim.core.events_executed");
  ASSERT_NE(executed, nullptr);
  EXPECT_EQ(executed->count, run.work.executed);
}

TEST(RunSharded, PerShardReducerShedsOutputsNotResults) {
  const FleetSpec spec = small_fleet();
  const SyntheticFleet fleet(spec);

  const ShardRunResult keep = run_sharded(plan_fleet_shards(spec, fleet), 2);
  const ShardRunResult shed = run_sharded(
      plan_fleet_shards(spec, fleet), 2, [](ShardResult& shard) {
        shard.sessions.clear();
      });
  EXPECT_TRUE(shed.outputs.empty());
  EXPECT_EQ(shed.summary.digest, keep.summary.digest);
  EXPECT_EQ(shed.summary.transfers, keep.summary.transfers);
  EXPECT_EQ(shed.metrics.to_json(), keep.metrics.to_json());
  EXPECT_EQ(shed.work.executed, keep.work.executed);
}

}  // namespace
}  // namespace idr::testbed
