// Simulated-stack fault injection: the TransferEngine fault plane, the
// hardened probe race (timeout, bounded retry, direct fallback), the
// client's failed-relay blacklisting, and the testbed's schedule replay.
#include <gtest/gtest.h>

#include <optional>

#include "core/client.hpp"
#include "core/probe_race.hpp"
#include "testbed/world.hpp"
#include "util/error.hpp"

namespace idr::core {
namespace {

using util::mbps;
using util::milliseconds;

// Same star world as test_core_probe_race: direct path server->gw->client
// plus two relays with controllable leg capacities.
struct FaultWorld {
  sim::Simulator sim;
  net::Topology topo;
  std::optional<flow::FlowSimulator> fsim;
  std::optional<overlay::WebServerModel> server;
  std::optional<overlay::TransferEngine> engine;
  net::NodeId server_node, gw, client;
  net::NodeId fast_relay, slow_relay;

  FaultWorld(util::Rate direct, util::Rate fast_leg, util::Rate slow_leg) {
    server_node = topo.add_node("server");
    gw = topo.add_node("gw");
    client = topo.add_node("client");
    fast_relay = topo.add_node("fast");
    slow_relay = topo.add_node("slow");
    topo.add_link(server_node, gw, direct, milliseconds(90));
    topo.add_link(gw, client, mbps(50), milliseconds(5));
    topo.add_link(server_node, fast_relay, mbps(40), milliseconds(20));
    topo.add_link(fast_relay, gw, fast_leg, milliseconds(85));
    topo.add_link(server_node, slow_relay, mbps(40), milliseconds(25));
    topo.add_link(slow_relay, gw, slow_leg, milliseconds(95));
    fsim.emplace(sim, topo, util::Rng(9));
    server.emplace(server_node, "server");
    server->add_resource("/f", 2.0e6);
    engine.emplace(*fsim);
  }

  RaceSpec spec(std::vector<net::NodeId> candidates) {
    RaceSpec s;
    s.client = client;
    s.server = &*server;
    s.resource = "/f";
    s.candidate_relays = std::move(candidates);
    return s;
  }

  void relay_down_window(net::NodeId relay, double start, double end) {
    sim.schedule_at(start,
                    [this, relay] { engine->set_relay_down(relay, true); });
    sim.schedule_at(end,
                    [this, relay] { engine->set_relay_down(relay, false); });
  }

  void direct_down_window(double start, double end) {
    sim.schedule_at(start, [this] { engine->set_direct_down(true); });
    sim.schedule_at(end, [this] { engine->set_direct_down(false); });
  }
};

// --- TransferEngine fault plane -------------------------------------------

TEST(FaultPlane, RelayDownAbortsInFlightAndRefusesNew) {
  FaultWorld w(mbps(0.8), mbps(8.0), mbps(2.0));
  std::optional<overlay::TransferResult> killed;
  overlay::TransferRequest req;
  req.client = w.client;
  req.server = &*w.server;
  req.resource = "/f";
  req.relay = w.fast_relay;
  w.engine->begin(req, [&](const overlay::TransferResult& r) { killed = r; });
  w.sim.schedule_at(0.5,
                    [&] { w.engine->set_relay_down(w.fast_relay, true); });
  w.sim.run();
  ASSERT_TRUE(killed);
  EXPECT_FALSE(killed->ok);
  EXPECT_NE(killed->error.find("relay down"), std::string::npos);
  EXPECT_EQ(w.engine->in_flight(), 0u);
  EXPECT_EQ(w.fsim->active_flows(), 0u);

  // While down, new transfers via the relay are refused on arrival.
  std::optional<overlay::TransferResult> refused;
  w.engine->begin(req,
                  [&](const overlay::TransferResult& r) { refused = r; });
  w.sim.run();
  ASSERT_TRUE(refused);
  EXPECT_FALSE(refused->ok);
  EXPECT_EQ(w.engine->faults_injected(), 2u);

  // Restart: the same request succeeds again.
  w.engine->set_relay_down(w.fast_relay, false);
  std::optional<overlay::TransferResult> after;
  w.engine->begin(req, [&](const overlay::TransferResult& r) { after = r; });
  w.sim.run();
  ASSERT_TRUE(after);
  EXPECT_TRUE(after->ok);
}

TEST(FaultPlane, ResetKillsInFlightButAllowsReconnect) {
  FaultWorld w(mbps(0.8), mbps(8.0), mbps(2.0));
  std::optional<overlay::TransferResult> first;
  overlay::TransferRequest req;
  req.client = w.client;
  req.server = &*w.server;
  req.resource = "/f";
  w.engine->begin(req, [&](const overlay::TransferResult& r) { first = r; });
  w.sim.schedule_at(1.0,
                    [&] { w.engine->inject_reset(net::kInvalidNode); });
  w.sim.run();
  ASSERT_TRUE(first);
  EXPECT_FALSE(first->ok);
  EXPECT_NE(first->error.find("reset"), std::string::npos);

  // A reset opens no down window: the retry connects fine.
  std::optional<overlay::TransferResult> second;
  w.engine->begin(req,
                  [&](const overlay::TransferResult& r) { second = r; });
  w.sim.run();
  ASSERT_TRUE(second);
  EXPECT_TRUE(second->ok);
}

TEST(FaultPlane, TailPhaseTransfersSurviveFaults) {
  // A transfer whose byte stream has fully drained (delivery tail) is
  // past the point a reset can reach; it must complete.
  FaultWorld w(mbps(8.0), mbps(1.0), mbps(1.0));
  std::optional<overlay::TransferResult> result;
  overlay::TransferRequest req;
  req.client = w.client;
  req.server = &*w.server;
  req.resource = "/f";
  w.engine->begin(req, [&](const overlay::TransferResult& r) { result = r; });
  // Drive the sim until the flow finishes, then reset during the tail.
  while (w.fsim->active_flows() == 0) w.sim.step();
  while (w.fsim->active_flows() > 0) w.sim.step();
  w.engine->inject_reset(net::kInvalidNode);
  w.sim.run();
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->ok);
}

// --- Hardened probe race ---------------------------------------------------

TEST(FaultRace, DeadRelayLaneLosesRaceCleanly) {
  FaultWorld w(mbps(0.8), mbps(8.0), mbps(2.0));
  w.engine->set_relay_down(w.fast_relay, true);
  std::optional<RaceOutcome> outcome;
  start_probe_race(*w.engine, w.spec({w.fast_relay, w.slow_relay}),
                   [&](const RaceOutcome& o) { outcome = o; });
  w.sim.run();
  ASSERT_TRUE(outcome && outcome->ok);
  EXPECT_TRUE(outcome->chose_indirect);
  EXPECT_EQ(outcome->relay, w.slow_relay);
  EXPECT_EQ(outcome->probe_failures, 1u);
  ASSERT_EQ(outcome->failed_relays.size(), 1u);
  EXPECT_EQ(outcome->failed_relays[0], w.fast_relay);
  EXPECT_FALSE(outcome->fell_back_direct);
}

TEST(FaultRace, RemainderFailureRetriesThenFallsBackDirect) {
  // Learn the clean race's timeline first: identical world seed, so the
  // faulted run matches it event-for-event up to the injected crash.
  double probe_end = 0.0, total_end = 0.0;
  {
    FaultWorld clean(mbps(0.8), mbps(8.0), mbps(2.0));
    std::optional<RaceOutcome> outcome;
    start_probe_race(*clean.engine, clean.spec({clean.fast_relay}),
                     [&](const RaceOutcome& o) { outcome = o; });
    clean.sim.run();
    ASSERT_TRUE(outcome && outcome->ok && outcome->chose_indirect);
    probe_end = outcome->probe_elapsed;
    total_end = outcome->total_elapsed;
    ASSERT_LT(probe_end, total_end);
  }

  FaultWorld w(mbps(0.8), mbps(8.0), mbps(2.0));
  // The fast relay wins the probe, then dies mid-remainder; the retry
  // hits the still-down relay, and the race degrades to the direct path
  // instead of failing the transfer.
  const double crash = 0.5 * (probe_end + total_end);
  w.relay_down_window(w.fast_relay, crash, crash + 120.0);
  std::optional<RaceOutcome> outcome;
  start_probe_race(*w.engine, w.spec({w.fast_relay}),
                   [&](const RaceOutcome& o) { outcome = o; });
  w.sim.run();
  ASSERT_TRUE(outcome && outcome->ok);
  EXPECT_TRUE(outcome->chose_indirect);  // the race's selection stands...
  EXPECT_EQ(outcome->relay, w.fast_relay);
  EXPECT_TRUE(outcome->fell_back_direct);  // ...but the bytes came direct
  EXPECT_GE(outcome->retries, 1u);
  ASSERT_EQ(outcome->failed_relays.size(), 1u);
  EXPECT_EQ(outcome->failed_relays[0], w.fast_relay);
  EXPECT_EQ(outcome->total_bytes, 2.0e6);
}

TEST(FaultRace, ProbeTimeoutCancelsStuckLanesAndFallsBack) {
  // Direct refused at launch (outage window), the only candidate crawls at
  // a rate that cannot deliver the probe before the timeout. The timeout
  // declares the race lost; by then the direct outage is over, so the
  // fallback salvages the file.
  FaultWorld w(mbps(0.8), mbps(8.0), mbps(0.05));
  w.direct_down_window(0.0, 1.0);
  RaceSpec spec = w.spec({w.slow_relay});
  spec.probe_timeout = 2.0;
  std::optional<RaceOutcome> outcome;
  start_probe_race(*w.engine, spec,
                   [&](const RaceOutcome& o) { outcome = o; });
  w.sim.run();
  ASSERT_TRUE(outcome && outcome->ok);
  EXPECT_FALSE(outcome->chose_indirect);
  EXPECT_TRUE(outcome->fell_back_direct);
  EXPECT_EQ(outcome->probe_failures, 2u);  // direct refused + relay timed out
  ASSERT_EQ(outcome->failed_relays.size(), 1u);
  EXPECT_EQ(outcome->failed_relays[0], w.slow_relay);
  EXPECT_EQ(w.engine->in_flight(), 0u);
  EXPECT_EQ(w.fsim->active_flows(), 0u);
}

TEST(FaultRace, PinnedRelayDownChargesThePinToTheRace) {
  // The pinned relay dies mid-transfer; the full race then runs over the
  // candidates. The client waited on the dead pin, so the transfer's
  // elapsed time (and its throughput) must cover the pin attempt, while
  // the probe phase is timed from the race's own launch.
  FaultWorld w(mbps(0.8), mbps(8.0), mbps(2.0));
  const double crash = 1.0;
  w.relay_down_window(w.fast_relay, crash, crash + 120.0);
  RaceSpec spec = w.spec({w.slow_relay});
  spec.pinned_relay = w.fast_relay;
  std::optional<RaceOutcome> outcome;
  double finished_at = 0.0;
  start_probe_race(*w.engine, spec, [&](const RaceOutcome& o) {
    outcome = o;
    finished_at = w.sim.now();
  });
  w.sim.run();
  ASSERT_TRUE(outcome && outcome->ok);
  EXPECT_FALSE(outcome->race_skipped);
  EXPECT_EQ(outcome->probe_failures, 0u);  // the pin is not a probe lane
  ASSERT_EQ(outcome->failed_relays.size(), 1u);
  EXPECT_EQ(outcome->failed_relays[0], w.fast_relay);
  EXPECT_DOUBLE_EQ(outcome->total_elapsed, finished_at);
  EXPECT_GT(outcome->total_elapsed, crash + outcome->probe_elapsed);
  EXPECT_DOUBLE_EQ(outcome->selected_throughput(), 2.0e6 / finished_at);
}

TEST(FaultRace, EverythingDeadYieldsCleanErrorAfterRetries) {
  FaultWorld w(mbps(0.8), mbps(8.0), mbps(2.0));
  w.engine->set_direct_down(true);
  w.engine->set_relay_down(w.fast_relay, true);
  w.engine->set_relay_down(w.slow_relay, true);
  std::optional<RaceOutcome> outcome;
  start_probe_race(*w.engine, w.spec({w.fast_relay, w.slow_relay}),
                   [&](const RaceOutcome& o) { outcome = o; });
  w.sim.run();
  ASSERT_TRUE(outcome);
  EXPECT_FALSE(outcome->ok);
  EXPECT_NE(outcome->error.find("direct fallback died"), std::string::npos);
  EXPECT_EQ(outcome->probe_failures, 3u);
  EXPECT_TRUE(outcome->fell_back_direct);
  EXPECT_EQ(outcome->retries, 1u);  // default policy: one extra attempt
  EXPECT_EQ(w.engine->in_flight(), 0u);
}

// --- Blacklisting ----------------------------------------------------------

TEST(Blacklist, PenaltyGrowsExponentiallyAndRecoveryClears) {
  RelayStatsTable table;
  table.add_relay(7, "r");
  table.note_failure(7, 100.0, 60.0, 3600.0);
  EXPECT_TRUE(table.blacklisted(7, 100.0));
  EXPECT_TRUE(table.blacklisted(7, 159.0));
  EXPECT_FALSE(table.blacklisted(7, 161.0));  // 60 s penalty expired

  // Second consecutive failure doubles the penalty (120 s from t=200).
  table.note_failure(7, 200.0, 60.0, 3600.0);
  EXPECT_TRUE(table.blacklisted(7, 319.0));
  EXPECT_FALSE(table.blacklisted(7, 321.0));

  // Growth is capped at max_penalty.
  for (int i = 0; i < 20; ++i) table.note_failure(7, 400.0, 60.0, 3600.0);
  EXPECT_TRUE(table.blacklisted(7, 400.0 + 3599.0));
  EXPECT_FALSE(table.blacklisted(7, 400.0 + 3601.0));
  EXPECT_EQ(table.record(7).failures, 22u);

  // Success resets both the run and the deadline.
  table.note_recovery(7);
  EXPECT_FALSE(table.blacklisted(7, 401.0));
  EXPECT_EQ(table.record(7).consecutive_failures, 0u);
  table.note_failure(7, 500.0, 60.0, 3600.0);
  EXPECT_FALSE(table.blacklisted(7, 561.0));  // back to the base penalty
}

TEST(Blacklist, ClientSkipsBlacklistedCandidates) {
  FaultWorld w(mbps(0.8), mbps(8.0), mbps(2.0));
  ClientConfig config;
  config.client_node = w.client;
  config.server = &*w.server;
  config.resource = "/f";
  config.blacklist_base_penalty = 1e6;  // effectively forever
  config.blacklist_max_penalty = 1e7;
  IndirectRoutingClient client(*w.engine, config,
                               std::make_unique<FullSetPolicy>(),
                               util::Rng(10));
  client.register_relay(w.fast_relay, "fast");
  client.register_relay(w.slow_relay, "slow");
  w.engine->set_relay_down(w.fast_relay, true);

  // Fetch 1: the fast relay's probe lane dies -> blacklist entry.
  std::optional<FetchRecord> first;
  client.fetch([&](const FetchRecord& r) { first = r; });
  w.sim.run();
  ASSERT_TRUE(first && first->outcome.ok);
  EXPECT_EQ(first->outcome.probe_failures, 1u);
  EXPECT_EQ(client.stats().record(w.fast_relay).failures, 1u);
  EXPECT_EQ(client.stats().record(w.fast_relay).appearances, 1u);

  // Fetch 2: the blacklisted relay is dropped from the candidate set
  // before the race, so it neither appears nor fails again.
  std::optional<FetchRecord> second;
  client.fetch([&](const FetchRecord& r) { second = r; });
  w.sim.run();
  ASSERT_TRUE(second && second->outcome.ok);
  EXPECT_EQ(second->candidates.size(), 1u);
  EXPECT_EQ(second->candidates[0], w.slow_relay);
  EXPECT_EQ(second->outcome.probe_failures, 0u);
  EXPECT_EQ(client.stats().record(w.fast_relay).appearances, 1u);
}

TEST(Blacklist, SuccessfulIndirectTransferClearsRun) {
  FaultWorld w(mbps(0.8), mbps(8.0), mbps(2.0));
  ClientConfig config;
  config.client_node = w.client;
  config.server = &*w.server;
  config.resource = "/f";
  config.blacklist_base_penalty = 0.5;  // short penalty: relay comes back
  IndirectRoutingClient client(*w.engine, config,
                               std::make_unique<FullSetPolicy>(),
                               util::Rng(10));
  client.register_relay(w.fast_relay, "fast");
  client.register_relay(w.slow_relay, "slow");
  w.relay_down_window(w.fast_relay, 0.0, 3.0);

  std::optional<FetchRecord> first;
  client.fetch([&](const FetchRecord& r) { first = r; });
  w.sim.run();
  ASSERT_TRUE(first && first->outcome.ok);
  EXPECT_EQ(client.stats().record(w.fast_relay).consecutive_failures, 1u);

  // Relay restarted and the penalty expired (the fetch is scheduled past
  // both): it races again, wins, and the success ends its failure run.
  std::optional<FetchRecord> second;
  w.sim.schedule_at(w.sim.now() + 5.0, [&] {
    client.fetch([&](const FetchRecord& r) { second = r; });
  });
  w.sim.run();
  ASSERT_TRUE(second && second->outcome.ok);
  EXPECT_TRUE(second->outcome.chose_indirect);
  EXPECT_EQ(second->outcome.relay, w.fast_relay);
  EXPECT_EQ(client.stats().record(w.fast_relay).consecutive_failures, 0u);
}

// --- Testbed schedule replay ----------------------------------------------

testbed::WorldParams faulty_world_params() {
  testbed::WorldParams params;
  params.client_name = "client";
  params.server_name = "server";
  params.relay_names = {"r0", "r1"};
  params.access.mean = mbps(20.0);
  params.direct_wan.mean = mbps(4.0);
  params.relay_wan.assign(2, testbed::LinkSpec{});
  params.server_relay.assign(2, testbed::LinkSpec{});
  for (auto* specs : {&params.relay_wan, &params.server_relay}) {
    for (auto& link : *specs) link.mean = mbps(8.0);
  }
  params.fault.enabled = true;
  params.fault.relay_mtbf = 1800.0;
  params.fault.relay_mttr = 120.0;
  params.fault.horizon = 4.0 * 3600.0;
  params.process_seed = 77;
  return params;
}

TEST(FaultTestbed, ScheduleHitsOnlySelectingMirror) {
  const testbed::WorldParams params = faulty_world_params();
  testbed::ClientWorld plain(params, /*attach_relay_processes=*/false);
  testbed::ClientWorld selecting(params, /*attach_relay_processes=*/true);
  EXPECT_TRUE(plain.fault_schedule().empty());
  EXPECT_FALSE(selecting.fault_schedule().empty());

  // Replay makes the engine's view track the windows: step past the first
  // crash and the relay reads as down.
  const fault::FaultWindow& first = selecting.fault_schedule().windows[0];
  const net::NodeId victim = selecting.relay_node(first.target);
  while (selecting.simulator().now() < first.start &&
         selecting.simulator().step()) {
  }
  EXPECT_TRUE(selecting.engine().relay_down(victim));
  while (selecting.simulator().now() < first.end &&
         selecting.simulator().step()) {
  }
  EXPECT_FALSE(selecting.engine().relay_down(victim));
}

TEST(FaultTestbed, DisabledFaultsScheduleNothing) {
  testbed::WorldParams params = faulty_world_params();
  params.fault.enabled = false;
  testbed::ClientWorld world(params, /*attach_relay_processes=*/true);
  EXPECT_TRUE(world.fault_schedule().empty());
  EXPECT_EQ(world.engine().faults_injected(), 0u);
}

}  // namespace
}  // namespace idr::core
