#include "core/probe_race.hpp"

#include <gtest/gtest.h>
#include <optional>

#include "core/client.hpp"
#include "util/error.hpp"

namespace idr::core {
namespace {

using util::mbps;
using util::milliseconds;

// Star world: direct path server->gw->client plus two relays with
// controllable leg capacities.
struct RaceWorld {
  sim::Simulator sim;
  net::Topology topo;
  std::optional<flow::FlowSimulator> fsim;
  std::optional<overlay::WebServerModel> server;
  std::optional<overlay::TransferEngine> engine;
  net::NodeId server_node, gw, client;
  net::NodeId fast_relay, slow_relay;

  RaceWorld(util::Rate direct, util::Rate fast_leg, util::Rate slow_leg) {
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
};

TEST(ProbeRace, DirectWinsWhenFaster) {
  RaceWorld w(mbps(16.0), mbps(1.0), mbps(0.5));
  std::optional<RaceOutcome> outcome;
  start_probe_race(*w.engine, w.spec({w.fast_relay, w.slow_relay}),
                   [&](const RaceOutcome& o) { outcome = o; });
  w.sim.run();
  ASSERT_TRUE(outcome && outcome->ok);
  EXPECT_FALSE(outcome->chose_indirect);
  EXPECT_EQ(outcome->relay, net::kInvalidNode);
  EXPECT_EQ(outcome->total_bytes, 2.0e6);
  EXPECT_GT(outcome->probe_elapsed, 0.0);
  EXPECT_GE(outcome->total_elapsed, outcome->probe_elapsed);
}

TEST(ProbeRace, BestRelayWinsWhenDirectIsNarrow) {
  RaceWorld w(mbps(0.8), mbps(8.0), mbps(2.0));
  std::optional<RaceOutcome> outcome;
  start_probe_race(*w.engine, w.spec({w.fast_relay, w.slow_relay}),
                   [&](const RaceOutcome& o) { outcome = o; });
  w.sim.run();
  ASSERT_TRUE(outcome && outcome->ok);
  EXPECT_TRUE(outcome->chose_indirect);
  EXPECT_EQ(outcome->relay, w.fast_relay);
}

TEST(ProbeRace, AllTransfersCleanedUpAfterRace) {
  RaceWorld w(mbps(0.8), mbps(8.0), mbps(2.0));
  bool done = false;
  start_probe_race(*w.engine, w.spec({w.fast_relay, w.slow_relay}),
                   [&](const RaceOutcome&) { done = true; });
  w.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(w.engine->in_flight(), 0u);
  EXPECT_EQ(w.fsim->active_flows(), 0u);
}

TEST(ProbeRace, ProbeCoveringWholeFileSkipsRemainder) {
  RaceWorld w(mbps(8.0), mbps(1.0), mbps(1.0));
  RaceSpec spec = w.spec({w.fast_relay});
  spec.probe_bytes = 5.0e6;  // larger than the 2 MB file
  std::optional<RaceOutcome> outcome;
  start_probe_race(*w.engine, spec,
                   [&](const RaceOutcome& o) { outcome = o; });
  w.sim.run();
  ASSERT_TRUE(outcome && outcome->ok);
  EXPECT_DOUBLE_EQ(outcome->total_elapsed, outcome->probe_elapsed);
  EXPECT_EQ(outcome->total_bytes, 2.0e6);
}

TEST(ProbeRace, NoCandidatesStillFetches) {
  RaceWorld w(mbps(8.0), mbps(1.0), mbps(1.0));
  std::optional<RaceOutcome> outcome;
  start_probe_race(*w.engine, w.spec({}),
                   [&](const RaceOutcome& o) { outcome = o; });
  w.sim.run();
  ASSERT_TRUE(outcome && outcome->ok);
  EXPECT_FALSE(outcome->chose_indirect);
}

TEST(ProbeRace, UnknownResourceFails) {
  RaceWorld w(mbps(8.0), mbps(1.0), mbps(1.0));
  RaceSpec spec = w.spec({w.fast_relay});
  spec.resource = "/missing";
  obs::FlightRecorder flights;
  spec.flights = &flights;
  std::optional<RaceOutcome> outcome;
  // Started mid-run: the failure is immediate, so no race time elapses —
  // the start time is the call's, not the simulated clock's origin.
  w.sim.schedule_at(5.0, [&] {
    start_probe_race(*w.engine, spec,
                     [&](const RaceOutcome& o) { outcome = o; });
  });
  w.sim.run();
  ASSERT_TRUE(outcome);
  EXPECT_FALSE(outcome->ok);
  EXPECT_FALSE(outcome->error.empty());
  EXPECT_EQ(outcome->total_elapsed, 0.0);
  ASSERT_EQ(flights.size(), 1u);
  EXPECT_EQ(flights.last()[0].start_time, 5.0);
  EXPECT_EQ(flights.last()[0].total_elapsed_s, 0.0);
}

TEST(ProbeRace, SelectedThroughputChargesProbeOverhead) {
  RaceWorld w(mbps(2.0), mbps(1.0), mbps(1.0));
  std::optional<RaceOutcome> race;
  start_probe_race(*w.engine, w.spec({w.slow_relay}),
                   [&](const RaceOutcome& o) { race = o; });
  w.sim.run();
  ASSERT_TRUE(race && race->ok);
  ASSERT_FALSE(race->chose_indirect);

  // A plain direct download of the same file in a fresh identical world
  // must be at least as fast: the race pays for losing probes.
  RaceWorld fresh(mbps(2.0), mbps(1.0), mbps(1.0));
  std::optional<overlay::TransferResult> plain;
  overlay::TransferRequest req;
  req.client = fresh.client;
  req.server = &*fresh.server;
  req.resource = "/f";
  fresh.engine->begin(req,
                      [&](const overlay::TransferResult& r) { plain = r; });
  fresh.sim.run();
  ASSERT_TRUE(plain && plain->ok);
  EXPECT_GE(race->total_elapsed, plain->elapsed() * 0.999);
  EXPECT_LE(race->selected_throughput(), plain->throughput() * 1.001);
}

TEST(ProbeRace, InvalidSpecThrows) {
  RaceWorld w(mbps(1.0), mbps(1.0), mbps(1.0));
  RaceSpec spec = w.spec({});
  spec.probe_bytes = 0.0;
  EXPECT_THROW(start_probe_race(*w.engine, spec, [](const RaceOutcome&) {}),
               util::Error);
  EXPECT_THROW(start_probe_race(*w.engine, w.spec({}), nullptr),
               util::Error);
}

// --- IndirectRoutingClient facade -----------------------------------------

TEST(Client, FetchUpdatesStats) {
  RaceWorld w(mbps(0.8), mbps(8.0), mbps(2.0));
  ClientConfig config;
  config.client_node = w.client;
  config.server = &*w.server;
  config.resource = "/f";
  IndirectRoutingClient client(*w.engine, config,
                               std::make_unique<FullSetPolicy>(),
                               util::Rng(10));
  client.register_relay(w.fast_relay, "fast");
  client.register_relay(w.slow_relay, "slow");

  std::optional<FetchRecord> record;
  client.fetch([&](const FetchRecord& r) { record = r; });
  w.sim.run();
  ASSERT_TRUE(record && record->outcome.ok);
  EXPECT_EQ(record->candidates.size(), 2u);
  EXPECT_TRUE(record->outcome.chose_indirect);
  EXPECT_EQ(record->outcome.relay, w.fast_relay);

  const auto& stats = client.stats();
  EXPECT_EQ(stats.record(w.fast_relay).appearances, 1u);
  EXPECT_EQ(stats.record(w.fast_relay).selections, 1u);
  EXPECT_EQ(stats.record(w.slow_relay).appearances, 1u);
  EXPECT_EQ(stats.record(w.slow_relay).selections, 0u);

  client.record_improvement(w.fast_relay, 42.0);
  EXPECT_DOUBLE_EQ(stats.record(w.fast_relay).improvement_pct.mean(), 42.0);
}

TEST(Client, SequentialFetchesAccumulate) {
  RaceWorld w(mbps(0.8), mbps(8.0), mbps(2.0));
  ClientConfig config;
  config.client_node = w.client;
  config.server = &*w.server;
  config.resource = "/f";
  IndirectRoutingClient client(*w.engine, config,
                               std::make_unique<StaticRelayPolicy>(
                                   w.fast_relay),
                               util::Rng(11));
  client.register_relay(w.fast_relay, "fast");
  int fetches = 0;
  std::function<void(const FetchRecord&)> chain =
      [&](const FetchRecord& r) {
        ASSERT_TRUE(r.outcome.ok);
        if (++fetches < 3) client.fetch(chain);
      };
  client.fetch(chain);
  w.sim.run();
  EXPECT_EQ(fetches, 3);
  EXPECT_EQ(client.stats().record(w.fast_relay).appearances, 3u);
}

TEST(Client, RegisterRelayRejectsEndpoints) {
  RaceWorld w(mbps(1.0), mbps(1.0), mbps(1.0));
  ClientConfig config;
  config.client_node = w.client;
  config.server = &*w.server;
  config.resource = "/f";
  IndirectRoutingClient client(*w.engine, config,
                               std::make_unique<DirectOnlyPolicy>(),
                               util::Rng(12));
  EXPECT_THROW(client.register_relay(w.client, "self"), util::Error);
  EXPECT_THROW(client.register_relay(w.server_node, "srv"), util::Error);
}

TEST(Client, PolicySwapKeepsHistory) {
  RaceWorld w(mbps(0.8), mbps(8.0), mbps(2.0));
  ClientConfig config;
  config.client_node = w.client;
  config.server = &*w.server;
  config.resource = "/f";
  IndirectRoutingClient client(*w.engine, config,
                               std::make_unique<FullSetPolicy>(),
                               util::Rng(13));
  client.register_relay(w.fast_relay, "fast");
  client.fetch([](const FetchRecord&) {});
  w.sim.run();
  client.set_policy(std::make_unique<DirectOnlyPolicy>());
  EXPECT_EQ(client.stats().record(w.fast_relay).appearances, 1u);
  EXPECT_THROW(client.set_policy(nullptr), util::Error);
}

}  // namespace
}  // namespace idr::core
