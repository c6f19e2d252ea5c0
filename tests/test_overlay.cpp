#include <cmath>
#include <gtest/gtest.h>
#include <optional>

#include "overlay/transfer_engine.hpp"
#include "overlay/web_server.hpp"
#include "util/error.hpp"

namespace idr::overlay {
namespace {

using util::mbps;
using util::milliseconds;

TEST(WebServer, ResourceRegistry) {
  WebServerModel server(0, "ebay.com");
  server.add_resource("/a", 1000.0);
  server.add_resource("/b", 2000.0);
  EXPECT_EQ(server.resource_count(), 2u);
  EXPECT_EQ(server.resource_size("/a"), 1000.0);
  EXPECT_FALSE(server.resource_size("/missing").has_value());
  EXPECT_THROW(server.add_resource("/a", 5.0), util::Error);
  EXPECT_THROW(server.add_resource("no-slash", 5.0), util::Error);
  EXPECT_THROW(server.add_resource("/zero", 0.0), util::Error);
}

TEST(WebServer, TransferSizeResolvesRanges) {
  WebServerModel server(0, "ebay.com");
  server.add_resource("/f", 1000.0);
  EXPECT_EQ(server.transfer_size("/f", std::nullopt), 1000.0);
  EXPECT_EQ(server.transfer_size("/f", http::range_first_bytes(100)), 100.0);
  EXPECT_EQ(server.transfer_size("/f", http::range_from_offset(100)),
            900.0);
  EXPECT_EQ(server.transfer_size("/f", http::range_first_bytes(5000)),
            1000.0);  // clamped
  EXPECT_FALSE(
      server.transfer_size("/f", http::range_from_offset(1000)).has_value());
  EXPECT_FALSE(server.transfer_size("/nope", std::nullopt).has_value());
}

// A 4-node world: server -> gw -> client direct; server -> relay -> gw
// indirect, all stable capacities for exact timing checks.
struct World {
  sim::Simulator sim;
  net::Topology topo;
  std::optional<flow::FlowSimulator> fsim;
  std::optional<WebServerModel> server;
  std::optional<TransferEngine> engine;
  net::NodeId server_node, gw, client, relay;

  explicit World(util::Rate direct_capacity = mbps(1.0),
                 util::Rate relay_leg_capacity = mbps(4.0)) {
    server_node = topo.add_node("server");
    gw = topo.add_node("gw");
    client = topo.add_node("client");
    relay = topo.add_node("relay");
    topo.add_link(server_node, gw, direct_capacity, milliseconds(90));
    topo.add_link(gw, client, mbps(50), milliseconds(5));
    topo.add_link(server_node, relay, mbps(40), milliseconds(20));
    topo.add_link(relay, gw, relay_leg_capacity, milliseconds(90));
    fsim.emplace(sim, topo, util::Rng(3));
    server.emplace(server_node, "server");
    server->add_resource("/f", 1.0e6);
    engine.emplace(*fsim);
  }

  TransferRequest request(std::optional<net::NodeId> via = std::nullopt) {
    TransferRequest req;
    req.client = client;
    req.server = &*server;
    req.resource = "/f";
    req.relay = via;
    return req;
  }
};

TEST(TransferEngine, DirectTransferTiming) {
  World w;
  std::optional<TransferResult> result;
  TransferRequest req = w.request();
  w.engine->begin(req, [&](const TransferResult& r) { result = r; });
  w.sim.run();
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->ok);
  EXPECT_FALSE(result->indirect);
  EXPECT_EQ(result->bytes, 1.0e6);
  // Setup (2 RTT = 0.38 s) + drain (1 MB at 125 KB/s with slow start)
  // + tail (0.095 s): elapsed must exceed the pure drain time of 8 s.
  EXPECT_GT(result->elapsed(), 8.0);
  EXPECT_LT(result->elapsed(), 12.0);
  EXPECT_GT(result->throughput(), 0.0);
}

TEST(TransferEngine, IndirectBeatsNarrowDirect) {
  World w(/*direct=*/mbps(1.0), /*relay leg=*/mbps(8.0));
  std::optional<TransferResult> direct, indirect;
  w.engine->begin(w.request(), [&](const TransferResult& r) { direct = r; });
  w.engine->begin(w.request(w.relay),
                  [&](const TransferResult& r) { indirect = r; });
  w.sim.run();
  ASSERT_TRUE(direct && indirect);
  EXPECT_TRUE(indirect->indirect);
  EXPECT_EQ(indirect->relay, w.relay);
  EXPECT_LT(indirect->elapsed(), direct->elapsed());
}

TEST(TransferEngine, RouteCacheFollowsAddedLinks) {
  World w;
  const net::NodeId island = w.topo.add_node("island");
  TransferRequest req = w.request();
  req.client = island;
  std::optional<TransferResult> first, second;
  w.engine->begin(req, [&](const TransferResult& r) { first = r; });
  w.sim.run();
  ASSERT_TRUE(first);
  EXPECT_FALSE(first->ok);
  EXPECT_EQ(first->error, "no direct route");
  // The engine memoizes routes, the unreachable one included; a new link
  // must invalidate that.
  w.topo.add_link(w.gw, island, mbps(50), milliseconds(5));
  w.engine->begin(req, [&](const TransferResult& r) { second = r; });
  w.sim.run();
  ASSERT_TRUE(second);
  EXPECT_TRUE(second->ok) << second->error;
}

TEST(TransferEngine, RangeLimitsBytes) {
  World w;
  TransferRequest req = w.request();
  req.range = http::range_first_bytes(100000);
  std::optional<TransferResult> result;
  w.engine->begin(req, [&](const TransferResult& r) { result = r; });
  w.sim.run();
  ASSERT_TRUE(result && result->ok);
  EXPECT_EQ(result->bytes, 100000.0);
}

TEST(TransferEngine, UnknownResourceFailsAsync) {
  World w;
  TransferRequest req = w.request();
  req.resource = "/missing";
  std::optional<TransferResult> result;
  w.engine->begin(req, [&](const TransferResult& r) { result = r; });
  EXPECT_FALSE(result.has_value());  // async even for failures
  w.sim.run();
  ASSERT_TRUE(result);
  EXPECT_FALSE(result->ok);
  EXPECT_FALSE(result->error.empty());
}

TEST(TransferEngine, UnroutableFailsAsync) {
  World w;
  const net::NodeId island = w.topo.add_node("island");
  TransferRequest req = w.request();
  req.client = island;
  std::optional<TransferResult> result;
  w.engine->begin(req, [&](const TransferResult& r) { result = r; });
  w.sim.run();
  ASSERT_TRUE(result);
  EXPECT_FALSE(result->ok);
}

TEST(TransferEngine, RelayEfficiencyCapsRate) {
  World fast(mbps(8.0), mbps(8.0));
  RelayParams half;
  half.efficiency = 0.5;
  half.processing_delay = 0.0;
  fast.engine->set_relay_params(fast.relay, half);
  std::optional<TransferResult> direct, indirect;
  fast.engine->begin(fast.request(),
                     [&](const TransferResult& r) { direct = r; });
  fast.engine->begin(fast.request(fast.relay),
                     [&](const TransferResult& r) { indirect = r; });
  fast.sim.run();
  ASSERT_TRUE(direct && indirect);
  // Same bottleneck either way, but the relay forwards at half the
  // TCP-feasible rate, so the indirect transfer is clearly slower.
  EXPECT_GT(indirect->elapsed(), direct->elapsed() * 1.3);
}

TEST(TransferEngine, RelayForwardRateCap) {
  World w(mbps(1.0), mbps(8.0));
  RelayParams capped;
  capped.max_forward_rate = 50e3;  // 50 KB/s hard cap
  w.engine->set_relay_params(w.relay, capped);
  std::optional<TransferResult> indirect;
  w.engine->begin(w.request(w.relay),
                  [&](const TransferResult& r) { indirect = r; });
  w.sim.run();
  ASSERT_TRUE(indirect && indirect->ok);
  EXPECT_LE(indirect->throughput(), 50e3 * 1.01);
}

TEST(TransferEngine, CancelDuringSetup) {
  World w;
  bool fired = false;
  const TransferHandle h =
      w.engine->begin(w.request(), [&](const TransferResult&) {
        fired = true;
      });
  EXPECT_TRUE(w.engine->cancel(h));
  w.sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(w.engine->in_flight(), 0u);
  EXPECT_FALSE(w.engine->cancel(h));
}

TEST(TransferEngine, CancelMidFlight) {
  World w;
  bool fired = false;
  const TransferHandle h =
      w.engine->begin(w.request(), [&](const TransferResult&) {
        fired = true;
      });
  w.sim.run_until(2.0);  // past setup, mid-drain
  EXPECT_GT(w.engine->current_rate(h), 0.0);
  EXPECT_TRUE(w.engine->cancel(h));
  w.sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(w.fsim->active_flows(), 0u);
}

TEST(TransferEngine, ConcurrentTransfersShareDirectPath) {
  World w;
  std::vector<double> finishes;
  for (int i = 0; i < 2; ++i) {
    w.engine->begin(w.request(), [&](const TransferResult& r) {
      finishes.push_back(r.finish_time);
    });
  }
  w.sim.run();
  ASSERT_EQ(finishes.size(), 2u);
  // Two 1 MB transfers over a 125 KB/s bottleneck: aggregate drain is 16 s
  // minimum; sharing means both finish well after a lone transfer would.
  EXPECT_GT(finishes[0], 16.0);
}

TEST(TransferEngine, SplitTcpCeilingAdvantage) {
  // Lossy long direct path vs. two half-RTT legs with the same per-link
  // loss: the relay transfer must win despite equal link capacities.
  sim::Simulator sim;
  net::Topology topo;
  const auto server_node = topo.add_node("server");
  const auto gw = topo.add_node("gw");
  const auto client = topo.add_node("client");
  const auto relay = topo.add_node("relay");
  topo.add_link(server_node, gw, mbps(50), milliseconds(90), 0.01);
  topo.add_link(gw, client, mbps(50), milliseconds(5), 0.0);
  topo.add_link(server_node, relay, mbps(50), milliseconds(45), 0.005);
  topo.add_link(relay, gw, mbps(50), milliseconds(45), 0.005);
  flow::FlowSimulator fsim(sim, topo, util::Rng(4));
  WebServerModel server(server_node, "s");
  server.add_resource("/f", 2.0e6);
  TransferEngine engine(fsim);

  std::optional<TransferResult> direct, indirect;
  TransferRequest req;
  req.client = client;
  req.server = &server;
  req.resource = "/f";
  engine.begin(req, [&](const TransferResult& r) { direct = r; });
  req.relay = relay;
  engine.begin(req, [&](const TransferResult& r) { indirect = r; });
  sim.run();
  ASSERT_TRUE(direct && indirect);
  EXPECT_LT(indirect->elapsed(), direct->elapsed());
}

}  // namespace
}  // namespace idr::overlay
