#include <gtest/gtest.h>

#include "net/link_index.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace idr::net {
namespace {

using util::mbps;
using util::milliseconds;

TEST(Topology, AddAndLookupNodes) {
  Topology topo;
  const NodeId a = topo.add_node("alpha");
  const NodeId b = topo.add_node("beta");
  EXPECT_EQ(topo.node_count(), 2u);
  EXPECT_EQ(topo.node(a).name, "alpha");
  EXPECT_EQ(topo.find_node("beta"), b);
  EXPECT_FALSE(topo.find_node("gamma").has_value());
}

TEST(Topology, DuplicateNameRejected) {
  Topology topo;
  topo.add_node("x");
  EXPECT_THROW(topo.add_node("x"), util::Error);
  EXPECT_THROW(topo.add_node(""), util::Error);
}

TEST(Topology, LinkValidation) {
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  EXPECT_THROW(topo.add_link(a, a, mbps(1), 0.01), util::Error);
  EXPECT_THROW(topo.add_link(a, b, 0.0, 0.01), util::Error);
  EXPECT_THROW(topo.add_link(a, b, mbps(1), -0.01), util::Error);
  EXPECT_THROW(topo.add_link(a, b, mbps(1), 0.01, 1.0), util::Error);
  EXPECT_THROW(topo.add_link(a, 99, mbps(1), 0.01), util::Error);
}

TEST(Topology, DuplexAddsBothDirections) {
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const auto [fwd, rev] = topo.add_duplex(a, b, mbps(10), 0.01);
  EXPECT_EQ(topo.link(fwd).from, a);
  EXPECT_EQ(topo.link(rev).from, b);
  EXPECT_EQ(topo.link_between(a, b), fwd);
  EXPECT_EQ(topo.link_between(b, a), rev);
}

TEST(Topology, PathMetrics) {
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const NodeId c = topo.add_node("c");
  const LinkId l1 = topo.add_link(a, b, mbps(10), 0.010, 0.01);
  const LinkId l2 = topo.add_link(b, c, mbps(2), 0.020, 0.02);
  Path p{{l1, l2}};
  topo.check_path(p, a, c);
  EXPECT_DOUBLE_EQ(topo.path_delay(p), 0.030);
  EXPECT_DOUBLE_EQ(topo.path_rtt(p), 0.060);
  EXPECT_DOUBLE_EQ(topo.path_bottleneck(p), mbps(2));
  EXPECT_NEAR(topo.path_loss(p), 1.0 - 0.99 * 0.98, 1e-12);
  EXPECT_EQ(topo.path_source(p), a);
  EXPECT_EQ(topo.path_destination(p), c);
}

TEST(Topology, CheckPathRejectsDisconnected) {
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const NodeId c = topo.add_node("c");
  const NodeId d = topo.add_node("d");
  const LinkId l1 = topo.add_link(a, b, mbps(1), 0.01);
  const LinkId l2 = topo.add_link(c, d, mbps(1), 0.01);
  Path p{{l1, l2}};
  EXPECT_THROW(topo.check_path(p, a, d), util::Error);
}

TEST(Routing, ShortestPathByDelay) {
  // a -> b -> d is shorter than a -> c -> d.
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const NodeId c = topo.add_node("c");
  const NodeId d = topo.add_node("d");
  topo.add_link(a, b, mbps(1), 0.010);
  topo.add_link(b, d, mbps(1), 0.010);
  topo.add_link(a, c, mbps(100), 0.030);
  topo.add_link(c, d, mbps(100), 0.030);
  const auto path = shortest_path(topo, a, d);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 2u);
  EXPECT_DOUBLE_EQ(topo.path_delay(*path), 0.020);
  EXPECT_EQ(topo.path_destination(*path), d);
}

TEST(Routing, DirectLinkPreferredWhenShorter) {
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const NodeId c = topo.add_node("c");
  topo.add_link(a, c, mbps(1), 0.015);
  topo.add_link(a, b, mbps(1), 0.010);
  topo.add_link(b, c, mbps(1), 0.010);
  const auto path = shortest_path(topo, a, c);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 1u);
}

TEST(Routing, UnreachableReturnsNullopt) {
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  topo.add_node("island");
  topo.add_link(a, b, mbps(1), 0.01);
  EXPECT_FALSE(shortest_path(topo, a, 2).has_value());
  // Directionality respected: b -> a has no link.
  EXPECT_FALSE(shortest_path(topo, b, a).has_value());
}

TEST(Routing, ViaRelayConcatenates) {
  Topology topo;
  const NodeId server = topo.add_node("server");
  const NodeId relay = topo.add_node("relay");
  const NodeId client = topo.add_node("client");
  topo.add_link(server, relay, mbps(50), 0.020);
  topo.add_link(relay, client, mbps(5), 0.080);
  topo.add_link(server, client, mbps(1), 0.090);
  const auto indirect = via_relay(topo, server, relay, client);
  ASSERT_TRUE(indirect.has_value());
  EXPECT_EQ(indirect->hops(), 2u);
  EXPECT_DOUBLE_EQ(topo.path_delay(*indirect), 0.100);
  EXPECT_DOUBLE_EQ(topo.path_bottleneck(*indirect), mbps(5));
}

TEST(Routing, ViaRelayRejectsDegenerateRelay) {
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  topo.add_link(a, b, mbps(1), 0.01);
  EXPECT_THROW(via_relay(topo, a, a, b), util::Error);
  EXPECT_THROW(via_relay(topo, a, b, b), util::Error);
}

TEST(Routing, ConcatenateJunctionMismatch) {
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const NodeId c = topo.add_node("c");
  const LinkId l1 = topo.add_link(a, b, mbps(1), 0.01);
  const LinkId l2 = topo.add_link(a, c, mbps(1), 0.01);
  EXPECT_THROW(concatenate(topo, Path{{l1}}, Path{{l2}}), util::Error);
}

TEST(LinkUserIndex, RejectsDoubleAddAndUnknownRemove) {
  LinkUserIndex index;
  index.ensure_links(3);
  const LinkId path[2] = {0, 2};
  index.add(4, path);
  EXPECT_THROW(index.add(4, path), util::Error);
  EXPECT_THROW(index.remove(3, path), util::Error);   // never registered
  EXPECT_THROW(index.remove(99, path), util::Error);  // beyond every slot
  EXPECT_EQ(index.users_on(2), std::vector<LinkUserIndex::UserId>{4});

  index.remove(4, path);
  EXPECT_TRUE(index.users_on(0).empty());
  EXPECT_THROW(index.remove(4, path), util::Error);
  // A removed user is unknown to walks, and its slot can be registered
  // again.
  std::vector<LinkUserIndex::UserId> users;
  std::vector<LinkId> links;
  const auto links_of = [&](LinkUserIndex::UserId) {
    return std::span<const LinkId>(path);
  };
  const LinkUserIndex::UserId seed[1] = {4};
  EXPECT_THROW(index.collect_component(seed, {}, links_of, users, links),
               util::Error);
  index.add(4, path);
  index.collect_component(seed, {}, links_of, users, links);
  EXPECT_EQ(users, std::vector<LinkUserIndex::UserId>{4});
  EXPECT_EQ(links, (std::vector<LinkId>{0, 2}));
}

}  // namespace
}  // namespace idr::net
