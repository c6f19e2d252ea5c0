#include "net/topology.hpp"

#include <unordered_map>

#include "util/error.hpp"

namespace idr::net {

NodeId Topology::add_node(std::string name, bool transit) {
  IDR_REQUIRE(!name.empty(), "add_node: empty name");
  IDR_REQUIRE(!find_node(name).has_value(),
              "add_node: duplicate name " + name);
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{id, std::move(name), transit});
  adjacency_.emplace_back();
  return id;
}

LinkId Topology::add_link(NodeId from, NodeId to, Rate capacity,
                          Duration prop_delay, double loss_rate) {
  IDR_REQUIRE(from < nodes_.size() && to < nodes_.size(),
              "add_link: unknown endpoint");
  IDR_REQUIRE(from != to, "add_link: self loop");
  IDR_REQUIRE(capacity > 0.0, "add_link: non-positive capacity");
  IDR_REQUIRE(prop_delay >= 0.0, "add_link: negative delay");
  IDR_REQUIRE(loss_rate >= 0.0 && loss_rate < 1.0,
              "add_link: loss rate outside [0,1)");
  const auto id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{id, from, to, capacity, prop_delay, loss_rate});
  adjacency_[from].push_back(id);
  return id;
}

std::pair<LinkId, LinkId> Topology::add_duplex(NodeId a, NodeId b,
                                               Rate capacity,
                                               Duration prop_delay,
                                               double loss_rate) {
  const LinkId fwd = add_link(a, b, capacity, prop_delay, loss_rate);
  const LinkId rev = add_link(b, a, capacity, prop_delay, loss_rate);
  return {fwd, rev};
}

const Node& Topology::node(NodeId id) const {
  IDR_REQUIRE(id < nodes_.size(), "node: unknown id");
  return nodes_[id];
}

std::optional<NodeId> Topology::find_node(std::string_view name) const {
  for (const Node& n : nodes_) {
    if (n.name == name) return n.id;
  }
  return std::nullopt;
}

const std::vector<LinkId>& Topology::out_links(NodeId id) const {
  IDR_REQUIRE(id < adjacency_.size(), "out_links: unknown id");
  return adjacency_[id];
}

std::optional<LinkId> Topology::link_between(NodeId a, NodeId b) const {
  IDR_REQUIRE(a < adjacency_.size(), "link_between: unknown id");
  for (LinkId l : adjacency_[a]) {
    if (links_[l].to == b) return l;
  }
  return std::nullopt;
}

void Topology::check_path(const Path& path, NodeId from, NodeId to) const {
  IDR_REQUIRE(!path.empty(), "check_path: empty path");
  IDR_REQUIRE(path_source(path) == from, "check_path: wrong source");
  IDR_REQUIRE(path_destination(path) == to, "check_path: wrong destination");
  for (std::size_t i = 0; i + 1 < path.links.size(); ++i) {
    IDR_REQUIRE(link(path.links[i]).to == link(path.links[i + 1]).from,
                "check_path: disconnected links");
  }
}

NodeId Topology::path_source(const Path& path) const {
  IDR_REQUIRE(!path.empty(), "path_source: empty path");
  return link(path.links.front()).from;
}

NodeId Topology::path_destination(const Path& path) const {
  IDR_REQUIRE(!path.empty(), "path_destination: empty path");
  return link(path.links.back()).to;
}

Duration Topology::path_delay(const Path& path) const {
  Duration total = 0.0;
  for (LinkId l : path.links) total += link(l).prop_delay;
  return total;
}

Rate Topology::path_bottleneck(const Path& path) const {
  IDR_REQUIRE(!path.empty(), "path_bottleneck: empty path");
  Rate bottleneck = link(path.links.front()).capacity;
  for (LinkId l : path.links) {
    bottleneck = std::min(bottleneck, link(l).capacity);
  }
  return bottleneck;
}

double Topology::path_loss(const Path& path) const {
  double pass = 1.0;
  for (LinkId l : path.links) pass *= 1.0 - link(l).loss_rate;
  return 1.0 - pass;
}

Duration Topology::path_rtt(const Path& path) const {
  return 2.0 * path_delay(path);
}

}  // namespace idr::net
