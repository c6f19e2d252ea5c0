// Network topology model: named nodes connected by directed links with
// capacity, propagation delay and loss rate. The flow-level simulator
// (idr::flow) treats link capacities as mutable — time-varying capacity
// processes (capacity_process.hpp) model background cross-traffic and
// statistical multiplexing without simulating individual packets.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/units.hpp"

namespace idr::net {

using util::Bytes;
using util::Duration;
using util::Rate;

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;

inline constexpr NodeId kInvalidNode = UINT32_MAX;
inline constexpr LinkId kInvalidLink = UINT32_MAX;

struct Node {
  NodeId id = kInvalidNode;
  std::string name;
  /// Whether routes may pass *through* this node. End hosts (clients,
  /// servers, overlay relays) do not forward IP traffic — an overlay
  /// relay forwards at the application layer only, which is modelled by
  /// explicitly concatenating paths at the relay (via_relay), never by
  /// Dijkstra discovering a route through it.
  bool transit = true;
};

/// A directed link. `capacity` is the available capacity seen by
/// foreground flows; capacity processes update it over time. A link whose
/// capacity process is driven by flow::FlowSimulator is kept current only
/// while it carries a flow — an idle link's process is parked and caught
/// up when a flow joins — so read it through FlowSimulator::link_capacity()
/// rather than here when the link may be idle.
struct Link {
  LinkId id = kInvalidLink;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  Rate capacity = 0.0;
  Duration prop_delay = 0.0;
  double loss_rate = 0.0;  // in [0, 1); feeds the TCP throughput ceiling
};

/// A loop-free sequence of links where link[i].to == link[i+1].from.
struct Path {
  std::vector<LinkId> links;

  bool empty() const { return links.empty(); }
  std::size_t hops() const { return links.size(); }
};

class Topology {
 public:
  /// Adds a node; names must be unique and non-empty. `transit = false`
  /// marks an end host that routes may terminate at but not pass through.
  NodeId add_node(std::string name, bool transit = true);

  /// Adds a directed link.
  LinkId add_link(NodeId from, NodeId to, Rate capacity, Duration prop_delay,
                  double loss_rate = 0.0);

  /// Adds a symmetric pair of links and returns {forward, reverse}.
  std::pair<LinkId, LinkId> add_duplex(NodeId a, NodeId b, Rate capacity,
                                       Duration prop_delay,
                                       double loss_rate = 0.0);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }

  const Node& node(NodeId id) const;
  // Inline: the flow simulator reads links on every reallocation and
  // capacity change.
  const Link& link(LinkId id) const {
    IDR_REQUIRE(id < links_.size(), "link: unknown id");
    return links_[id];
  }
  Link& mutable_link(LinkId id) {
    IDR_REQUIRE(id < links_.size(), "mutable_link: unknown id");
    return links_[id];
  }

  /// Looks up a node by name; nullopt if absent.
  std::optional<NodeId> find_node(std::string_view name) const;

  /// Outgoing links of a node.
  const std::vector<LinkId>& out_links(NodeId id) const;

  /// The link from `a` to `b`, if one exists (first match).
  std::optional<LinkId> link_between(NodeId a, NodeId b) const;

  // --- Path helpers -------------------------------------------------------

  /// Validates connectivity/endpoints; throws util::Error if malformed.
  void check_path(const Path& path, NodeId from, NodeId to) const;

  NodeId path_source(const Path& path) const;
  NodeId path_destination(const Path& path) const;

  /// Sum of per-link propagation delays.
  Duration path_delay(const Path& path) const;

  /// min over links of `capacity` (the fluid bottleneck); see Link for
  /// when a process-driven capacity is current.
  Rate path_bottleneck(const Path& path) const;

  /// 1 - prod(1 - loss_i): end-to-end loss assuming independence.
  double path_loss(const Path& path) const;

  /// Round-trip time assuming a symmetric reverse path: 2 * path_delay.
  Duration path_rtt(const Path& path) const;

 private:
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> adjacency_;
};

}  // namespace idr::net
