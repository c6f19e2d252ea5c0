// Instantaneous-oracle relay selection: peeks at the topology's *current*
// link capacities and hands the probe race only the relay whose path has
// the highest instantaneous bottleneck bandwidth. No real client can do
// this — it is the upper bound the ablations compare the probe race and
// history predictors against. It reads Topology capacities directly, which
// is exact on a static topology; under a FlowSimulator with capacity
// processes an idle link's capacity lags until a flow joins it (see
// net::Link), so such worlds would have to score paths through
// FlowSimulator::link_capacity().
#pragma once

#include "core/selection_policy.hpp"
#include "net/routing.hpp"

namespace idr::core {

class InstantaneousOraclePolicy final : public SelectionPolicy {
 public:
  /// `topo` must outlive the policy; `client`/`server` are the transfer
  /// endpoints whose candidate paths are scored.
  InstantaneousOraclePolicy(const net::Topology& topo, net::NodeId client,
                            net::NodeId server);

  /// Returns the single best relay by current path bottleneck, or an
  /// empty set when the direct path currently beats every relay (so the
  /// race degenerates to a direct fetch).
  std::vector<net::NodeId> choose_candidates(const RelayStatsTable& stats,
                                             util::Rng& rng) override;

  const char* name() const override { return "instantaneous-oracle"; }

 private:
  /// Current bottleneck bandwidth of the data path (server -> client),
  /// optionally via a relay; 0 when unroutable.
  util::Rate path_bandwidth(std::optional<net::NodeId> relay) const;

  const net::Topology& topo_;
  net::NodeId client_;
  net::NodeId server_;
};

}  // namespace idr::core
