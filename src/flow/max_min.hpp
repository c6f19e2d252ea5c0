// Max-min fair rate allocation with per-flow rate caps.
//
// Given link capacities and a set of flows (each a set of links plus an
// optional cap), computes the unique max-min fair allocation by progressive
// filling: raise a common water level; a flow is frozen when it hits its
// cap or when one of its links saturates. Exposed as a pure function so it
// can be property-tested independently of the simulator.
//
// Two entry points share one solver:
//  * max_min_allocate(capacities, flows) — the original convenience
//    signature (allocates its result vector; fine for tests and one-off
//    calls);
//  * max_min_allocate(MaxMinWorkspace&) — the hot path. The workspace holds
//    the problem in flat arrays (per-flow link lists are spans into one
//    shared index vector) plus all solver scratch, so a caller that reuses
//    one workspace performs zero heap allocations per solve once warm.
//
// check_max_min() tests an allocation against the definition (feasibility
// and the bottleneck condition) without solving, so a fast path can be
// checked against what max-min means, not only against a second solver.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace idr::flow {

using util::Rate;

struct FlowDemand {
  /// Indices into the capacity vector; a flow may cross a link at most once.
  std::vector<std::size_t> links;
  /// Per-flow rate cap (slow-start ramp, TCP ceiling, relay coupling).
  /// Use kUnlimitedRate for none.
  Rate cap = 0.0;
};

/// Flat-array problem + scratch storage for the allocator. Fill `avail`
/// with link capacities, append flows with add_flow()/add_link(), call
/// max_min_allocate(ws), read `rate`. clear() resets the problem but keeps
/// every vector's storage, so steady-state reuse never allocates.
struct MaxMinWorkspace {
  // --- Problem (caller fills before each solve) ---
  /// Per-link capacity on entry; residual capacity after the solve.
  std::vector<Rate> avail;
  /// Per-flow rate cap (kUnlimitedRate for none).
  std::vector<Rate> cap;
  /// Flattened per-flow link lists: flow f's links are
  /// links[offset[f] .. offset[f+1]) (the last span ends at links.size()).
  std::vector<std::size_t> links;
  std::vector<std::size_t> offset;

  // --- Result ---
  std::vector<Rate> rate;

  // --- Diagnostics ---
  /// Progressive-filling rounds executed by the last solve.
  std::uint64_t rounds = 0;

  std::size_t flow_count() const { return cap.size(); }

  /// Starts a new flow; its links are then appended with add_link().
  void add_flow(Rate flow_cap) {
    cap.push_back(flow_cap);
    offset.push_back(links.size());
  }
  void add_link(std::size_t link) { links.push_back(link); }

  /// Drops the problem (and result) but keeps allocated storage.
  void clear() {
    avail.clear();
    cap.clear();
    links.clear();
    offset.clear();
  }

  // --- Solver scratch (managed by max_min_allocate) ---
  std::vector<std::size_t> active;        // per link: unfixed flows crossing it
  std::vector<std::uint32_t> unfixed;     // ascending indices of unfrozen flows
  std::vector<std::uint32_t> cap_order;   // flow indices sorted by (cap, index)
  std::vector<std::uint32_t> active_links;
  std::vector<std::uint32_t> sat_list;    // links saturated this round
  std::vector<unsigned char> fixed;
  std::vector<unsigned char> saturated;
};

/// Solves the problem described by `ws` in place (see MaxMinWorkspace).
/// Semantics and postconditions are identical to the vector signature
/// below; rates are bitwise-equal to what it returns for the same problem.
void max_min_allocate(MaxMinWorkspace& ws);

/// Computes max-min fair rates. `capacities[l]` must be > 0 for every link
/// referenced by a flow. Flows with empty link sets receive their cap
/// (or 0 if the cap is unbounded — such flows are degenerate).
///
/// Postconditions (verified by tests):
///  * sum of rates on each link <= capacity (+ epsilon),
///  * every flow is bottlenecked: it either meets its cap or crosses a
///    saturated link where no other flow through that link has a higher
///    rate.
std::vector<Rate> max_min_allocate(const std::vector<Rate>& capacities,
                                   const std::vector<FlowDemand>& flows);

/// Checks `rates` (one per flow) against the definition of the max-min
/// fair allocation, with a relative tolerance of 1e-9 throughout:
///  * feasibility: every rate is >= 0 and <= its cap, and every link's
///    load (sum of the rates crossing it) is <= its capacity;
///  * bottleneck: every flow meets its cap, or crosses a saturated link
///    on which no other flow has a higher rate. A flow with no links and
///    an unbounded cap must have rate 0 (max_min_allocate's convention).
/// Returns an empty string when both hold, else the first violation.
std::string check_max_min(const std::vector<Rate>& capacities,
                          const std::vector<FlowDemand>& flows,
                          const std::vector<Rate>& rates);

}  // namespace idr::flow
