#include "flow/max_min.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "flow/tcp_model.hpp"
#include "util/error.hpp"

namespace idr::flow {

// Progressive filling over the workspace's flat arrays.
//
// Per-round cost is bounded by the flows/links still in play, not the
// problem size: the smallest unfixed cap comes from a once-sorted cap
// order behind an advancing cursor, link water levels scan an active-link
// set that is compacted as links exhaust, and the freeze scan walks a
// compacted list of unfixed flows. Freeze order (and therefore every
// floating-point operation on `avail`) is identical to the original
// dense implementation: within a round, flows freeze in ascending index
// order — the cap sort breaks ties by index, and both compactions
// preserve relative order.
void max_min_allocate(MaxMinWorkspace& ws) {
  const std::size_t num_links = ws.avail.size();
  const std::size_t num_flows = ws.cap.size();
  IDR_REQUIRE(ws.offset.size() == num_flows, "max_min: malformed workspace");

  ws.rounds = 0;
  ws.rate.assign(num_flows, 0.0);
  ws.fixed.assign(num_flows, 0);
  ws.active.assign(num_links, 0);
  ws.saturated.assign(num_links, 0);

  const auto span_begin = [&](std::size_t f) { return ws.offset[f]; };
  const auto span_end = [&](std::size_t f) {
    return f + 1 < num_flows ? ws.offset[f + 1] : ws.links.size();
  };

  for (std::size_t f = 0; f < num_flows; ++f) {
    IDR_REQUIRE(ws.cap[f] >= 0.0, "max_min: negative cap");
    if (span_begin(f) == span_end(f)) {
      // Degenerate local flow: no shared resource constrains it.
      ws.rate[f] = std::isinf(ws.cap[f]) ? 0.0 : ws.cap[f];
      ws.fixed[f] = 1;
      continue;
    }
    for (std::size_t i = span_begin(f); i < span_end(f); ++i) {
      const std::size_t l = ws.links[i];
      IDR_REQUIRE(l < num_links, "max_min: link index out of range");
      ++ws.active[l];
    }
  }

  ws.unfixed.clear();
  for (std::size_t f = 0; f < num_flows; ++f) {
    if (!ws.fixed[f]) ws.unfixed.push_back(static_cast<std::uint32_t>(f));
  }
  ws.cap_order.assign(ws.unfixed.begin(), ws.unfixed.end());
  std::sort(ws.cap_order.begin(), ws.cap_order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (ws.cap[a] != ws.cap[b]) return ws.cap[a] < ws.cap[b];
              return a < b;
            });
  ws.active_links.clear();
  for (std::size_t l = 0; l < num_links; ++l) {
    if (ws.active[l] == 0) continue;
    IDR_REQUIRE(ws.avail[l] > 0.0, "max_min: non-positive capacity");
    ws.active_links.push_back(static_cast<std::uint32_t>(l));
  }

  std::size_t remaining = ws.unfixed.size();
  std::size_t cap_cursor = 0;

  const auto freeze = [&](std::size_t f, Rate r) {
    ws.rate[f] = r;
    ws.fixed[f] = 1;
    --remaining;
    for (std::size_t i = span_begin(f); i < span_end(f); ++i) {
      const std::size_t l = ws.links[i];
      ws.avail[l] -= r;
      --ws.active[l];
    }
  };

  while (remaining > 0) {
    ++ws.rounds;
    // Water level achievable on each still-active link if all its unfixed
    // flows rise equally; drop exhausted links from the set as we go. The
    // binding constraint this round is the smallest of the link levels and
    // the smallest unfixed cap.
    Rate link_level = std::numeric_limits<Rate>::infinity();
    {
      std::size_t w = 0;
      for (std::size_t i = 0; i < ws.active_links.size(); ++i) {
        const std::uint32_t l = ws.active_links[i];
        if (ws.active[l] == 0) continue;
        ws.active_links[w++] = l;
        link_level = std::min(
            link_level,
            std::max(ws.avail[l], 0.0) / static_cast<Rate>(ws.active[l]));
      }
      ws.active_links.resize(w);
    }
    while (cap_cursor < ws.cap_order.size() &&
           ws.fixed[ws.cap_order[cap_cursor]]) {
      ++cap_cursor;
    }
    const Rate cap_level = cap_cursor < ws.cap_order.size()
                               ? ws.cap[ws.cap_order[cap_cursor]]
                               : std::numeric_limits<Rate>::infinity();

    if (cap_level <= link_level) {
      // Cap-bound flows saturate first: give them exactly their cap. This
      // is feasible because cap_level <= every link's equal-share level.
      while (cap_cursor < ws.cap_order.size()) {
        const std::uint32_t f = ws.cap_order[cap_cursor];
        if (ws.fixed[f]) {
          ++cap_cursor;
          continue;
        }
        if (ws.cap[f] > cap_level) break;
        freeze(f, ws.cap[f]);
        ++cap_cursor;
      }
    } else {
      // Some link saturates at link_level: freeze every unfixed flow that
      // crosses a link whose level equals the minimum.
      IDR_REQUIRE(std::isfinite(link_level),
                  "max_min: unbounded flows with no finite constraint");
      ws.sat_list.clear();
      for (const std::uint32_t l : ws.active_links) {
        const Rate level =
            std::max(ws.avail[l], 0.0) / static_cast<Rate>(ws.active[l]);
        // Tolerate fp noise when comparing levels.
        if (level <= link_level * (1.0 + 1e-12)) {
          ws.saturated[l] = 1;
          ws.sat_list.push_back(l);
        }
      }
      bool froze_any = false;
      std::size_t w = 0;
      for (std::size_t i = 0; i < ws.unfixed.size(); ++i) {
        const std::uint32_t f = ws.unfixed[i];
        if (ws.fixed[f]) continue;  // frozen by an earlier cap round
        bool hit = false;
        for (std::size_t j = span_begin(f); j < span_end(f); ++j) {
          if (ws.saturated[ws.links[j]]) {
            hit = true;
            break;
          }
        }
        if (hit) {
          freeze(f, link_level);
          froze_any = true;
          continue;
        }
        ws.unfixed[w++] = f;
      }
      ws.unfixed.resize(w);
      for (const std::uint32_t l : ws.sat_list) ws.saturated[l] = 0;
      IDR_REQUIRE(froze_any, "max_min: no progress (internal error)");
    }
  }
}

std::vector<Rate> max_min_allocate(const std::vector<Rate>& capacities,
                                   const std::vector<FlowDemand>& flows) {
  MaxMinWorkspace ws;
  ws.avail = capacities;
  ws.cap.reserve(flows.size());
  ws.offset.reserve(flows.size());
  for (const FlowDemand& d : flows) {
    ws.add_flow(d.cap);
    for (std::size_t l : d.links) ws.add_link(l);
  }
  max_min_allocate(ws);
  return std::move(ws.rate);
}

std::string check_max_min(const std::vector<Rate>& capacities,
                          const std::vector<FlowDemand>& flows,
                          const std::vector<Rate>& rates) {
  constexpr double kTol = 1e-9;
  const auto violation = [](const char* what, std::size_t i, double a,
                            double b) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s %zu: %.17g vs %.17g", what, i, a, b);
    return std::string(buf);
  };
  if (rates.size() != flows.size()) {
    return violation("rate count differs from flow count", 0,
                     static_cast<double>(rates.size()),
                     static_cast<double>(flows.size()));
  }

  std::vector<Rate> load(capacities.size(), 0.0);
  std::vector<Rate> top(capacities.size(), 0.0);  // highest rate per link
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const Rate r = rates[f];
    if (!(r >= 0.0)) return violation("negative rate: flow", f, r, 0.0);
    if (r > flows[f].cap * (1.0 + kTol)) {
      return violation("rate above cap: flow", f, r, flows[f].cap);
    }
    for (const std::size_t l : flows[f].links) {
      if (l >= capacities.size()) {
        return violation("unknown link on flow", f, static_cast<double>(l),
                         static_cast<double>(capacities.size()));
      }
      load[l] += r;
      top[l] = std::max(top[l], r);
    }
  }
  for (std::size_t l = 0; l < capacities.size(); ++l) {
    if (load[l] > capacities[l] * (1.0 + kTol)) {
      return violation("load above capacity: link", l, load[l],
                       capacities[l]);
    }
  }

  for (std::size_t f = 0; f < flows.size(); ++f) {
    const Rate r = rates[f];
    const FlowDemand& d = flows[f];
    if (r >= d.cap * (1.0 - kTol)) continue;  // at its cap
    bool bottlenecked = d.links.empty() && std::isinf(d.cap) && r == 0.0;
    for (const std::size_t l : d.links) {
      const bool saturated = load[l] >= capacities[l] * (1.0 - kTol);
      if (saturated && top[l] <= r * (1.0 + kTol)) {
        bottlenecked = true;
        break;
      }
    }
    if (!bottlenecked) return violation("no bottleneck: flow", f, r, d.cap);
  }
  return {};
}

}  // namespace idr::flow
