#include "flow/max_min.hpp"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "flow/flow_simulator.hpp"
#include "flow/tcp_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace idr::flow {
namespace {

constexpr Rate kInf = kUnlimitedRate;

FlowDemand demand(std::vector<std::size_t> links, Rate cap = kInf) {
  FlowDemand d;
  d.links = std::move(links);
  d.cap = cap;
  return d;
}

TEST(MaxMin, SingleFlowGetsBottleneck) {
  const auto rates = max_min_allocate({10.0, 4.0}, {demand({0, 1})});
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 4.0);
}

TEST(MaxMin, EqualShareOnSharedLink) {
  const auto rates =
      max_min_allocate({9.0}, {demand({0}), demand({0}), demand({0})});
  for (double r : rates) EXPECT_DOUBLE_EQ(r, 3.0);
}

TEST(MaxMin, TextbookThreeLinkExample) {
  // Links: L0 cap 10 shared by f0,f1; L1 cap 4 used by f1 only.
  // f1 bottlenecked at 4 on L1; f0 then takes the remaining 6 on L0.
  const auto rates =
      max_min_allocate({10.0, 4.0}, {demand({0}), demand({0, 1})});
  EXPECT_DOUBLE_EQ(rates[1], 4.0);
  EXPECT_DOUBLE_EQ(rates[0], 6.0);
}

TEST(MaxMin, CapFreesCapacityForOthers) {
  // Two flows share a 10-capacity link; one is capped at 2, the other
  // should absorb the slack (8), not stop at the equal share (5).
  const auto rates =
      max_min_allocate({10.0}, {demand({0}, 2.0), demand({0})});
  EXPECT_DOUBLE_EQ(rates[0], 2.0);
  EXPECT_DOUBLE_EQ(rates[1], 8.0);
}

TEST(MaxMin, CapAboveShareIsInert) {
  const auto rates =
      max_min_allocate({10.0}, {demand({0}, 100.0), demand({0})});
  EXPECT_DOUBLE_EQ(rates[0], 5.0);
  EXPECT_DOUBLE_EQ(rates[1], 5.0);
}

TEST(MaxMin, ZeroCapFlow) {
  const auto rates =
      max_min_allocate({10.0}, {demand({0}, 0.0), demand({0})});
  EXPECT_DOUBLE_EQ(rates[0], 0.0);
  EXPECT_DOUBLE_EQ(rates[1], 10.0);
}

TEST(MaxMin, EmptyPathGetsCapOrZero) {
  const auto rates =
      max_min_allocate({}, {demand({}, 7.0), demand({}, kInf)});
  EXPECT_DOUBLE_EQ(rates[0], 7.0);
  EXPECT_DOUBLE_EQ(rates[1], 0.0);
}

TEST(MaxMin, NoFlows) {
  EXPECT_TRUE(max_min_allocate({1.0, 2.0}, {}).empty());
}

TEST(MaxMin, UnboundedWithNoConstraintThrows) {
  // A flow with an unbounded cap must cross at least one finite link.
  EXPECT_NO_THROW(max_min_allocate({5.0}, {demand({0})}));
}

TEST(MaxMin, ParkingLotFairness) {
  // Classic parking-lot: one long flow over L0,L1,L2 (cap 1 each) plus a
  // short flow per link. Max-min gives everyone 0.5.
  const auto rates = max_min_allocate(
      {1.0, 1.0, 1.0},
      {demand({0, 1, 2}), demand({0}), demand({1}), demand({2})});
  for (double r : rates) EXPECT_DOUBLE_EQ(r, 0.5);
}

TEST(MaxMin, AsymmetricParkingLot) {
  // L0 cap 1 (long + short0), L1 cap 10 (long + short1).
  // long and short0 split L0 at 0.5; short1 then gets 9.5 on L1.
  const auto rates = max_min_allocate(
      {1.0, 10.0}, {demand({0, 1}), demand({0}), demand({1})});
  EXPECT_DOUBLE_EQ(rates[0], 0.5);
  EXPECT_DOUBLE_EQ(rates[1], 0.5);
  EXPECT_DOUBLE_EQ(rates[2], 9.5);
}

TEST(MaxMin, BadInputsThrow) {
  EXPECT_THROW(max_min_allocate({1.0}, {demand({5})}), util::Error);
  EXPECT_THROW(max_min_allocate({0.0}, {demand({0})}), util::Error);
  EXPECT_THROW(max_min_allocate({1.0}, {demand({0}, -1.0)}), util::Error);
}

// ---- The definition checker ---------------------------------------------

TEST(CheckMaxMin, AcceptsTheTextbookAllocation) {
  const std::vector<FlowDemand> flows = {demand({0}), demand({0, 1})};
  EXPECT_EQ(check_max_min({10.0, 4.0}, flows, {6.0, 4.0}), "");
  // A flow held at its cap needs no saturated link.
  EXPECT_EQ(check_max_min({10.0}, {demand({0}, 2.0)}, {2.0}), "");
  EXPECT_EQ(check_max_min({}, {demand({})}, {0.0}), "");
}

TEST(CheckMaxMin, RejectsEachViolatedCondition) {
  const std::vector<FlowDemand> flows = {demand({0}), demand({0, 1})};
  // Infeasible: link 0 carries 7 + 4 > 10.
  EXPECT_NE(check_max_min({10.0, 4.0}, flows, {7.0, 4.0}), "");
  // Feasible but not max-min: flow 0 could rise on unsaturated link 0.
  EXPECT_NE(check_max_min({10.0, 4.0}, flows, {5.0, 4.0}), "");
  // Feasible, link 0 saturated, but flow 1 is below flow 0 there and its
  // own link 1 has room: flow 1 is not bottlenecked.
  EXPECT_NE(check_max_min({10.0, 4.0}, flows, {7.0, 3.0}), "");
  // Above its cap.
  EXPECT_NE(check_max_min({10.0}, {demand({0}, 2.0)}, {3.0}), "");
  EXPECT_NE(check_max_min({10.0}, {demand({0})}, {-1.0}), "");
  EXPECT_NE(check_max_min({10.0}, {demand({0})}, {}), "");
}

// ---- Property tests over random instances --------------------------------

struct RandomInstance {
  std::vector<Rate> capacities;
  std::vector<FlowDemand> flows;
};

RandomInstance make_instance(std::uint64_t seed,
                             std::int64_t max_flows = 16) {
  util::Rng rng(seed);
  RandomInstance inst;
  const auto links = static_cast<std::size_t>(rng.uniform_int(1, 12));
  for (std::size_t l = 0; l < links; ++l) {
    inst.capacities.push_back(rng.uniform(0.5, 20.0));
  }
  const auto flows = static_cast<std::size_t>(rng.uniform_int(1, max_flows));
  for (std::size_t f = 0; f < flows; ++f) {
    const auto hop_count = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(links)));
    FlowDemand d;
    d.links = rng.sample_without_replacement(links, hop_count);
    d.cap = rng.bernoulli(0.4) ? rng.uniform(0.1, 10.0) : kInf;
    inst.flows.push_back(std::move(d));
  }
  return inst;
}

class MaxMinProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxMinProperty, FeasibilityAndBottleneckOptimality) {
  const RandomInstance inst = make_instance(GetParam());
  const auto rates = max_min_allocate(inst.capacities, inst.flows);
  ASSERT_EQ(rates.size(), inst.flows.size());
  EXPECT_EQ(check_max_min(inst.capacities, inst.flows, rates), "");
}

// Larger instances (up to 96 flows, the size of sim_dense's largest
// components) must meet the definition too.
TEST_P(MaxMinProperty, LargeInstancesMeetTheDefinition) {
  const RandomInstance inst = make_instance(GetParam() + 1000, 96);
  const auto rates = max_min_allocate(inst.capacities, inst.flows);
  EXPECT_EQ(check_max_min(inst.capacities, inst.flows, rates), "");
}

// Cap-bound instances: every cap finite (some zero, some equal to each
// other) and each link's capacity above the caps crossing it, by as little
// as 2e-9 relative. FlowSimulator skips the solver for such components
// and gives every flow its cap; the solver must agree bit for bit.
TEST_P(MaxMinProperty, CapBoundInstancesReturnExactlyTheCaps) {
  util::Rng rng(GetParam() + 2000);
  const auto links = static_cast<std::size_t>(rng.uniform_int(1, 8));
  const auto flows = static_cast<std::size_t>(rng.uniform_int(1, 96));
  const Rate shared_cap = rng.uniform(0.1, 10.0);
  std::vector<FlowDemand> demands;
  std::vector<Rate> load(links, 0.0);
  for (std::size_t f = 0; f < flows; ++f) {
    const auto hops = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(links)));
    FlowDemand d;
    d.links = rng.sample_without_replacement(links, hops);
    const double kind = rng.uniform();
    d.cap = kind < 0.2 ? 0.0 : kind < 0.5 ? shared_cap : rng.uniform(0.1, 10.0);
    for (const std::size_t l : d.links) load[l] += d.cap;
    demands.push_back(std::move(d));
  }
  std::vector<Rate> capacities(links);
  for (std::size_t l = 0; l < links; ++l) {
    const double headroom = rng.bernoulli(0.5) ? rng.uniform(2e-9, 1e-8)
                                               : rng.uniform(0.01, 3.0);
    capacities[l] =
        load[l] > 0.0 ? load[l] * (1.0 + headroom) : rng.uniform(0.5, 20.0);
  }
  const std::vector<Rate> rates = max_min_allocate(capacities, demands);
  for (std::size_t f = 0; f < flows; ++f) {
    ASSERT_EQ(rates[f], demands[f].cap) << "flow " << f;
  }
  EXPECT_EQ(check_max_min(capacities, demands, rates), "");
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MaxMinProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

// Caps that fill a link exactly (their floating-point sum equals its
// capacity) leave no margin, so FlowSimulator runs the solver: the last
// arrival's recompute runs progressive-filling rounds, and the rates match
// a from-scratch solve, whether or not they come out at the caps.
TEST(MaxMinExactFit, SimulatorRunsTheSolverAndMatchesScratch) {
  const std::vector<std::vector<Rate>> cap_sets = {
      {1e6, 2e6, 3e6, 1.5e6}, {1e6 / 3.0, 1e6 / 3.0, 1e6 / 3.0}};
  for (const std::vector<Rate>& caps : cap_sets) {
    Rate capacity = 0.0;
    for (const Rate c : caps) capacity += c;
    sim::Simulator sim;
    net::Topology topo;
    const auto a = topo.add_node("a");
    const auto b = topo.add_node("b");
    const net::Path p{{topo.add_link(a, b, capacity, 0.01)}};
    FlowSimulator fsim(sim, topo, util::Rng(14));
    std::vector<FlowId> ids;
    std::vector<FlowDemand> demands;
    for (const Rate c : caps) {
      const FlowSimulator::Counters before = fsim.counters();
      FlowOptions opt;
      opt.model_slow_start = false;
      opt.ceiling_override = c;
      ids.push_back(fsim.start_flow(p, 1e12, opt, nullptr));
      demands.push_back(demand({0}, c));
      const FlowSimulator::Counters after = fsim.counters();
      // Every arrival but the last leaves room on the link.
      const bool last = ids.size() == caps.size();
      EXPECT_EQ(after.solver_bypasses - before.solver_bypasses, last ? 0u : 1u);
      EXPECT_EQ(after.maxmin_rounds > before.maxmin_rounds, last);
    }
    const std::vector<Rate> expect = max_min_allocate({capacity}, demands);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(fsim.current_rate(ids[i]), expect[i]) << "flow " << i;
    }
    std::vector<Rate> rates;
    for (const FlowId id : ids) rates.push_back(fsim.current_rate(id));
    EXPECT_EQ(check_max_min({capacity}, demands, rates), "");
  }
}

// ---- Workspace entry point -----------------------------------------------

void fill_workspace(MaxMinWorkspace& ws, const RandomInstance& inst) {
  ws.clear();
  ws.avail = inst.capacities;
  for (const FlowDemand& d : inst.flows) {
    ws.add_flow(d.cap);
    for (const std::size_t l : d.links) ws.add_link(l);
  }
}

TEST(MaxMinWorkspace, MatchesVectorSignatureBitwise) {
  // One workspace reused across all instances: also exercises clear()
  // leaving no state behind between solves.
  MaxMinWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const RandomInstance inst = make_instance(seed);
    const auto expect = max_min_allocate(inst.capacities, inst.flows);
    fill_workspace(ws, inst);
    max_min_allocate(ws);
    ASSERT_EQ(ws.rate.size(), expect.size()) << "seed " << seed;
    for (std::size_t f = 0; f < expect.size(); ++f) {
      EXPECT_EQ(ws.rate[f], expect[f]) << "seed " << seed << " flow " << f;
    }
  }
}

TEST(MaxMinWorkspace, CountsProgressiveFillingRounds) {
  // Textbook three-link example: round 1 saturates L1 (freezing f1), round
  // 2 saturates L0 (freezing f0).
  MaxMinWorkspace ws;
  ws.avail = {10.0, 4.0};
  ws.add_flow(kInf);
  ws.add_link(0);
  ws.add_flow(kInf);
  ws.add_link(0);
  ws.add_link(1);
  max_min_allocate(ws);
  EXPECT_DOUBLE_EQ(ws.rate[0], 6.0);
  EXPECT_DOUBLE_EQ(ws.rate[1], 4.0);
  EXPECT_EQ(ws.rounds, 2u);
}

TEST(MaxMinWorkspace, ReportsLeftoverCapacity) {
  // avail holds residual capacity after the solve: a capped flow leaves
  // headroom behind.
  MaxMinWorkspace ws;
  ws.avail = {10.0};
  ws.add_flow(2.0);
  ws.add_link(0);
  max_min_allocate(ws);
  EXPECT_DOUBLE_EQ(ws.rate[0], 2.0);
  EXPECT_DOUBLE_EQ(ws.avail[0], 8.0);
  EXPECT_EQ(ws.rounds, 1u);
}

}  // namespace
}  // namespace idr::flow
