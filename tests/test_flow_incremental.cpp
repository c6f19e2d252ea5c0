// Tests for the scoped incremental reallocation path of FlowSimulator.
//
// The core contract: confining each recompute to the connected component
// of the changed flow/link produces rates *bitwise identical* to a
// from-scratch global max-min allocation (the decomposition is exact, and
// the canonical ascending-id flow order fixes the floating-point op
// sequence). The property test churns flows over a random topology and
// compares against the pure allocator at checkpoints; the counter
// regression pins exact work counts for a scripted scenario so an
// accidental return to global recomputes fails loudly. The event-skip and
// capacity-clamp fixes riding on the same path are covered at the end.
#include "flow/flow_simulator.hpp"

#include <gtest/gtest.h>
#include <map>

#include "flow/max_min.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace idr::flow {
namespace {

using util::mbps;
using util::milliseconds;

// --- Bitwise agreement with the from-scratch allocator --------------------

// What the test knows about each live flow; enough to rebuild the global
// allocation problem independently of the simulator's internals.
struct Tracked {
  std::vector<std::size_t> links;
  Rate ceiling = 0.0;
  Rate extra_cap = kUnlimitedRate;
};

class IncrementalMatchesScratch
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalMatchesScratch, RatesBitwiseEqualUnderChurn) {
  util::Rng rng(GetParam());

  sim::Simulator sim;
  net::Topology topo;
  const auto link_count = static_cast<std::size_t>(rng.uniform_int(3, 10));
  net::NodeId prev = topo.add_node("n0");
  for (std::size_t l = 0; l < link_count; ++l) {
    const net::NodeId next = topo.add_node("n" + std::to_string(l + 1));
    topo.add_link(prev, next, rng.uniform(1e5, 4e6), milliseconds(10));
    prev = next;
  }
  FlowSimulator fsim(sim, topo, util::Rng(GetParam() ^ 0xf10f));

  // Keep link 0 time-varying so capacity-change events interleave with the
  // flow churn.
  class Jitter final : public net::CapacityProcess {
   public:
    Rate initial(util::Rng& r) override { return r.uniform(5e5, 2e6); }
    net::CapacityChange next(util::Rng& r) override {
      return {0.4, r.uniform(5e4, 2e6)};
    }
  };
  fsim.attach_capacity_process(0, std::make_unique<Jitter>());

  std::map<FlowId, Tracked> live;  // ordered: ascending id

  // Pre-sample every arrival (and its follow-up actions) so the RNG draw
  // sequence does not depend on event interleaving.
  struct Arrival {
    double at = 0.0;
    std::vector<std::size_t> links;
    double size = 0.0;
    Rate ceiling = 0.0;
    double recap_at = -1.0;  // set_extra_cap time; < 0 = never
    Rate recap = kUnlimitedRate;
    double cancel_at = -1.0;
  };
  std::vector<Arrival> plan(30);
  for (Arrival& a : plan) {
    a.at = rng.uniform(0.0, 8.0);
    const auto hops = static_cast<std::size_t>(
        rng.uniform_int(1, std::min<std::int64_t>(4, link_count)));
    a.links = rng.sample_without_replacement(link_count, hops);
    a.size = rng.uniform(5e4, 5e6);
    a.ceiling = rng.bernoulli(0.5) ? rng.uniform(5e4, 2e6) : 1e9;
    if (rng.bernoulli(0.5)) {
      a.recap_at = a.at + rng.uniform(0.1, 2.0);
      a.recap =
          rng.bernoulli(0.2) ? kUnlimitedRate : rng.uniform(2e4, 2e6);
    }
    if (rng.bernoulli(0.25)) a.cancel_at = a.at + rng.uniform(0.2, 3.0);
  }

  for (const Arrival& a : plan) {
    sim.schedule_at(a.at, [&, a] {
      FlowOptions opt;
      opt.model_slow_start = false;
      opt.rtt = 0.05;
      opt.ceiling_override = a.ceiling;
      net::Path path;
      for (const std::size_t l : a.links) {
        path.links.push_back(static_cast<net::LinkId>(l));
      }
      const FlowId id = fsim.start_flow(
          path, a.size, opt,
          [&live](const FlowStats& s) { live.erase(s.id); });
      live.emplace(id, Tracked{a.links, a.ceiling, kUnlimitedRate});
      if (a.recap_at >= a.at) {
        sim.schedule_at(a.recap_at, [&, id, cap = a.recap] {
          if (!fsim.flow_active(id)) return;
          fsim.set_extra_cap(id, cap);
          live.at(id).extra_cap = cap;
        });
      }
      if (a.cancel_at >= a.at) {
        sim.schedule_at(a.cancel_at, [&, id] {
          if (fsim.cancel_flow(id)) live.erase(id);
        });
      }
    });
  }

  for (const double checkpoint : {2.0, 4.0, 6.0, 8.0, 10.0}) {
    sim.run_until(checkpoint);
    std::vector<Rate> capacities(topo.link_count());
    for (std::size_t l = 0; l < capacities.size(); ++l) {
      capacities[l] = topo.link(static_cast<net::LinkId>(l)).capacity;
    }
    std::vector<FlowDemand> demands;
    std::vector<FlowId> ids;
    for (const auto& [id, t] : live) {
      FlowDemand d;
      d.links = t.links;
      // Mirror FlowSimulator::effective_cap for a flow with slow start off
      // and the default cap_scale, term by term, so the caps fed to the
      // reference allocator are bitwise those the simulator used.
      d.cap = std::min(t.ceiling * 1.0, t.extra_cap);
      demands.push_back(std::move(d));
      ids.push_back(id);
    }
    const std::vector<Rate> expect = max_min_allocate(capacities, demands);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(expect[i], fsim.current_rate(ids[i]))
          << "flow " << ids[i] << " at t=" << checkpoint;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomChurn, IncrementalMatchesScratch,
                         ::testing::Range<std::uint64_t>(1, 26));

// --- Counter regression: scoped work, pinned exactly ----------------------

TEST(FlowSimulatorCounters, ScriptedScenarioPinsWorkCounts) {
  sim::Simulator sim;
  net::Topology topo;
  const auto a1 = topo.add_node("a1");
  const auto a2 = topo.add_node("a2");
  const auto b1 = topo.add_node("b1");
  const auto b2 = topo.add_node("b2");
  const net::Path pa{{topo.add_link(a1, a2, mbps(8.0), 0.01)}};
  const net::Path pb{{topo.add_link(b1, b2, mbps(8.0), 0.01)}};
  FlowSimulator fsim(sim, topo, util::Rng(3));

  FlowOptions opt;
  opt.model_slow_start = false;
  opt.rtt = 0.1;
  opt.ceiling_override = 1e9;  // never binding at these capacities

  // Two independent single-link components, two flows each.
  const FlowId f1 = fsim.start_flow(pa, 1e12, opt, nullptr);
  const FlowId f2 = fsim.start_flow(pa, 1e12, opt, nullptr);
  const FlowId f3 = fsim.start_flow(pb, 1e12, opt, nullptr);
  const FlowId f4 = fsim.start_flow(pb, 1e12, opt, nullptr);
  EXPECT_EQ(fsim.current_rate(f1), 0.5e6);
  EXPECT_EQ(fsim.current_rate(f3), 0.5e6);

  // Cap f1 below its share: only component A may be touched.
  fsim.set_extra_cap(f1, 2e5);
  EXPECT_EQ(fsim.current_rate(f1), 2e5);
  EXPECT_EQ(fsim.current_rate(f2), 8e5);
  EXPECT_EQ(fsim.current_rate(f3), 0.5e6);
  EXPECT_EQ(fsim.current_rate(f4), 0.5e6);

  // Re-posting the same cap is proven rate-neutral without a recompute.
  fsim.set_extra_cap(f1, 2e5);

  // Departure in component B touches only the survivor there.
  EXPECT_TRUE(fsim.cancel_flow(f3));
  EXPECT_EQ(fsim.current_rate(f4), 1e6);

  // Exact work ledger for the six rate-affecting events above (4 arrivals,
  // 1 binding cap change, 1 cancellation). flows_touched counts component
  // members only: 1+2+1+2 for the arrivals, 2 for the cap change, 1 for
  // the survivor — a global recompute would give 1+2+3+4+4+3 = 17 instead.
  const FlowSimulator::Counters& c = fsim.counters();
  EXPECT_EQ(c.reallocations, 6u);
  EXPECT_EQ(c.flows_touched, 9u);
  EXPECT_EQ(c.maxmin_rounds, 7u);
  EXPECT_EQ(c.timer_rearms, 9u);
  EXPECT_EQ(c.skipped_events, 1u);
  // Re-arms of already-armed timers move the event in place instead of
  // cancelling and re-scheduling: 2 at arrival time (f1 when f2 joins its
  // link, f3 when f4 joins), f1+f2 on the cap change, f4 on f3's
  // departure. Only f3's abort is an actual cancellation.
  EXPECT_EQ(sim.cancellations(), 1u);
  EXPECT_EQ(sim.reschedules(), 5u);
}

// --- Event-skip and clamp fixes -------------------------------------------

TEST(FlowSimulatorCounters, UnchangedExtraCapSkipsRecompute) {
  sim::Simulator sim;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const net::Path p{{topo.add_link(a, b, mbps(8.0), 0.01)}};
  FlowSimulator fsim(sim, topo, util::Rng(4));
  FlowOptions opt;
  opt.model_slow_start = false;
  const FlowId id = fsim.start_flow(p, 1e9, opt, nullptr);

  fsim.set_extra_cap(id, 1e5);
  const std::uint64_t before = fsim.counters().reallocations;
  fsim.set_extra_cap(id, 1e5);  // relay coupling re-posts unchanged caps
  EXPECT_EQ(fsim.counters().reallocations, before);
  EXPECT_EQ(fsim.counters().skipped_events, 1u);
  EXPECT_EQ(fsim.current_rate(id), 1e5);
}

TEST(FlowSimulatorCounters, NonBindingSlowStartRoundsSkipRecompute) {
  sim::Simulator sim;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const net::Path p{{topo.add_link(a, b, mbps(800.0), milliseconds(50))}};
  FlowSimulator fsim(sim, topo, util::Rng(5));
  FlowOptions opt;  // slow start on
  opt.ceiling_override = 1e9;
  const FlowId id = fsim.start_flow(p, 1e15, opt, nullptr);

  // The ramp crosses the link share (1e8 B/s) around round 10; later
  // rounds relax a cap that is no longer binding and must not recompute.
  sim.run_until(3.0);
  EXPECT_EQ(fsim.current_rate(id), 1e8);
  EXPECT_GT(fsim.counters().skipped_events, 0u);
}

TEST(FlowSimulator, InitialCapacityDrawIsClampedLikeLaterOnes) {
  sim::Simulator sim;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const auto link = topo.add_link(a, b, mbps(8.0), 0.01);
  FlowSimulator fsim(sim, topo, util::Rng(6));

  // A process whose every draw is degenerate (well under the 1 B/s floor).
  class Tiny final : public net::CapacityProcess {
   public:
    Rate initial(util::Rng&) override { return 0.25; }
    net::CapacityChange next(util::Rng&) override { return {0.5, 0.125}; }
  };
  fsim.attach_capacity_process(link, std::make_unique<Tiny>());
  EXPECT_EQ(fsim.link_capacity(link), 1.0);

  // Subsequent draws clamp to the same floor, which also makes them
  // detectably no-ops. An idle link's process stays parked, so a flow
  // holds the link busy to make the changes fire as events.
  FlowOptions opt;
  opt.model_slow_start = false;
  fsim.start_flow(net::Path{{link}}, 1e6, opt, nullptr);
  sim.run_until(1.1);
  EXPECT_EQ(sim.executed(sim::EventKind::kCapacity), 2u);  // t = 0.5, 1.0
  EXPECT_EQ(fsim.link_capacity(link), 1.0);
  EXPECT_GE(fsim.counters().skipped_events, 2u);
}

}  // namespace
}  // namespace idr::flow
