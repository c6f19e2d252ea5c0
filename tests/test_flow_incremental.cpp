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

#include <functional>
#include <gtest/gtest.h>
#include <map>

#include "flow/max_min.hpp"
#include "util/error.hpp"
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
    const net::NodeId next =
        topo.add_node(std::string("n").append(std::to_string(l + 1)));
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

  // The live problem as the reference allocator sees it. A link carrying
  // flows has its capacity current in the topology.
  std::vector<Rate> capacities;
  std::vector<FlowDemand> demands;
  std::vector<FlowId> ids;
  std::vector<Rate> rates;
  const auto snapshot = [&] {
    capacities.assign(topo.link_count(), 0.0);
    for (std::size_t l = 0; l < capacities.size(); ++l) {
      capacities[l] = topo.link(static_cast<net::LinkId>(l)).capacity;
    }
    demands.clear();
    ids.clear();
    rates.clear();
    for (const auto& [id, t] : live) {
      FlowDemand d;
      d.links = t.links;
      // Mirror FlowSimulator::effective_cap for a flow with slow start off
      // and the default cap_scale, term by term, so the caps fed to the
      // reference allocator are bitwise those the simulator used.
      d.cap = std::min(t.ceiling * 1.0, t.extra_cap);
      demands.push_back(std::move(d));
      ids.push_back(id);
      rates.push_back(fsim.current_rate(id));
    }
  };

  for (const double checkpoint : {2.0, 4.0, 6.0, 8.0, 10.0}) {
    // Every churn step leaves an allocation that meets the definition.
    while (!sim.empty() && sim.next_event_time() <= checkpoint) {
      sim.step();
      snapshot();
      ASSERT_EQ(check_max_min(capacities, demands, rates), "")
          << "after the event at t=" << sim.now();
    }
    sim.run_until(checkpoint);
    snapshot();
    const std::vector<Rate> expect = max_min_allocate(capacities, demands);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(expect[i], rates[i])
          << "flow " << ids[i] << " at t=" << checkpoint;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomChurn, IncrementalMatchesScratch,
                         ::testing::Range<std::uint64_t>(1, 26));

// --- Dense components: slow start and slot reuse ---------------------------

// The cap FlowSimulator applies to a flow with cap_scale 1 whose ramp was
// stepped eagerly: round k falls due at start + rtt summed k + 1 times
// (the simulator's `ss_next += rtt`), and the ramp ends once its cap
// reaches the ceiling. Rounds due at `now` count as run, so callers check
// after every event due at `now` has fired. A parked ramp lags this, but
// only while its cap is not binding, which leaves every rate bitwise
// unchanged.
Rate eager_cap(const TcpConfig& tcp, TimePoint start, Duration rtt,
               Rate ceiling, Rate extra_cap, TimePoint now) {
  TimePoint due = start + rtt;
  int round = 0;
  Rate tcp_cap = std::min(slow_start_cap(tcp, rtt, 0), ceiling);
  while (due <= now) {
    ++round;
    const Rate ss_cap = slow_start_cap(tcp, rtt, round);
    if (ss_cap >= ceiling) {
      tcp_cap = ceiling;
      break;
    }
    tcp_cap = std::min(ss_cap, ceiling);
    due += rtt;
  }
  return std::min(tcp_cap * 1.0, extra_cap);
}

// Ramping transfers over a chain of links whose link 0 carries a capacity
// process. Each completion or cancellation starts the next planned
// transfer from inside its callback, which puts it in the slot the
// departing flow just freed. Tests fill `plan`, schedule the first starts
// and compare against a from-scratch solve when no event is due.
struct RampChurn {
  struct Transfer {
    std::size_t path = 0;
    double size = 0.0;
    Duration rtt = 0.0;
    Rate ceiling = 0.0;
    double recap_after = -1.0;  // set_extra_cap delay; < 0 = never
    Rate recap = kUnlimitedRate;
    double cancel_after = -1.0;
  };
  struct Tracked {
    std::size_t path = 0;
    TimePoint start = 0.0;
    Duration rtt = 0.0;
    Rate ceiling = 0.0;
    Rate extra_cap = kUnlimitedRate;
  };

  RampChurn(const std::vector<Rate>& capacities, std::uint64_t seed,
            std::unique_ptr<net::CapacityProcess> link0,
            std::vector<std::vector<std::size_t>> paths_in)
      : fsim(sim, topo, util::Rng(seed)), paths(std::move(paths_in)) {
    net::NodeId prev = topo.add_node("n0");
    for (std::size_t l = 0; l < capacities.size(); ++l) {
      const net::NodeId next_node =
          topo.add_node(std::string("n").append(std::to_string(l + 1)));
      topo.add_link(prev, next_node, capacities[l], milliseconds(10));
      prev = next_node;
    }
    fsim.attach_capacity_process(0, std::move(link0));
  }
  RampChurn(const RampChurn&) = delete;
  RampChurn& operator=(const RampChurn&) = delete;

  void start_next() {
    if (next == plan.size()) return;
    const Transfer& t = plan[next++];
    FlowOptions opt;  // slow start on
    opt.rtt = t.rtt;
    opt.ceiling_override = t.ceiling;
    net::Path path;
    for (const std::size_t l : paths[t.path]) {
      path.links.push_back(static_cast<net::LinkId>(l));
    }
    const FlowId id = fsim.start_flow(path, t.size, opt,
                                      [this](const FlowStats& s) {
                                        ASSERT_EQ(live.erase(s.id), 1u);
                                        ++completions;
                                        start_next();
                                      });
    live.emplace(id, Tracked{t.path, sim.now(), t.rtt, t.ceiling,
                             kUnlimitedRate});
    if (t.recap_after >= 0.0) {
      sim.schedule_in(t.recap_after, [this, id, cap = t.recap] {
        if (!fsim.flow_active(id)) return;
        fsim.set_extra_cap(id, cap);
        live.at(id).extra_cap = cap;
      });
    }
    if (t.cancel_after >= 0.0) {
      sim.schedule_in(t.cancel_after, [this, id] {
        if (!fsim.cancel_flow(id)) return;
        live.erase(id);
        start_next();
      });
    }
  }

  // Every live rate equals, bit for bit, a from-scratch solve with the
  // eager ramp caps at `now` (after every event due at `now` has run), and
  // meets the max-min definition.
  void expect_matches_scratch(TimePoint now) {
    ASSERT_EQ(live.size(), fsim.active_flows());
    std::vector<Rate> capacities(topo.link_count());
    for (std::size_t l = 0; l < capacities.size(); ++l) {
      capacities[l] = topo.link(static_cast<net::LinkId>(l)).capacity;
    }
    std::vector<FlowDemand> demands;
    std::vector<Rate> rates;
    for (const auto& [id, t] : live) {
      FlowDemand& d = demands.emplace_back();
      d.links = paths[t.path];
      d.cap = eager_cap(tcp, t.start, t.rtt, t.ceiling, t.extra_cap, now);
      rates.push_back(fsim.current_rate(id));
    }
    const std::vector<Rate> expect = max_min_allocate(capacities, demands);
    for (std::size_t i = 0; i < rates.size(); ++i) {
      ASSERT_EQ(expect[i], rates[i]) << "flow #" << i << " at t=" << now;
    }
    ASSERT_EQ(check_max_min(capacities, demands, rates), "") << "t=" << now;
  }

  sim::Simulator sim;
  net::Topology topo;
  FlowSimulator fsim;
  const std::vector<std::vector<std::size_t>> paths;
  const TcpConfig tcp{};
  std::vector<Transfer> plan;
  std::map<FlowId, Tracked> live;  // ordered: ascending id
  std::size_t next = 0;
  std::size_t completions = 0;
};

// A capacity process drawing uniformly from a range at a fixed dwell.
class UniformJitter final : public net::CapacityProcess {
 public:
  UniformJitter(Rate initial_lo, Rate initial_hi, Duration dwell, Rate lo,
                Rate hi)
      : initial_lo_(initial_lo),
        initial_hi_(initial_hi),
        dwell_(dwell),
        lo_(lo),
        hi_(hi) {}
  Rate initial(util::Rng& r) override {
    return r.uniform(initial_lo_, initial_hi_);
  }
  net::CapacityChange next(util::Rng& r) override {
    return {dwell_, r.uniform(lo_, hi_)};
  }

 private:
  Rate initial_lo_, initial_hi_;
  Duration dwell_;
  Rate lo_, hi_;
};

class DenseChurn : public ::testing::TestWithParam<std::uint64_t> {};

// The shape of a client whose downloads pile up: dozens of concurrent
// ramping flows on a handful of links, most of them on identical paths.
TEST_P(DenseChurn, RatesBitwiseEqualWithSlowStartAndSlotReuse) {
  util::Rng rng(GetParam());
  std::vector<Rate> capacities(6);
  for (Rate& c : capacities) c = rng.uniform(4e6, 2e7);
  // Link 0 is the client's access link; paths 4 and 5 join the cross
  // link 5 to it through link 1, so every flow is in one component.
  RampChurn w(capacities, GetParam() ^ 0xde05e,
              std::make_unique<UniformJitter>(4e6, 2e7, 0.7, 2e6, 2e7),
              {{0}, {0, 1}, {0, 2}, {0, 3, 4}, {5}, {1, 5}});

  w.plan.resize(240);
  for (RampChurn::Transfer& t : w.plan) {
    // Two thirds of the transfers share the busiest path.
    t.path = rng.bernoulli(0.66)
                 ? 1
                 : static_cast<std::size_t>(rng.uniform_int(0, 5));
    t.size = rng.uniform(2e5, 3e6);
    t.rtt = rng.bernoulli(0.5) ? 0.05 : 0.08;
    t.ceiling = rng.bernoulli(0.3) ? rng.uniform(1e5, 1e6) : 1e9;
    if (rng.bernoulli(0.2)) {
      t.recap_after = rng.uniform(0.05, 2.0);
      t.recap = rng.uniform(2e4, 5e5);
    }
    if (rng.bernoulli(0.1)) t.cancel_after = rng.uniform(0.1, 3.0);
  }
  for (std::size_t i = 0; i < 64; ++i) {
    w.sim.schedule_at(rng.uniform(0.0, 0.5), [&w] { w.start_next(); });
  }

  std::size_t peak = 0;
  std::size_t checks = 0;
  for (int k = 0; k < 60; ++k) {
    // Off the event grid: no round, completion or capacity change falls
    // due exactly at a checkpoint.
    const TimePoint checkpoint = 0.5 * k + 0.3137;
    w.sim.run_until(checkpoint);
    if (w.live.empty()) break;
    peak = std::max(peak, w.live.size());
    ASSERT_NO_FATAL_FAILURE(w.expect_matches_scratch(checkpoint));
    ++checks;
  }
  EXPECT_GE(peak, 60u);
  EXPECT_GT(checks, 10u);
  EXPECT_GT(w.completions, 100u);
}

INSTANTIATE_TEST_SUITE_P(DenseSlowStart, DenseChurn,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- Cap-bound components: solver bypass and in-place rounds --------------

class CapBoundChurn : public ::testing::TestWithParam<std::uint64_t> {};

// Ramping flows with small ceilings on wide links. Most of the time every
// flow sits at its cap: recomputes bypass the solver and binding rounds
// update their flow in place. Now and then the caps on link 0 add up past
// its capacity, which its process moves, and the full solver runs.
TEST_P(CapBoundChurn, RatesBitwiseEqualAfterEveryEvent) {
  util::Rng rng(GetParam());
  std::vector<Rate> capacities(5);
  for (Rate& c : capacities) c = rng.uniform(2e7, 4e7);
  RampChurn w(capacities, GetParam() ^ 0xcab0,
              std::make_unique<UniformJitter>(1e7, 4e7, 0.9, 4e6, 4e7),
              {{0}, {0, 1}, {0, 2}, {1, 3}, {4}, {3, 4}});

  w.plan.resize(200);
  for (RampChurn::Transfer& t : w.plan) {
    t.path = static_cast<std::size_t>(rng.uniform_int(0, 5));
    t.size = rng.uniform(1e5, 2e6);
    t.rtt = rng.bernoulli(0.5) ? 0.05 : 0.08;
    t.ceiling = rng.uniform(2e5, 2e6);
    if (rng.bernoulli(0.15)) {
      t.recap_after = rng.uniform(0.05, 1.5);
      t.recap = rng.uniform(1e5, 1e6);
    }
    if (rng.bernoulli(0.05)) t.cancel_after = rng.uniform(0.1, 2.0);
  }
  for (std::size_t i = 0; i < 24; ++i) {
    w.sim.schedule_at(rng.uniform(0.0, 0.5), [&w] { w.start_next(); });
  }

  std::size_t checks = 0;
  while (!w.sim.empty()) {
    w.sim.step();
    // Check once every event due now has run (in practice, after every
    // event: no two of this workload's events share a time stamp).
    if (!w.sim.empty() && w.sim.next_event_time() <= w.sim.now()) continue;
    ASSERT_NO_FATAL_FAILURE(w.expect_matches_scratch(w.sim.now()));
    ++checks;
  }
  EXPECT_GT(w.completions, 150u);
  EXPECT_GT(checks, 1000u);
  const FlowSimulator::Counters c = w.fsim.counters();
  EXPECT_GT(c.solver_bypasses, 0u);
  EXPECT_GT(c.maxmin_rounds, 0u);  // only full solves run rounds
}

INSTANTIATE_TEST_SUITE_P(CapBound, CapBoundChurn,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- Stale handles after slot reuse ----------------------------------------

TEST(FlowSimulatorSlots, StaleIdIsInactiveAfterCompletion) {
  sim::Simulator sim;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const net::Path p{{topo.add_link(a, b, mbps(8.0), 0.01)}};
  FlowSimulator fsim(sim, topo, util::Rng(9));
  FlowOptions opt;
  opt.model_slow_start = false;

  const FlowId first = fsim.start_flow(p, 1e5, opt, nullptr);
  sim.run();
  EXPECT_FALSE(fsim.flow_active(first));
  EXPECT_FALSE(fsim.cancel_flow(first));
  EXPECT_THROW(fsim.current_rate(first), util::Error);
  EXPECT_THROW(fsim.bytes_remaining(first), util::Error);

  // The next flow takes the freed slot under a new id; the old id still
  // names nothing.
  const FlowId second = fsim.start_flow(p, 1e5, opt, nullptr);
  EXPECT_GT(second, first);
  EXPECT_FALSE(fsim.flow_active(first));
  EXPECT_FALSE(fsim.cancel_flow(first));
  EXPECT_TRUE(fsim.flow_active(second));
  EXPECT_EQ(fsim.active_flows(), 1u);
  EXPECT_TRUE(fsim.cancel_flow(second));
  EXPECT_FALSE(fsim.cancel_flow(second));
}

TEST(FlowSimulatorSlots, SimultaneousCompletionsFireInIdOrder) {
  sim::Simulator sim;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const net::Path p{{topo.add_link(a, b, mbps(8.0), 0.01)}};
  FlowSimulator fsim(sim, topo, util::Rng(11));
  FlowOptions opt;
  opt.model_slow_start = false;

  // Flows 1 and 2 take slots 0 and 1 and free them in that order, so the
  // next two flows take them back the other way round: 3 lands in slot 1,
  // 4 in slot 0.
  const FlowId f1 = fsim.start_flow(p, 1e6, opt, nullptr);
  const FlowId f2 = fsim.start_flow(p, 1e6, opt, nullptr);
  ASSERT_TRUE(fsim.cancel_flow(f1));
  ASSERT_TRUE(fsim.cancel_flow(f2));
  std::vector<FlowId> done;
  const auto record = [&](const FlowStats& s) { done.push_back(s.id); };
  const FlowId f3 = fsim.start_flow(p, 1e6, opt, record);
  const FlowId f4 = fsim.start_flow(p, 1e6, opt, record);

  // Equal sizes and rates from the same instant: both drain at once, and
  // the tie goes to the completion timer armed first. Timers are re-armed
  // in ascending id order, whichever slots the flows occupy.
  sim.run();
  EXPECT_EQ(done, (std::vector<FlowId>{f3, f4}));
}

TEST(FlowSimulatorSlots, CapBoundRecomputeReArmsInIdOrder) {
  sim::Simulator sim;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const net::Path p{{topo.add_link(a, b, mbps(8.0), 0.01)}};
  FlowSimulator fsim(sim, topo, util::Rng(15));
  FlowOptions wide;
  wide.model_slow_start = false;
  FlowOptions capped = wide;
  capped.ceiling_override = 4e5;

  // The link lists its users as {wide, f1, f2}; removing `wide` swaps f2
  // into its place, so the departure's recompute discovers f2 before f1.
  // Both rise from a third of the link to their 4e5 cap in one bypassed
  // recompute, with equal bytes left: the completion re-armed first wins
  // the tie, and that must be the lower id.
  const FlowId wide_id = fsim.start_flow(p, 1e9, wide, nullptr);
  std::vector<FlowId> done;
  const auto record = [&](const FlowStats& s) { done.push_back(s.id); };
  const FlowId f1 = fsim.start_flow(p, 1e6, capped, record);
  const FlowId f2 = fsim.start_flow(p, 1e6, capped, record);
  const std::uint64_t bypasses = fsim.counters().solver_bypasses;
  ASSERT_TRUE(fsim.cancel_flow(wide_id));
  EXPECT_EQ(fsim.counters().solver_bypasses, bypasses + 1);
  EXPECT_EQ(fsim.current_rate(f1), 4e5);
  EXPECT_EQ(fsim.current_rate(f2), 4e5);
  sim.run();
  EXPECT_EQ(done, (std::vector<FlowId>{f1, f2}));
}

TEST(FlowSimulatorSlots, SetExtraCapReachesOnlyTheFlowNowInTheSlot) {
  sim::Simulator sim;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const net::Path p{{topo.add_link(a, b, mbps(8.0), 0.01)}};
  FlowSimulator fsim(sim, topo, util::Rng(10));
  FlowOptions opt;
  opt.model_slow_start = false;

  // The completion callback starts the successor, which reuses the slot.
  FlowId successor = 0;
  std::vector<FlowId> done;
  const FlowId first = fsim.start_flow(p, 1e5, opt, [&](const FlowStats& s) {
    done.push_back(s.id);
    successor = fsim.start_flow(
        p, 1e6, opt, [&](const FlowStats& t) { done.push_back(t.id); });
  });
  sim.run_until(0.5);
  ASSERT_EQ(done, std::vector<FlowId>{first});
  ASSERT_TRUE(fsim.flow_active(successor));
  EXPECT_EQ(fsim.current_rate(successor), 1e6);

  EXPECT_THROW(fsim.set_extra_cap(first, 1e5), util::Error);
  EXPECT_EQ(fsim.current_rate(successor), 1e6);

  fsim.set_extra_cap(successor, 2.5e5);
  EXPECT_EQ(fsim.current_rate(successor), 2.5e5);
  sim.run();
  EXPECT_EQ(done, (std::vector<FlowId>{first, successor}));
}

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

TEST(FlowSimulatorCounters, CapBoundRampsStepInPlace) {
  // Two flows ramping to a 1e6 B/s ceiling on a 1e9 B/s link: every flow
  // is always at its cap. RTT 0.1 s, so the ramp cap is 29200 * 2^k B/s
  // and round 6 reaches the ceiling.
  sim::Simulator sim;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const net::Path p{{topo.add_link(a, b, 1e9, 0.01)}};
  FlowSimulator fsim(sim, topo, util::Rng(12));
  FlowOptions opt;  // slow start on
  opt.rtt = 0.1;
  opt.ceiling_override = 1e6;
  const FlowId f1 = fsim.start_flow(p, 1e12, opt, nullptr);
  sim.run_until(0.05);
  const FlowId f2 = fsim.start_flow(p, 1e12, opt, nullptr);
  sim.run_until(2.0);

  EXPECT_EQ(fsim.current_rate(f1), 1e6);
  EXPECT_EQ(fsim.current_rate(f2), 1e6);
  EXPECT_EQ(sim.executed(sim::EventKind::kSlowStart), 12u);
  // Both arrivals bypass the solver (1 + 2 flows touched); each of the 12
  // binding rounds updates its own flow only and re-arms its completion.
  const FlowSimulator::Counters c = fsim.counters();
  EXPECT_EQ(c.reallocations, 14u);
  EXPECT_EQ(c.solver_bypasses, 14u);
  EXPECT_EQ(c.flows_touched, 15u);
  EXPECT_EQ(c.maxmin_rounds, 0u);
  EXPECT_EQ(c.timer_rearms, 14u);
}

TEST(FlowSimulatorCounters, RampBesideALinkBoundFlowRunsTheSolver) {
  // The ramping flow shares a wide link with a flow held to a narrow
  // link's capacity and no cap of its own: the component is never
  // cap-bound, so each of the ramp's binding rounds re-solves both flows,
  // though the ramp's own links keep room to spare.
  sim::Simulator sim;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const auto c = topo.add_node("c");
  const net::LinkId wide = topo.add_link(a, b, 1e9, 0.01);
  const net::LinkId narrow = topo.add_link(b, c, 1e6, 0.01);
  FlowSimulator fsim(sim, topo, util::Rng(16));
  FlowOptions steady;
  steady.model_slow_start = false;
  const FlowId bulk = fsim.start_flow(net::Path{{wide, narrow}}, 1e12,
                                      steady, nullptr);
  FlowOptions ramp;  // slow start on
  ramp.rtt = 0.1;
  ramp.ceiling_override = 1e6;
  const FlowId id = fsim.start_flow(net::Path{{wide}}, 1e12, ramp, nullptr);
  const FlowSimulator::Counters before = fsim.counters();
  sim.run_until(2.0);

  EXPECT_EQ(fsim.current_rate(id), 1e6);
  EXPECT_EQ(fsim.current_rate(bulk), 1e6);
  EXPECT_EQ(sim.executed(sim::EventKind::kSlowStart), 6u);
  const FlowSimulator::Counters after = fsim.counters();
  EXPECT_EQ(after.reallocations - before.reallocations, 6u);
  EXPECT_EQ(after.flows_touched - before.flows_touched, 12u);
  EXPECT_EQ(after.solver_bypasses, before.solver_bypasses);
  EXPECT_GT(after.maxmin_rounds, before.maxmin_rounds);
}

TEST(FlowSimulatorCounters, RoundThatFillsALinkRunsTheSolver) {
  // The same ramps on a 1.5e6 B/s link: the caps fit until the second
  // flow's round 5 (2 x 934400 > 1.5e6), whose recompute runs the solver
  // and splits the link.
  sim::Simulator sim;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const net::Path p{{topo.add_link(a, b, 1.5e6, 0.01)}};
  FlowSimulator fsim(sim, topo, util::Rng(13));
  FlowOptions opt;  // slow start on
  opt.rtt = 0.1;
  opt.ceiling_override = 1e6;
  const FlowId f1 = fsim.start_flow(p, 1e12, opt, nullptr);
  const FlowId f2 = fsim.start_flow(p, 1e12, opt, nullptr);
  sim.run_until(0.45);
  EXPECT_EQ(fsim.current_rate(f1), slow_start_cap(opt.tcp, 0.1, 4));
  EXPECT_EQ(fsim.counters().maxmin_rounds, 0u);
  sim.run_until(0.55);
  EXPECT_EQ(fsim.current_rate(f1), 7.5e5);
  EXPECT_EQ(fsim.current_rate(f2), 7.5e5);
  EXPECT_GT(fsim.counters().maxmin_rounds, 0u);
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

TEST(FlowSimulatorSlowStart, ParkedRampReplaysTheRoundsItSkipped) {
  // One ramping flow beside 15 steady ones on a 16e6 B/s link: its fair
  // share is 1e6. RTT 0.5 s, so round k falls at t = 0.5 k and the ramp
  // cap is 2 segments * 2^k per RTT (5840 * 2^k B/s).
  sim::Simulator sim;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const net::Path p{{topo.add_link(a, b, 16e6, 0.25)}};
  FlowSimulator fsim(sim, topo, util::Rng(8));
  FlowOptions steady;
  steady.model_slow_start = false;
  steady.ceiling_override = 1e9;
  std::vector<FlowId> others;
  for (int i = 0; i < 15; ++i) {
    others.push_back(fsim.start_flow(p, 1e15, steady, nullptr));
  }
  FlowOptions ramp;  // slow start on
  ramp.ceiling_override = 1e9;
  const FlowId id = fsim.start_flow(p, 1e15, ramp, nullptr);
  const auto cap = [&](int round) {
    return slow_start_cap(ramp.tcp, 0.5, round);
  };
  const auto rounds_run = [&] {
    return sim.executed(sim::EventKind::kSlowStart);
  };

  // Round 8 lifts the cap past the share; round 9 finds it not binding,
  // is skipped and parks the ramp.
  sim.run_until(4.9);
  EXPECT_EQ(fsim.current_rate(id), 1e6);
  EXPECT_EQ(rounds_run(), 9u);
  EXPECT_EQ(fsim.counters().skipped_events, 1u);

  // Parked: rounds 10 (t = 5.0) and 11 (t = 5.5) schedule no event.
  sim.run_until(5.7);
  EXPECT_EQ(rounds_run(), 9u);
  EXPECT_EQ(fsim.counters().skipped_events, 1u);

  // The first departure replays both rounds, each counted as the skipped
  // event it would have been. Alone on the link, the flow is held to its
  // round-11 cap, which binds, so round 12 (t = 6.0) is armed again.
  for (const FlowId other : others) fsim.cancel_flow(other);
  EXPECT_EQ(fsim.counters().skipped_events, 3u);
  EXPECT_EQ(fsim.current_rate(id), cap(11));
  EXPECT_LT(cap(11), 16e6);

  sim.run_until(6.2);
  EXPECT_EQ(rounds_run(), 10u);
  EXPECT_EQ(fsim.current_rate(id), 16e6);

  // Round 13 (t = 6.5) finds the link-limited flow below its cap: skipped,
  // parked again; the cancel replays round 14 (t = 7.0) for the counter.
  sim.run_until(7.2);
  EXPECT_EQ(rounds_run(), 11u);
  EXPECT_EQ(fsim.counters().skipped_events, 4u);
  EXPECT_TRUE(fsim.cancel_flow(id));
  EXPECT_EQ(fsim.counters().skipped_events, 5u);
  EXPECT_EQ(sim.pending(), 0u);
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
