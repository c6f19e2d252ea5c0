#include "flow/flow_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <memory>
#include <optional>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace idr::flow {
namespace {

using util::mbps;
using util::megabytes;
using util::milliseconds;

struct Fixture {
  sim::Simulator sim;
  net::Topology topo;
  std::optional<FlowSimulator> fsim;
  net::NodeId a = 0, b = 0;
  net::LinkId link = 0;

  explicit Fixture(util::Rate capacity = mbps(8.0),
                   util::Duration delay = milliseconds(10)) {
    a = topo.add_node("a");
    b = topo.add_node("b");
    link = topo.add_link(a, b, capacity, delay);
    fsim.emplace(sim, topo, util::Rng(1));
  }

  net::Path path() const { return net::Path{{link}}; }
};

FlowOptions no_slow_start() {
  FlowOptions opt;
  opt.model_slow_start = false;
  return opt;
}

TEST(FlowSimulator, SingleFlowDrainsAtCapacity) {
  Fixture fx(mbps(8.0));  // 1 MB/s
  std::optional<FlowStats> done;
  fx.fsim->start_flow(fx.path(), 1e6, no_slow_start(),
                      [&](const FlowStats& s) { done = s; });
  fx.sim.run();
  ASSERT_TRUE(done.has_value());
  EXPECT_NEAR(done->elapsed(), 1.0, 1e-9);
  EXPECT_NEAR(done->average_rate(), 1e6, 1.0);
}

TEST(FlowSimulator, TwoFlowsShareFairly) {
  Fixture fx(mbps(8.0));
  std::optional<FlowStats> s1, s2;
  fx.fsim->start_flow(fx.path(), 1e6, no_slow_start(),
                      [&](const FlowStats& s) { s1 = s; });
  fx.fsim->start_flow(fx.path(), 1e6, no_slow_start(),
                      [&](const FlowStats& s) { s2 = s; });
  fx.sim.run();
  ASSERT_TRUE(s1 && s2);
  // Both share 1 MB/s: each runs at 0.5 MB/s, finishing at t = 2.
  EXPECT_NEAR(s1->finish_time, 2.0, 1e-9);
  EXPECT_NEAR(s2->finish_time, 2.0, 1e-9);
}

TEST(FlowSimulator, DepartureSpeedsUpSurvivor) {
  Fixture fx(mbps(8.0));
  std::optional<FlowStats> small, large;
  fx.fsim->start_flow(fx.path(), 0.5e6, no_slow_start(),
                      [&](const FlowStats& s) { small = s; });
  fx.fsim->start_flow(fx.path(), 1.5e6, no_slow_start(),
                      [&](const FlowStats& s) { large = s; });
  fx.sim.run();
  ASSERT_TRUE(small && large);
  // Shared at 0.5 MB/s until the small one finishes at t = 1; the large
  // one then has 1.0 MB left at full rate: finishes at t = 2.
  EXPECT_NEAR(small->finish_time, 1.0, 1e-9);
  EXPECT_NEAR(large->finish_time, 2.0, 1e-9);
}

TEST(FlowSimulator, SlowStartDelaysCompletion) {
  Fixture fx(mbps(80.0), milliseconds(50));
  std::optional<FlowStats> with_ss, without_ss;
  FlowOptions opt_ss;  // defaults model slow start
  fx.fsim->start_flow(fx.path(), 1e6, opt_ss,
                      [&](const FlowStats& s) { with_ss = s; });
  fx.sim.run();
  Fixture fx2(mbps(80.0), milliseconds(50));
  fx2.fsim->start_flow(fx2.path(), 1e6, no_slow_start(),
                       [&](const FlowStats& s) { without_ss = s; });
  fx2.sim.run();
  ASSERT_TRUE(with_ss && without_ss);
  EXPECT_GT(with_ss->elapsed(), without_ss->elapsed());
}

TEST(FlowSimulator, SlowStartRampIsExponential) {
  // With a huge file, measure the rate after a few RTTs: it should match
  // cwnd doubling, not the link capacity.
  Fixture fx(mbps(800.0), milliseconds(50));  // rtt = 0.1 s
  FlowOptions opt;
  const FlowId id = fx.fsim->start_flow(fx.path(), 1e9, opt,
                                        [](const FlowStats&) {});
  // After 3 full RTTs the flow is in round 3: cap = 2 * 1460 * 8 / 0.1.
  fx.sim.run_until(0.35);
  const double expected = 2.0 * 1460.0 * 8.0 / 0.1;
  EXPECT_NEAR(fx.fsim->current_rate(id), expected, expected * 1e-9);
}

TEST(FlowSimulator, CeilingOverrideCapsRate) {
  Fixture fx(mbps(8.0));
  FlowOptions opt = no_slow_start();
  opt.ceiling_override = 1e5;  // 100 KB/s
  std::optional<FlowStats> done;
  fx.fsim->start_flow(fx.path(), 1e5, opt,
                      [&](const FlowStats& s) { done = s; });
  fx.sim.run();
  ASSERT_TRUE(done);
  EXPECT_NEAR(done->elapsed(), 1.0, 1e-9);
}

TEST(FlowSimulator, LossCapsViaPftk) {
  // High loss should throttle the flow well under link capacity.
  sim::Simulator sim;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const auto link = topo.add_link(a, b, mbps(100.0), 0.05, 0.02);
  FlowSimulator fsim(sim, topo, util::Rng(2));
  std::optional<FlowStats> done;
  fsim.start_flow(net::Path{{link}}, 1e6, no_slow_start(),
                  [&](const FlowStats& s) { done = s; });
  sim.run();
  ASSERT_TRUE(done);
  const double ceiling = steady_state_ceiling(TcpConfig{}, 0.1, 0.02);
  EXPECT_NEAR(done->average_rate(), ceiling, ceiling * 0.01);
  EXPECT_LT(done->average_rate(), mbps(100.0) / 4.0);
}

TEST(FlowSimulator, CapScaleReducesRate) {
  Fixture fx(mbps(8.0));
  FlowOptions opt = no_slow_start();
  opt.ceiling_override = 1e6;
  opt.cap_scale = 0.5;
  std::optional<FlowStats> done;
  fx.fsim->start_flow(fx.path(), 1e6, opt,
                      [&](const FlowStats& s) { done = s; });
  fx.sim.run();
  ASSERT_TRUE(done);
  EXPECT_NEAR(done->average_rate(), 0.5e6, 1.0);
}

TEST(FlowSimulator, ExtraCapAdjustableMidFlight) {
  Fixture fx(mbps(8.0));
  std::optional<FlowStats> done;
  const FlowId id =
      fx.fsim->start_flow(fx.path(), 1e6, no_slow_start(),
                          [&](const FlowStats& s) { done = s; });
  fx.sim.schedule_at(0.5, [&] { fx.fsim->set_extra_cap(id, 0.25e6); });
  fx.sim.run();
  ASSERT_TRUE(done);
  // 0.5 MB at 1 MB/s, then 0.5 MB at 0.25 MB/s -> total 2.5 s.
  EXPECT_NEAR(done->finish_time, 2.5, 1e-9);
}

TEST(FlowSimulator, CancelStopsFlow) {
  Fixture fx;
  bool fired = false;
  const FlowId id = fx.fsim->start_flow(fx.path(), 1e6, no_slow_start(),
                                        [&](const FlowStats&) {
                                          fired = true;
                                        });
  fx.sim.run_until(0.1);
  EXPECT_TRUE(fx.fsim->cancel_flow(id));
  fx.sim.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(fx.fsim->cancel_flow(id));
  EXPECT_EQ(fx.fsim->active_flows(), 0u);
}

TEST(FlowSimulator, BytesRemainingTracksProgress) {
  Fixture fx(mbps(8.0));
  const FlowId id = fx.fsim->start_flow(fx.path(), 1e6, no_slow_start(),
                                        [](const FlowStats&) {});
  fx.sim.run_until(0.25);
  EXPECT_NEAR(fx.fsim->bytes_remaining(id), 0.75e6, 1.0);
}

TEST(FlowSimulator, CapacityChangeRepartitionsMidFlight) {
  Fixture fx(mbps(8.0));
  // Halve the link at t = 0.5 via a scripted process.
  class Script final : public net::CapacityProcess {
   public:
    util::Rate initial(util::Rng&) override { return mbps(8.0); }
    net::CapacityChange next(util::Rng&) override {
      if (fired_) {
        return {std::numeric_limits<double>::infinity(), mbps(4.0)};
      }
      fired_ = true;
      return {0.5, mbps(4.0)};
    }
   private:
    bool fired_ = false;
  };
  fx.fsim->attach_capacity_process(fx.link, std::make_unique<Script>());
  std::optional<FlowStats> done;
  fx.fsim->start_flow(fx.path(), 1e6, no_slow_start(),
                      [&](const FlowStats& s) { done = s; });
  fx.sim.run();
  ASSERT_TRUE(done);
  // 0.5 MB at 1 MB/s, then 0.5 MB at 0.5 MB/s -> total 1.5 s.
  EXPECT_NEAR(done->finish_time, 1.5, 1e-9);
}

TEST(FlowSimulator, CompletionCallbackCanStartNextFlow) {
  Fixture fx(mbps(8.0));
  std::optional<FlowStats> second;
  fx.fsim->start_flow(fx.path(), 0.5e6, no_slow_start(),
                      [&](const FlowStats&) {
                        fx.fsim->start_flow(
                            fx.path(), 0.5e6, no_slow_start(),
                            [&](const FlowStats& s) { second = s; });
                      });
  fx.sim.run();
  ASSERT_TRUE(second);
  EXPECT_NEAR(second->finish_time, 1.0, 1e-9);
}

TEST(FlowSimulator, RejectsBadArguments) {
  Fixture fx;
  EXPECT_THROW(fx.fsim->start_flow(net::Path{}, 1e6, no_slow_start(),
                                   [](const FlowStats&) {}),
               util::Error);
  EXPECT_THROW(fx.fsim->start_flow(fx.path(), 0.0, no_slow_start(),
                                   [](const FlowStats&) {}),
               util::Error);
  FlowOptions bad = no_slow_start();
  bad.cap_scale = 0.0;
  EXPECT_THROW(fx.fsim->start_flow(fx.path(), 1.0, bad,
                                   [](const FlowStats&) {}),
               util::Error);
}

TEST(FlowSimulator, ManyFlowsConservation) {
  // 10 flows over one 10 Mbps link, each 1 Mb: aggregate drain time is
  // exactly total-bytes / capacity regardless of completion pattern.
  Fixture fx(mbps(10.0));
  int finished = 0;
  double last_finish = 0.0;
  for (int i = 0; i < 10; ++i) {
    fx.fsim->start_flow(fx.path(), 125000.0, no_slow_start(),
                        [&](const FlowStats& s) {
                          ++finished;
                          last_finish = std::max(last_finish, s.finish_time);
                        });
  }
  fx.sim.run();
  EXPECT_EQ(finished, 10);
  EXPECT_NEAR(last_finish, 1.0, 1e-9);
}

// --- Lazy capacity processes ---------------------------------------------

/// The world's link process shape: AR(1) fluctuation times Markov jumps.
std::unique_ptr<net::CapacityProcess> modulated_process() {
  net::LognormalArCapacity::Params ar;
  ar.mean = mbps(8.0);
  ar.cv = 0.4;
  ar.rho = 0.8;
  ar.step = 30.0;
  net::MarkovJumpCapacity::Params jump;
  jump.base = 1.0;
  jump.degraded_multiplier = 0.25;
  jump.mean_normal_dwell = 600.0;
  jump.mean_degraded_dwell = 120.0;
  return std::make_unique<net::ModulatedCapacity>(
      std::make_unique<net::LognormalArCapacity>(ar),
      std::make_unique<net::MarkovJumpCapacity>(jump), 1.0);
}

/// Eager reference: steps a link's process through every change at its
/// due time, drawing from the same per-link child stream the flow
/// simulator derives (salt 0x9000 + link) and clamping to the same
/// 1 B/s floor.
class EagerReplay {
 public:
  EagerReplay(const util::Rng& root, net::LinkId link)
      : rng_(root.child(0x9000 + static_cast<std::uint64_t>(link))),
        process_(modulated_process()) {
    capacity_ = std::max(process_->initial(rng_), 1.0);
    pending_ = process_->next(rng_);
    due_ = pending_.dwell;  // attached at t = 0
  }

  /// Capacity in force at `t` (non-decreasing across calls); a change due
  /// exactly at `t` is not yet applied.
  util::Rate at(util::TimePoint t) {
    while (due_ < t) {
      capacity_ = std::max(pending_.capacity, 1.0);
      pending_ = process_->next(rng_);
      due_ += pending_.dwell;
      ++applied_;
    }
    return capacity_;
  }

  std::uint64_t applied() const { return applied_; }

 private:
  util::Rng rng_;
  std::unique_ptr<net::CapacityProcess> process_;
  util::Rate capacity_ = 0.0;
  net::CapacityChange pending_{};
  util::TimePoint due_ = 0.0;
  std::uint64_t applied_ = 0;
};

TEST(FlowSimulatorLazyCapacity, CapacitiesMatchEagerReplay) {
  const util::Rng root(31);
  Fixture fx;
  fx.fsim.emplace(fx.sim, fx.topo, root);
  fx.fsim->attach_capacity_process(fx.link, modulated_process());
  EagerReplay eager(root, fx.link);
  EXPECT_EQ(fx.fsim->link_capacity(fx.link), eager.at(0.0));

  // Seeded joins (some cancelled early, the rest drain) spaced so the
  // link sits idle across many dwells, plus capacity reads at random
  // times, busy or idle.
  constexpr util::TimePoint kHorizon = 6.0 * 3600.0;
  util::Rng script(77);
  int joins = 0, reads = 0, cancels = 0;
  for (util::TimePoint t = script.exponential(90.0); t < kHorizon;
       t += script.exponential(90.0)) {
    const util::Bytes size = script.uniform(1e5, 4e7);
    const bool cancel = script.bernoulli(0.4);
    const util::Duration hold = script.uniform(0.0, 30.0);
    fx.sim.schedule_at(t, [&, size, cancel, hold] {
      const FlowId id = fx.fsim->start_flow(fx.path(), size, FlowOptions{},
                                            [](const FlowStats&) {});
      // The allocation the joining flow got used this capacity.
      EXPECT_EQ(fx.topo.link(fx.link).capacity, eager.at(fx.sim.now()))
          << "join at t=" << fx.sim.now();
      ++joins;
      if (!cancel) return;
      fx.sim.schedule_in(hold, [&, id] {
        if (fx.fsim->cancel_flow(id)) ++cancels;
      });
    });
  }
  for (int i = 0; i < 400; ++i) {
    fx.sim.schedule_at(script.uniform(0.0, kHorizon), [&] {
      EXPECT_EQ(fx.fsim->link_capacity(fx.link), eager.at(fx.sim.now()))
          << "read at t=" << fx.sim.now();
      ++reads;
    });
  }
  // Every flow has drained an hour past the last join; by then the
  // process has parked again and left the heap empty.
  fx.sim.run_until(kHorizon + 3600.0);

  EXPECT_GT(joins, 150);
  EXPECT_EQ(reads, 400);
  EXPECT_GT(cancels, 10);
  EXPECT_EQ(fx.fsim->active_flows(), 0u);
  EXPECT_EQ(fx.sim.pending(), 0u);
  // Only changes that fell due while the link was busy ran as events.
  EXPECT_GT(fx.sim.executed(sim::EventKind::kCapacity), 0u);
  EXPECT_LT(fx.sim.executed(sim::EventKind::kCapacity), eager.applied() / 2);
}

TEST(FlowSimulatorLazyCapacity, IdleLinksScheduleNoEvents) {
  sim::Simulator sim;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const auto c = topo.add_node("c");
  const auto ab = topo.add_link(a, b, mbps(8.0), milliseconds(10));
  const auto bc = topo.add_link(b, c, mbps(8.0), milliseconds(10));
  const auto ac = topo.add_link(a, c, mbps(8.0), milliseconds(10));
  FlowSimulator fsim(sim, topo, util::Rng(9));
  for (const net::LinkId l : {ab, bc, ac}) {
    fsim.attach_capacity_process(l, modulated_process());
  }
  sim.run_until(3600.0);
  EXPECT_EQ(sim.executed(), 0u);
  EXPECT_EQ(sim.pending(), 0u);

  // A joining flow arms one change per process link on its path (ac
  // stays parked), and its completion cancels them again.
  bool done = false;
  fsim.start_flow(net::Path{{ab, bc}}, 2e8, no_slow_start(),
                  [&](const FlowStats&) { done = true; });
  EXPECT_EQ(sim.pending(), 3u);  // two capacity changes + the completion
  while (!done && sim.step()) {
  }
  EXPECT_TRUE(done);
  EXPECT_GT(sim.executed(sim::EventKind::kCapacity), 0u);
  EXPECT_EQ(sim.pending(), 0u);

  // A second flow on a busy link shares its armed change; the link parks
  // only when its last flow leaves.
  const FlowId f1 = fsim.start_flow(net::Path{{ab}}, 1e9, no_slow_start(),
                                    nullptr);
  const FlowId f2 = fsim.start_flow(net::Path{{ab}}, 1e9, no_slow_start(),
                                    nullptr);
  EXPECT_EQ(sim.pending(), 3u);  // one capacity change + two completions
  EXPECT_TRUE(fsim.cancel_flow(f1));
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(fsim.cancel_flow(f2));
  EXPECT_EQ(sim.pending(), 0u);
}

}  // namespace
}  // namespace idr::flow
