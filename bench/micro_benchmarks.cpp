// Google-benchmark microbenchmarks for the hot paths of the simulator and
// the protocol layer: event-queue churn, max-min reallocation, range
// parsing, probe-race bookkeeping and RNG sampling.
#include <benchmark/benchmark.h>

#include <optional>
#include <string>
#include <vector>

#include "flow/flow_simulator.hpp"
#include "flow/max_min.hpp"
#include "http/parser.hpp"
#include "http/range.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace idr;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<double>((i * 7919) % n), [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

void BM_EventCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventId> ids;
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(sim.schedule_at(static_cast<double>(i), [] {}));
    }
    for (sim::EventId id : ids) sim.cancel(id);
    sim.run();
  }
}
BENCHMARK(BM_EventCancel);

// --- Event-core churn family ----------------------------------------------
//
// Steady-state timer churn at a fixed pending population, the workload the
// flow layer generates (every rate change moves a completion estimate).
// Deterministic LCG keeps the op sequences identical across runs.

inline std::uint64_t churn_lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s >> 17;
}

inline double churn_time(std::uint64_t& s) {
  return 1e6 + static_cast<double>(churn_lcg(s) % (1u << 20));
}

// Replace a random pending event: cancel + fresh schedule.
void BM_EventQueueChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  std::vector<sim::EventId> ids(n);
  std::uint64_t s = 42;
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = sim.schedule_at(churn_time(s), [] {});
  }
  for (auto _ : state) {
    const std::size_t i = churn_lcg(s) % n;
    sim.cancel(ids[i]);
    ids[i] = sim.schedule_at(churn_time(s), [] {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueChurn)->Arg(10000)->Arg(100000);

// Move a random pending event in place.
void BM_EventQueueReschedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  std::vector<sim::EventId> ids(n);
  std::uint64_t s = 42;
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = sim.schedule_at(churn_time(s), [] {});
  }
  for (auto _ : state) {
    sim.reschedule_at(ids[churn_lcg(s) % n], churn_time(s));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueReschedule)->Arg(10000)->Arg(100000);

// The realistic mix: reschedules, replacements, and one dispatch per
// round. Events reschedule themselves in place on firing, so the pending
// population holds at exactly n throughout.
void BM_EventQueueMixed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  struct Ctx {
    sim::Simulator sim;
    std::vector<sim::EventId> ids;
    std::uint64_t s2 = 99;
  } ctx;
  ctx.ids.resize(n);
  std::uint64_t s = 42;
  // Dispatch advances the clock, so every target time is now-relative.
  auto arm = [&ctx](std::size_t i, double delay) {
    ctx.ids[i] = ctx.sim.schedule_in(delay, [c = &ctx, i] {
      c->sim.reschedule_in(c->ids[i],
                           static_cast<double>(churn_lcg(c->s2) % (1u << 20)));
    });
  };
  const auto delay = [&s] {
    return static_cast<double>(churn_lcg(s) % (1u << 20));
  };
  for (std::size_t i = 0; i < n; ++i) arm(i, delay());
  std::size_t ops = 0;
  for (auto _ : state) {
    const std::size_t i = churn_lcg(s) % n;
    ctx.sim.reschedule_in(ctx.ids[i], delay());
    const std::size_t j = churn_lcg(s) % n;
    ctx.sim.cancel(ctx.ids[j]);
    arm(j, delay());
    ctx.sim.step();  // fires the earliest; it reschedules itself in place
    ops += 4;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_EventQueueMixed)->Arg(10000)->Arg(100000);

std::pair<std::vector<flow::Rate>, std::vector<flow::FlowDemand>>
make_allocation_instance(std::size_t links, std::size_t flows,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<flow::Rate> capacities(links);
  for (auto& c : capacities) c = rng.uniform(1e5, 1e7);
  std::vector<flow::FlowDemand> demands(flows);
  for (auto& d : demands) {
    const auto hops = static_cast<std::size_t>(rng.uniform_int(1, 4));
    d.links = rng.sample_without_replacement(links, hops);
    d.cap = rng.bernoulli(0.5) ? rng.uniform(1e4, 1e6)
                               : flow::kUnlimitedRate;
  }
  return {capacities, demands};
}

void BM_MaxMinAllocate(benchmark::State& state) {
  const auto links = static_cast<std::size_t>(state.range(0));
  const auto flows = static_cast<std::size_t>(state.range(1));
  const auto [capacities, demands] =
      make_allocation_instance(links, flows, 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::max_min_allocate(capacities, demands));
  }
}
BENCHMARK(BM_MaxMinAllocate)
    ->Args({16, 8})
    ->Args({64, 16})
    ->Args({256, 64});

void BM_MaxMinWorkspaceReuse(benchmark::State& state) {
  // Same instances as BM_MaxMinAllocate, solved through a reused
  // workspace: isolates the cost of the solve itself from the result/
  // scratch allocations the convenience signature pays.
  const auto links = static_cast<std::size_t>(state.range(0));
  const auto flows = static_cast<std::size_t>(state.range(1));
  const auto [capacities, demands] =
      make_allocation_instance(links, flows, 17);
  flow::MaxMinWorkspace ws;
  for (auto _ : state) {
    ws.clear();
    for (const flow::Rate c : capacities) ws.avail.push_back(c);
    for (const auto& d : demands) {
      ws.add_flow(d.cap);
      for (const std::size_t l : d.links) ws.add_link(l);
    }
    flow::max_min_allocate(ws);
    benchmark::DoNotOptimize(ws.rate.data());
  }
}
BENCHMARK(BM_MaxMinWorkspaceReuse)
    ->Args({16, 8})
    ->Args({64, 16})
    ->Args({256, 64});

void BM_FlowSimulatorChurn(benchmark::State& state) {
  // 8 flows arriving and draining over a 4-link chain with reallocation
  // on every arrival/departure.
  for (auto _ : state) {
    sim::Simulator sim;
    net::Topology topo;
    std::vector<net::NodeId> nodes;
    for (int i = 0; i < 5; ++i) {
      nodes.push_back(topo.add_node("n" + std::to_string(i)));
    }
    net::Path path;
    for (int i = 0; i < 4; ++i) {
      path.links.push_back(
          topo.add_link(nodes[i], nodes[i + 1], 1e6, 0.01));
    }
    flow::FlowSimulator fsim(sim, topo, util::Rng(1));
    flow::FlowOptions opt;
    opt.model_slow_start = false;
    int done = 0;
    for (int i = 0; i < 8; ++i) {
      sim.schedule_at(static_cast<double>(i) * 0.1, [&, i] {
        fsim.start_flow(path, 1e5 * (i + 1), opt,
                        [&](const flow::FlowStats&) { ++done; });
      });
    }
    sim.run();
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_FlowSimulatorChurn);

// --- Scoped-reallocation churn family ------------------------------------
//
// `components` disjoint 3-link chains, `flows` long-lived background flows
// spread round-robin across them, plus one probe flow on chain 0. Each
// iteration pokes the probe's external rate cap — exactly the steady-state
// event stream the relay coupling generates. With the scoped recompute the
// per-event cost tracks the population of chain 0's component, not the
// total flow count; growing `components` at fixed `flows` makes the event
// *cheaper*.
struct ReallocWorld {
  sim::Simulator sim;
  net::Topology topo;
  std::optional<flow::FlowSimulator> fsim;
  flow::FlowId probe = 0;
  std::vector<flow::FlowId> chain0_background;

  ReallocWorld(std::size_t flows, std::size_t components) {
    std::vector<net::Path> chain(components);
    for (std::size_t c = 0; c < components; ++c) {
      net::NodeId prev =
          topo.add_node("c" + std::to_string(c) + "n0");
      for (int hop = 0; hop < 3; ++hop) {
        const net::NodeId next =
            topo.add_node("c" + std::to_string(c) + "n" +
                          std::to_string(hop + 1));
        // Distinct capacities per component and hop so saturation levels
        // differ and a global solve cannot collapse into one round.
        chain[c].links.push_back(topo.add_link(
            prev, next,
            1e6 * (1.0 + 0.1 * hop + static_cast<double>(c)), 0.01));
        prev = next;
      }
    }
    fsim.emplace(sim, topo, util::Rng(7));
    flow::FlowOptions opt;
    opt.model_slow_start = false;
    opt.rtt = 0.05;
    opt.ceiling_override = 1e12;
    for (std::size_t i = 0; i < flows; ++i) {
      const flow::FlowId id =
          fsim->start_flow(chain[i % components], 1e18, opt, nullptr);
      if (i % components == 0) chain0_background.push_back(id);
    }
    probe = fsim->start_flow(chain[0], 1e18, opt, nullptr);
  }
};

void report_realloc_counters(benchmark::State& state,
                             const flow::FlowSimulator::Counters& before,
                             const flow::FlowSimulator::Counters& after) {
  const auto events =
      static_cast<double>(after.reallocations - before.reallocations);
  if (events <= 0.0) return;
  state.counters["flows/event"] =
      static_cast<double>(after.flows_touched - before.flows_touched) /
      events;
  state.counters["rounds/event"] =
      static_cast<double>(after.maxmin_rounds - before.maxmin_rounds) /
      events;
  state.counters["rearms/event"] =
      static_cast<double>(after.timer_rearms - before.timer_rearms) /
      events;
}

void BM_FlowSimReallocSteady(benchmark::State& state) {
  ReallocWorld w(static_cast<std::size_t>(state.range(0)),
                 static_cast<std::size_t>(state.range(1)));
  // Toggle between two caps far above the probe's share: the component is
  // re-solved but no rate changes, so no timer is touched — the
  // allocation-free steady-state path.
  const flow::Rate caps[2] = {4e11, 5e11};
  w.fsim->set_extra_cap(w.probe, caps[0]);
  const flow::FlowSimulator::Counters before = w.fsim->counters();
  std::size_t i = 1;
  for (auto _ : state) {
    w.fsim->set_extra_cap(w.probe, caps[i++ & 1]);
  }
  report_realloc_counters(state, before, w.fsim->counters());
}
BENCHMARK(BM_FlowSimReallocSteady)
    ->ArgNames({"flows", "components"})
    ->Args({10, 1})
    ->Args({100, 1})
    ->Args({1000, 1})
    ->Args({10, 8})
    ->Args({100, 8})
    ->Args({1000, 8});

void BM_FlowSimReallocBinding(benchmark::State& state) {
  ReallocWorld w(static_cast<std::size_t>(state.range(0)),
                 static_cast<std::size_t>(state.range(1)));
  // Pin the background flows in the probe's component to a tiny cap so the
  // probe's toggling changes only its own rate; each event still re-solves
  // the whole component but re-arms exactly one completion timer. (Letting
  // every rate change per event would grow the event queue without bound
  // across iterations.)
  for (const flow::FlowId id : w.chain0_background) {
    w.fsim->set_extra_cap(id, 100.0);
  }
  const flow::Rate caps[2] = {1e3, 2e3};
  w.fsim->set_extra_cap(w.probe, caps[0]);
  const flow::FlowSimulator::Counters before = w.fsim->counters();
  std::size_t i = 1;
  for (auto _ : state) {
    w.fsim->set_extra_cap(w.probe, caps[i++ & 1]);
  }
  report_realloc_counters(state, before, w.fsim->counters());
}
BENCHMARK(BM_FlowSimReallocBinding)
    ->ArgNames({"flows", "components"})
    ->Args({100, 1})
    ->Args({1000, 1})
    ->Args({100, 8})
    ->Args({1000, 8});

void BM_RangeParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(http::parse_range_header("bytes=102400-"));
    benchmark::DoNotOptimize(
        http::parse_range_header("bytes=0-102399"));
    benchmark::DoNotOptimize(http::parse_range_header("bytes=-500"));
  }
}
BENCHMARK(BM_RangeParse);

void BM_ResponseParse(benchmark::State& state) {
  http::Response resp;
  resp.status = 206;
  resp.reason = "Partial Content";
  resp.headers.add("Content-Range", "bytes 0-102399/4000000");
  resp.body.assign(102400, 'x');
  const std::string wire = resp.serialize();
  for (auto _ : state) {
    http::ResponseParser p;
    benchmark::DoNotOptimize(p.feed(wire));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_ResponseParse);

void BM_RngLognormal(benchmark::State& state) {
  util::Rng rng(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.lognormal_mean_cv(2.0, 0.4));
  }
}
BENCHMARK(BM_RngLognormal);

void BM_RngSampleWithoutReplacement(benchmark::State& state) {
  util::Rng rng(29);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.sample_without_replacement(35, 10));
  }
}
BENCHMARK(BM_RngSampleWithoutReplacement);

}  // namespace
