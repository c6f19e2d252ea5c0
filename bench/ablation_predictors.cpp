// Ablation A2: predictor comparison.
//   * probe-race    — the paper's method: race the first 100 KB on every
//                     candidate, pay the probing overhead every transfer.
//   * ewma-history  — no probes: epsilon-greedy over EWMAs of past
//                     measured throughput per path.
//   * oracle-mean   — picks the path with the best *expected* bandwidth
//                     (upper bound for any static predictor; still blind
//                     to temporal variation).
//   * direct-only   — never relays (baseline).
// All selectors are charged their own overheads; improvements are vs. the
// mirrored plain direct client.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "core/predictors.hpp"
#include "testbed/session.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace {

using namespace idr;

// Runs a session where path choice is made by an arbitrary chooser
// (instead of the probe race): each transfer fetches the whole file over
// the chosen path, then reports the measured throughput back.
struct ChooserSession {
  // chooser(rng) -> option: 0 = direct, i > 0 = relay i-1.
  std::function<std::size_t(util::Rng&)> choose;
  // observe(option, rate): feedback after the transfer.
  std::function<void(std::size_t, util::Rate)> observe;
};

// Event-core work summed over every session of the comparison.
testbed::SchedulerWork g_sim_work;

util::OnlineStats run_chooser_session(const testbed::WorldParams& params,
                                      std::size_t transfers,
                                      util::Duration interval,
                                      std::uint64_t seed,
                                      ChooserSession chooser) {
  // Mirror A: plain direct reference.
  testbed::ClientWorld world_a(params, false);
  std::vector<double> direct_rates(transfers, 0.0);
  std::size_t pending = transfers;
  for (std::size_t k = 0; k < transfers; ++k) {
    world_a.simulator().schedule_at(1.0 + interval * (double)k, [&, k] {
      world_a.begin_direct_download(
          [&, k](const overlay::TransferResult& r) {
            direct_rates[k] = r.throughput();
            --pending;
          });
    });
  }
  while (pending > 0) {
    IDR_REQUIRE(world_a.simulator().step(), "world A drained");
  }

  // Mirror B: the chooser.
  testbed::ClientWorld world_b(params, true);
  util::Rng rng(seed);
  util::OnlineStats improvements;
  std::size_t pending_b = transfers;
  for (std::size_t k = 0; k < transfers; ++k) {
    world_b.simulator().schedule_at(1.0 + interval * (double)k, [&, k] {
      const std::size_t option = chooser.choose(rng);
      overlay::TransferRequest req;
      req.client = world_b.client_node();
      req.server = &world_b.server();
      req.resource = testbed::ClientWorld::kResource;
      if (option > 0) req.relay = world_b.relay_node(option - 1);
      world_b.engine().begin(req, [&, k, option](
                                      const overlay::TransferResult& r) {
        if (r.ok && direct_rates[k] > 0.0) {
          improvements.add(
              core::improvement_pct(r.throughput(), direct_rates[k]));
          chooser.observe(option, r.throughput());
        }
        --pending_b;
      });
    });
  }
  while (pending_b > 0) {
    IDR_REQUIRE(world_b.simulator().step(), "world B drained");
  }
  const sim::Simulator& sa = world_a.simulator();
  const sim::Simulator& sb = world_b.simulator();
  g_sim_work += sa.work();
  g_sim_work += sb.work();
  return improvements;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::print_header(
      "Ablation A2 - predictor comparison",
      "probe race trades per-transfer overhead for adaptivity", opts);

  const std::size_t transfers = opts.paper_scale ? 300 : 120;
  const util::Duration interval = util::seconds(60);
  const testbed::ScenarioGenerator generator(opts.seed, {});
  const auto& server = testbed::find_site("eBay");

  util::TextTable table({"Client", "Predictor", "Avg improvement (%)",
                         "Stdev (%)"});

  for (const char* client_name : {"Italy", "Korea", "Canada"}) {
    const auto& client = testbed::find_site(client_name);
    // 8 relays with a spread of goodness.
    std::vector<const testbed::SiteProfile*> roster;
    for (const auto& r : testbed::relay_sites()) {
      if (roster.size() < 8) roster.push_back(&r);
    }
    const testbed::WorldParams params =
        generator.make_world(client, roster, server);
    const std::size_t n_options = roster.size() + 1;

    // direct-only baseline.
    {
      ChooserSession c;
      c.choose = [](util::Rng&) { return 0u; };
      c.observe = [](std::size_t, util::Rate) {};
      const auto s = run_chooser_session(params, transfers, interval,
                                         opts.seed + 1, c);
      table.row().cell(client_name).cell("direct-only").cell(s.mean(), 1)
          .cell(s.stddev(), 1);
    }
    // oracle-mean: argmax of expected path bandwidth.
    {
      std::size_t best = 0;
      double best_rate = params.direct_wan.mean;
      for (std::size_t i = 0; i < params.relay_wan.size(); ++i) {
        const double leg = std::min(params.relay_wan[i].mean,
                                    params.server_relay[i].mean);
        if (leg > best_rate) {
          best_rate = leg;
          best = i + 1;
        }
      }
      ChooserSession c;
      c.choose = [best](util::Rng&) { return best; };
      c.observe = [](std::size_t, util::Rate) {};
      const auto s = run_chooser_session(params, transfers, interval,
                                         opts.seed + 2, c);
      table.row().cell(client_name).cell("oracle-mean").cell(s.mean(), 1)
          .cell(s.stddev(), 1);
    }
    // ewma-history.
    {
      auto selector = std::make_shared<core::EwmaSelector>(n_options);
      ChooserSession c;
      c.choose = [selector](util::Rng& rng) { return selector->choose(rng); };
      c.observe = [selector](std::size_t option, util::Rate rate) {
        selector->observe(option, rate);
      };
      const auto s = run_chooser_session(params, transfers, interval,
                                         opts.seed + 3, c);
      table.row().cell(client_name).cell("ewma-history").cell(s.mean(), 1)
          .cell(s.stddev(), 1);
    }
    // probe-race (the paper's predictor), via the standard session runner.
    {
      testbed::SessionSpec spec;
      spec.params = params;
      spec.transfers = transfers;
      spec.interval = interval;
      spec.client_seed = opts.seed + 4;
      spec.policy_factory = [](testbed::ClientWorld&) {
        return std::make_unique<core::FullSetPolicy>();
      };
      const testbed::SessionOutput out = testbed::run_session(spec);
      g_sim_work += out.result.sim_work;
      util::OnlineStats s;
      for (const auto& t : out.result.transfers) {
        if (t.ok) s.add(t.improvement_pct);
      }
      table.row().cell(client_name).cell("probe-race (paper)")
          .cell(s.mean(), 1).cell(s.stddev(), 1);
    }
  }
  std::printf("%s", table.render().c_str());
  bench::print_scheduler_work(g_sim_work);
  return 0;
}
