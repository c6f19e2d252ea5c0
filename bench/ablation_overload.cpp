// Ablation A6: relay admission control under offered-load overload.
//
// The paper's relays carried one selecting client; a deployed relay fleet
// carries many, and an unprotected relay under 10x its capacity serves
// everyone badly. This ablation drives bursts of concurrent selecting
// fetches through a small governed relay pool (max_concurrent service
// slots, a bounded admission queue, 503-style rejection with a Retry-After
// pacing hint beyond it) and sweeps the offered load from parity to 10x
// the pool's slot capacity. The client-side machinery — overload treated
// as a soft failure, Retry-After-paced retries, short flat relay
// penalties, direct-path fallback — must keep every transfer completing
// with bounded tail latency: overload costs improvement, never
// availability.
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_common.hpp"
#include "core/selection_policy.hpp"
#include "testbed/world.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace idr;

constexpr std::size_t kRelays = 3;
constexpr std::size_t kSlotsPerRelay = 2;
constexpr std::size_t kPoolSlots = kRelays * kSlotsPerRelay;

/// A constant-capacity world where every relay path beats the direct one,
/// so selection always wants a relay and admission control is what decides
/// who gets one.
testbed::WorldParams overload_world_params(std::uint64_t seed) {
  testbed::WorldParams params;
  params.client_name = "client";
  params.server_name = "server";
  params.access.mean = util::mbps(50.0);
  params.direct_wan.mean = util::mbps(3.0);
  for (std::size_t i = 0; i < kRelays; ++i) {
    params.relay_names.push_back("relay" + std::to_string(i));
    testbed::LinkSpec leg;
    leg.mean = util::mbps(12.0);
    params.relay_wan.push_back(leg);
    params.server_relay.push_back(leg);
  }
  params.file_size = util::megabytes(1);
  params.probe_bytes = util::kilobytes(100);
  params.relay_params.max_concurrent = kSlotsPerRelay;
  params.relay_params.queue_limit = kSlotsPerRelay;
  params.relay_params.retry_after = 0.5;
  params.retry.max_retries = 4;
  params.process_seed = seed;
  return params;
}

struct LevelResult {
  testbed::SessionResult session;  // shed/queue totals ride testbed records
  util::SampleSet elapsed;         // per-transfer wall-clock seconds
};

/// Fires `waves` bursts of `concurrent` simultaneous selecting fetches.
/// Each burst starts only after the previous one fully drains (plus a gap
/// that lets overload penalties expire), so every burst is an independent
/// overload episode and bursts never pile onto each other's queues.
LevelResult run_level(std::uint64_t seed, std::size_t concurrent,
                      std::size_t waves) {
  const testbed::WorldParams params = overload_world_params(seed);
  testbed::ClientWorld world(params, /*attach_relay_processes=*/true);
  auto client = world.make_client(std::make_unique<core::FullSetPolicy>(),
                                  util::Rng(seed ^ 0xA6));

  LevelResult out;
  testbed::SessionResult& session = out.session;
  session.client = params.client_name;
  session.transfers.resize(waves * concurrent);

  std::size_t pending = 0;
  std::function<void(std::size_t)> launch_wave = [&](std::size_t w) {
    const util::TimePoint when = world.simulator().now();
    for (std::size_t i = 0; i < concurrent; ++i) {
      const std::size_t k = w * concurrent + i;
      ++pending;
      client->fetch([&, w, k, when](const core::FetchRecord& record) {
        testbed::TransferObservation& obs = session.transfers[k];
        obs.client = session.client;
        obs.start_time = when;
        obs.ok = record.outcome.ok;
        obs.chose_indirect = record.outcome.chose_indirect;
        obs.probe_failures = record.outcome.probe_failures;
        obs.retries = record.outcome.retries;
        obs.fell_back_direct = record.outcome.fell_back_direct;
        obs.overload_rejections = record.outcome.overload_rejections;
        if (obs.ok) out.elapsed.add(record.outcome.total_elapsed);
        if (--pending == 0 && w + 1 < waves) {
          world.simulator().schedule_in(10.0, [&, w] {
            launch_wave(w + 1);
          });
        }
      });
    }
  };
  world.simulator().schedule_at(1.0, [&] { launch_wave(0); });
  world.simulator().run();
  IDR_REQUIRE(pending == 0, "ablation_overload: transfers still pending");

  for (const testbed::TransferObservation& t : session.transfers) {
    session.fault_probe_failures += t.probe_failures;
    session.fault_retries += t.retries;
    if (t.fell_back_direct) ++session.fault_fallbacks;
    if (!t.ok) ++session.failed_transfers;
    session.fault_overloads += t.overload_rejections;
  }
  session.transfers_shed = world.engine().transfers_shed();
  session.transfers_queued = world.engine().transfers_queued();
  session.sim_work = world.simulator().work();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opts = bench::parse_options(argc, argv);
  bench::print_header(
      "Ablation A6 - offered load vs relay capacity",
      "(extension) admission control sheds overload with 503 + Retry-After; "
      "paced retries and direct fallback keep every transfer completing",
      opts);

  const std::size_t waves = opts.paper_scale ? 6 : 3;
  const struct {
    const char* label;
    std::size_t factor;  // offered concurrent fetches per pool slot
  } levels[] = {{"1x capacity", 1}, {"2x", 2}, {"4x", 4}, {"10x", 10}};

  std::printf("relay pool: %zu relays x %zu slots, queue depth %zu each; "
              "%zu bursts per level\n\n",
              kRelays, kSlotsPerRelay, kSlotsPerRelay, waves);

  util::TextTable table({"Offered load", "Transfers", "Failed", "Shed(503)",
                         "Queued", "Indirect (%)", "p50 (s)", "p99 (s)"});
  testbed::SchedulerWork work;
  bool all_completed = true;
  for (const auto& level : levels) {
    const LevelResult r =
        run_level(opts.seed, level.factor * kPoolSlots, waves);
    const testbed::SessionResult& s = r.session;
    const double indirect_pct =
        100.0 * static_cast<double>(s.indirect_count()) /
        static_cast<double>(s.transfers.size());
    table.row()
        .cell(level.label)
        .cell(static_cast<double>(s.transfers.size()), 0)
        .cell(static_cast<double>(s.failed_transfers), 0)
        .cell(static_cast<double>(s.transfers_shed), 0)
        .cell(static_cast<double>(s.transfers_queued), 0)
        .cell(indirect_pct, 1)
        .cell(r.elapsed.empty() ? 0.0 : r.elapsed.quantile(0.5), 2)
        .cell(r.elapsed.empty() ? 0.0 : r.elapsed.quantile(0.99), 2);
    work += s.sim_work;
    if (s.failed_transfers > 0) all_completed = false;
  }

  std::printf("%s", table.render().c_str());
  std::printf(
      "\nShed counts grow with offered load while the failure column stays\n"
      "zero: rejected attempts are soft failures, so races finish over the\n"
      "ungoverned direct path (indirect share falls) or retry after the\n"
      "relay's Retry-After hint. Queueing and pacing bound the p99 tail\n"
      "instead of letting an unprotected relay serve everyone badly.\n");
  std::printf("all transfers completed: %s\n", all_completed ? "yes" : "NO");
  bench::print_scheduler_work(work);
  return 0;
}
