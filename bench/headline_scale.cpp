// Planet-scale shard-execution headline: populations PlanetLab never had.
//
// Builds a SyntheticFleet (thousands of clients and relays synthesized
// from the calibrated Table IV/V profiles), plans one session per client
// (random-subset probe racing), partitions the fleet into per-client-group
// shards, and runs the whole thing through testbed::run_sharded at each
// thread count in the sweep. Gates, written to BENCH_shardsim.json
// (default ./BENCH_shardsim.json, --out=PATH to override):
//
//  1. determinism — the transfer digest and the merged metrics snapshot
//     must be byte-identical at every thread count (the shard layer's
//     core promise);
//  2. work metrics — flow reallocations stay component-scoped
//     (flows_touched per reallocation bounded) and event-core work per
//     transfer stays bounded at fleet scale (<= 40 events per transfer,
//     ~34.2 measured: idle links' capacity processes must stay parked),
//     i.e. no layer silently reverts to population-sized recomputes or
//     per-link timers — both are pure counters, load-insensitive,
//     asserted always. Executed events are also reported per EventKind;
//  3. scaling efficiency — wall(1 thread) / (N * wall(N threads)) >= 0.6
//     at N = 4, asserted only when the host actually has >= 4 hardware
//     threads (a 1-core container time-slices the workers and measures
//     the scheduler, not the shard layer); the measured value is always
//     recorded. Zero failed transfers is asserted in every mode.
//
// Default mode is the CI-sized gate (~10^5 transfers, sweep {1, 4});
// --full is the headline itself: 2048 clients x 2048-relay pool,
// 1,048,576 transfers, sweep {1, 2, 4, 8}.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "flow/flow_simulator.hpp"
#include "sim/simulator.hpp"
#include "testbed/shard.hpp"
#include "util/rng.hpp"

namespace {

using namespace idr;

int g_failures = 0;

// Gate on executed events per transfer. Parked capacity processes and
// parked slow-start ramps put the gate fleet at ~34.2; eager per-link
// redraws measured ~145.
constexpr double kMaxEventsPerTransfer = 40.0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

struct SweepPoint {
  unsigned threads = 0;
  double wall_seconds = 0.0;
  double busy_seconds = 0.0;
  double speedup = 0.0;      // wall(1) / wall(threads)
  double efficiency = 0.0;   // speedup / threads
  std::uint64_t digest = 0;
  bool digest_matches = true;
  bool snapshot_matches = true;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  std::uint64_t seed = 2026;
  std::string out_path = "BENCH_shardsim.json";
  std::vector<unsigned> sweep;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      full = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--threads-sweep=", 0) == 0) {
      for (const char* p = arg.c_str() + 16; *p != '\0';) {
        char* end = nullptr;
        const unsigned long t = std::strtoul(p, &end, 10);
        if (end == p) break;
        if (t > 0) sweep.push_back(static_cast<unsigned>(t));
        p = (*end == ',') ? end + 1 : end;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--full] [--seed=N] [--out=PATH] "
          "[--threads-sweep=1,2,4,...]\n",
          argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    }
  }

  testbed::FleetSpec spec;
  spec.seed = seed;
  if (full) {
    spec.clients = 2048;
    spec.relay_pool = 2048;
    spec.transfers_per_client = 512;  // 2048 * 512 = 1,048,576 transfers
    spec.clients_per_shard = 8;       // 256 shards
    if (sweep.empty()) sweep = {1, 2, 4, 8};
  } else {
    spec.clients = 256;
    spec.relay_pool = 256;
    spec.transfers_per_client = 400;  // 256 * 400 = 102,400 transfers
    spec.clients_per_shard = 4;       // 64 shards
    if (sweep.empty()) sweep = {1, 4};
  }
  const std::size_t expected_transfers =
      spec.clients * spec.transfers_per_client;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

  std::printf("== headline_scale (%s) ==\n", full ? "full" : "gate");
  std::printf(
      "fleet: %zu clients, %zu-relay pool, %zu relays/client, "
      "%zu-probe races, %zu transfers/client (%zu total), "
      "%zu clients/shard\n",
      spec.clients, spec.relay_pool, spec.relays_per_client, spec.probe_set,
      spec.transfers_per_client, expected_transfers, spec.clients_per_shard);

  const auto t_fleet = std::chrono::steady_clock::now();
  const testbed::SyntheticFleet fleet(spec);
  const double fleet_seconds = seconds_since(t_fleet);

  // The worker-side reducer drops per-transfer observations as each shard
  // finishes — the summaries and merged snapshots carry everything the
  // gates need, so peak memory stays at (live shards x shard size)
  // regardless of run size.
  const auto shed_observations = [](testbed::ShardResult& shard) {
    shard.sessions.clear();
    shard.sessions.shrink_to_fit();
  };

  std::vector<SweepPoint> points;
  std::uint64_t base_digest = 0;
  std::string base_snapshot_json;
  testbed::ShardSummary base_summary;
  testbed::SchedulerWork base_work;
  flow::FlowSimulator::Counters base_flow;
  std::size_t shard_count = 0;

  for (const unsigned threads : sweep) {
    const auto t_plan = std::chrono::steady_clock::now();
    std::vector<testbed::ShardSpec> shards =
        testbed::plan_fleet_shards(spec, fleet);
    const double plan_seconds = seconds_since(t_plan);
    shard_count = shards.size();

    testbed::ShardRunResult run = testbed::run_sharded(
        std::move(shards), threads, shed_observations);

    SweepPoint p;
    p.threads = threads;
    p.wall_seconds = run.wall_seconds;
    p.busy_seconds = run.busy_seconds;
    p.digest = run.summary.digest;
    const std::string snapshot_json = run.metrics.to_json();
    if (points.empty()) {
      base_digest = run.summary.digest;
      base_snapshot_json = snapshot_json;
      base_summary = run.summary;
      base_work = run.work;
      base_flow = flow::FlowSimulator::counters_from(run.metrics);
      p.speedup = 1.0;
      p.efficiency = 1.0;
    } else {
      p.digest_matches = run.summary.digest == base_digest;
      p.snapshot_matches = snapshot_json == base_snapshot_json;
      p.speedup = run.wall_seconds > 0.0
                      ? points.front().wall_seconds / run.wall_seconds
                      : 0.0;
      p.efficiency = p.speedup / threads;
      check(p.digest_matches,
            "transfer digest diverged at " + std::to_string(threads) +
                " threads (determinism broken)");
      check(p.snapshot_matches,
            "metrics snapshot diverged at " + std::to_string(threads) +
                " threads (determinism broken)");
    }
    check(run.summary.transfers == expected_transfers,
          "transfer count " + std::to_string(run.summary.transfers) +
              " != expected " + std::to_string(expected_transfers));
    check(run.summary.failed == 0,
          std::to_string(run.summary.failed) + " failed transfers");

    std::printf(
        "threads=%-2u wall %7.2f s  busy %8.2f s  %9.0f transfers/s  "
        "speedup %5.2fx  efficiency %4.2f  digest %016llx%s\n",
        threads, p.wall_seconds, p.busy_seconds,
        p.wall_seconds > 0.0 ? expected_transfers / p.wall_seconds : 0.0,
        p.speedup, p.efficiency,
        static_cast<unsigned long long>(p.digest),
        p.digest_matches && p.snapshot_matches ? "" : "  MISMATCH");
    if (points.empty()) {
      std::printf(
          "fleet build %.2f s, plan %.2f s, %zu shards; "
          "%.1f%% indirect, mean steady improvement %+.1f%%\n",
          fleet_seconds, plan_seconds, shard_count,
          run.summary.transfers > 0
              ? 100.0 * static_cast<double>(run.summary.indirect) /
                    static_cast<double>(run.summary.transfers)
              : 0.0,
          run.summary.ok > 0
              ? run.summary.improvement_sum /
                    static_cast<double>(run.summary.ok)
              : 0.0);
    }
    points.push_back(p);
  }

  // --- Work-metric gates: pure counters, independent of machine load. ----
  const double flows_per_realloc =
      base_flow.reallocations > 0
          ? static_cast<double>(base_flow.flows_touched) /
                static_cast<double>(base_flow.reallocations)
          : 0.0;
  const double events_per_transfer =
      static_cast<double>(base_work.executed) /
      static_cast<double>(expected_transfers);
  check(flows_per_realloc > 0.0 && flows_per_realloc <= 16.0,
        "flows touched per reallocation " +
            std::to_string(flows_per_realloc) +
            " outside (0, 16] — recompute no longer component-scoped");
  check(events_per_transfer > 0.0 &&
            events_per_transfer <= kMaxEventsPerTransfer,
        "events per transfer " + std::to_string(events_per_transfer) +
            " outside (0, " + std::to_string(kMaxEventsPerTransfer) +
            "] — event volume no longer transfer-scoped");
  const auto kind_per_transfer = [&](std::size_t k) {
    return static_cast<double>(base_work.executed_by_kind[k]) /
           static_cast<double>(expected_transfers);
  };
  std::printf("events/transfer %.2f:", events_per_transfer);
  for (std::size_t k = 0; k < sim::kEventKindCount; ++k) {
    std::printf(" %s %.2f",
                sim::event_kind_name(static_cast<sim::EventKind>(k)),
                kind_per_transfer(k));
  }
  std::printf("\n");

  // --- Scaling-efficiency gate (hardware-permitting). --------------------
  double eff4 = 0.0;
  bool eff4_asserted = false;
  for (const SweepPoint& p : points) {
    if (p.threads == 4) {
      eff4 = p.efficiency;
      if (cores >= 4) {
        eff4_asserted = true;
        check(eff4 >= 0.6,
              "parallel scaling efficiency at 4 threads " +
                  std::to_string(eff4) + " < 0.6");
      } else {
        std::fprintf(stderr,
                     "note: %u hardware thread(s) — 4-thread efficiency "
                     "%.2f recorded, not asserted\n",
                     cores, eff4);
      }
    }
  }

  // --- BENCH_shardsim.json ------------------------------------------------
  std::string json;
  char buf[1024];
  json += "{\n  \"bench\": \"headline_scale_shardsim\",\n";
  std::snprintf(buf, sizeof buf,
                "  \"mode\": \"%s\",\n  \"seed\": %llu,\n"
                "  \"hardware_threads\": %u,\n",
                full ? "full" : "gate",
                static_cast<unsigned long long>(seed), cores);
  json += buf;
  std::snprintf(
      buf, sizeof buf,
      "  \"population\": {\"clients\": %zu, \"relay_pool\": %zu,\n"
      "    \"relays_per_client\": %zu, \"probe_set\": %zu,\n"
      "    \"transfers_per_client\": %zu, \"transfers\": %zu,\n"
      "    \"clients_per_shard\": %zu, \"shards\": %zu},\n",
      spec.clients, spec.relay_pool, spec.relays_per_client, spec.probe_set,
      spec.transfers_per_client, expected_transfers, spec.clients_per_shard,
      shard_count);
  json += buf;
  std::snprintf(
      buf, sizeof buf,
      "  \"outcome\": {\"ok\": %zu, \"failed\": %zu,\n"
      "    \"indirect_fraction\": %.6g,\n"
      "    \"mean_steady_improvement_pct\": %.6g,\n"
      "    \"digest\": \"%016llx\"},\n",
      base_summary.ok, base_summary.failed,
      base_summary.transfers > 0
          ? static_cast<double>(base_summary.indirect) /
                static_cast<double>(base_summary.transfers)
          : 0.0,
      base_summary.ok > 0 ? base_summary.improvement_sum /
                                static_cast<double>(base_summary.ok)
                          : 0.0,
      static_cast<unsigned long long>(base_digest));
  json += buf;
  std::snprintf(
      buf, sizeof buf,
      "  \"work\": {\"events_executed\": %llu,\n"
      "    \"events_rescheduled\": %llu,\n"
      "    \"events_per_transfer\": %.6g,\n"
      "    \"events_per_transfer_bound\": %.6g,\n"
      "    \"flow_reallocations\": %llu,\n"
      "    \"flow_solver_bypasses\": %llu,\n"
      "    \"flows_touched_per_reallocation\": %.6g,\n"
      "    \"events_per_transfer_by_kind\": {",
      static_cast<unsigned long long>(base_work.executed),
      static_cast<unsigned long long>(base_work.reschedules),
      events_per_transfer, kMaxEventsPerTransfer,
      static_cast<unsigned long long>(base_flow.reallocations),
      static_cast<unsigned long long>(base_flow.solver_bypasses),
      flows_per_realloc);
  json += buf;
  for (std::size_t k = 0; k < sim::kEventKindCount; ++k) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.6g", k > 0 ? ", " : "",
                  sim::event_kind_name(static_cast<sim::EventKind>(k)),
                  kind_per_transfer(k));
    json += buf;
  }
  json += "}},\n";
  json += "  \"runs\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::snprintf(
        buf, sizeof buf,
        "    {\"threads\": %u, \"wall_seconds\": %.6g,\n"
        "     \"busy_seconds\": %.6g, \"transfers_per_second\": %.6g,\n"
        "     \"speedup_vs_1thread\": %.6g, \"efficiency\": %.6g,\n"
        "     \"deterministic_vs_1thread\": %s}%s\n",
        p.threads, p.wall_seconds, p.busy_seconds,
        p.wall_seconds > 0.0 ? expected_transfers / p.wall_seconds : 0.0,
        p.speedup, p.efficiency,
        p.digest_matches && p.snapshot_matches ? "true" : "false",
        i + 1 < points.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  std::snprintf(buf, sizeof buf,
                "  \"efficiency_gate\": {\"threads\": 4, \"required\": 0.6,\n"
                "    \"measured\": %.6g, \"asserted\": %s}\n}\n",
                eff4, eff4_asserted ? "true" : "false");
  json += buf;

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path.c_str());
    ++g_failures;
  }

  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::puts("headline_scale OK");
  return 0;
}
