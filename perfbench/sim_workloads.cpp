// sim_sparse and sim_dense: a SyntheticFleet run through the shard layer
// (testbed::run_sharded) at one thread, one client session per shard.
// One op is one client session of 100 transfers.
#include "workloads.hpp"

#include <pthread.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "flow/flow_simulator.hpp"
#include "testbed/shard.hpp"

namespace perfbench {

namespace {

using namespace idr;

/// The fleet seed whose batch digest is recorded below. Every run checks
/// one default-seed batch against it before its timed window, whatever
/// `--seed` it was given.
constexpr std::uint64_t kDefaultSeed = 2026;

struct Recorded {
  std::uint64_t digest = 0;
  std::size_t ok = 0;
};

/// Default-seed batch outcomes (ShardSummary digest and ok transfers),
/// recorded from this code. A change that alters any simulated outcome
/// fails the run until these are deliberately re-recorded.
Recorded recorded(const Options& o) {
  const bool dense = o.workload == "sim_dense";
  if (o.tiny) {
    return dense ? Recorded{0x3c9a72bd787b2116ULL, 2000}
                 : Recorded{0xb0228e14bf579a48ULL, 2000};
  }
  return dense ? Recorded{0xe4e8c2a3daf77276ULL, 12800}
               : Recorded{0xda9cb59d0cc8dbe4ULL, 12800};
}

testbed::FleetSpec fleet_spec(const Options& o, std::uint64_t seed) {
  testbed::FleetSpec spec;
  spec.seed = seed;
  // >= 100 sessions so the per-session p90 has ten samples beyond it.
  spec.clients = o.tiny ? 100 : 128;
  spec.relay_pool = spec.clients;
  spec.relays_per_client = 3;
  spec.probe_set = 2;
  spec.transfers_per_client = o.tiny ? 20 : 100;
  spec.clients_per_shard = 1;
  spec.server = "eBay";
  // sim_sparse: the paper's cadence, transfers never overlap. sim_dense:
  // each client's next 4 MB transfer starts while the last still runs.
  spec.interval =
      o.workload == "sim_dense" ? util::seconds(20) : util::minutes(6);
  return spec;
}

/// A fleet and the shard plan drawn from it (the plan's site profiles view
/// the fleet's name storage, so the two live together).
struct Planned {
  std::unique_ptr<testbed::SyntheticFleet> fleet;
  std::vector<testbed::ShardSpec> plan;
};

struct SetupTimes {
  std::vector<double> total_s, build_s, plan_s;
};

Planned plan_fleet(const testbed::FleetSpec& spec, SetupTimes* times,
                   obs::Tracer* tracer) {
  Planned p;
  const double t0 = now_s();
  // The site population is fixed (default seed); `spec.seed` draws every
  // session's streams: relay subsets, path dynamics, races.
  testbed::FleetSpec population = spec;
  population.seed = kDefaultSeed;
  p.fleet = std::make_unique<testbed::SyntheticFleet>(population);
  const double t1 = now_s();
  p.plan = testbed::plan_fleet_shards(spec, *p.fleet);
  const double t2 = now_s();
  if (times != nullptr) {
    times->total_s.push_back(t2 - t0);
    times->build_s.push_back(t1 - t0);
    times->plan_s.push_back(t2 - t1);
  }
  if (tracer != nullptr) {
    tracer->complete("testbed.fleet_build", "perfbench", 0, t0 * 1e6,
                     (t1 - t0) * 1e6);
    tracer->complete("testbed.plan", "perfbench", 0, t1 * 1e6,
                     (t2 - t1) * 1e6);
  }
  return p;
}

/// One pass over the whole plan through run_sharded.
struct Batch {
  testbed::ShardSummary summary;
  testbed::SchedulerWork work;
  obs::Snapshot metrics;
  std::vector<double> op_s;      // per-session busy seconds, plan order
  std::vector<double> op_cpu_s;  // per-session thread CPU, plan order
  std::uint64_t failed_ops = 0;
  double wall_s = 0.0;  // the run_sharded call, merge included
  double cpu_s = 0.0;   // this thread's CPU over the same call
  double busy_s = 0.0;
  double self_s = 0.0;  // run_sharded span minus its shard spans
};

Batch run_batch(const std::vector<testbed::ShardSpec>& plan,
                obs::Tracer* tracer) {
  Batch b;
  std::vector<std::pair<double, double>> shard_spans;
  std::vector<testbed::ShardSpec> shards = plan;
  // One worker: run_sharded runs every shard, in plan order, and the
  // merge on this thread, so the thread CPU clock between callbacks is a
  // shard's CPU and over the whole call the batch's.
  const unsigned long self = static_cast<unsigned long>(::pthread_self());
  const double cpu0 = thread_cpu_s(self);
  double cpu_mark = cpu0;
  const double t0 = now_s();
  testbed::ShardRunResult run = testbed::run_sharded(
      std::move(shards), 1, [&](testbed::ShardResult& r) {
        const double cpu = thread_cpu_s(self);
        b.op_cpu_s.push_back(cpu - cpu_mark);
        cpu_mark = cpu;
        b.op_s.push_back(r.busy_seconds);
        if (r.summary.failed > 0 || r.summary.transfers == 0) ++b.failed_ops;
        if (tracer != nullptr) {
          const double end = now_s();
          shard_spans.emplace_back(end - r.busy_seconds, end);
          tracer->complete("testbed.shard", "perfbench", 0,
                           (end - r.busy_seconds) * 1e6,
                           r.busy_seconds * 1e6);
        }
        r.sessions.clear();
      });
  const double t1 = now_s();
  b.cpu_s = thread_cpu_s(self) - cpu0;
  if (tracer != nullptr) {
    tracer->complete("testbed.run_sharded", "perfbench", 0, t0 * 1e6,
                     (t1 - t0) * 1e6);
    b.self_s = self_time(t0, t1, shard_spans);
  }
  b.summary = run.summary;
  b.work = run.work;
  b.metrics = std::move(run.metrics);
  b.wall_s = t1 - t0;
  b.busy_s = run.busy_seconds;
  return b;
}

std::uint64_t series(const obs::Snapshot& s, const char* name) {
  const obs::MetricValue* m = s.find(name);
  return m != nullptr ? m->count : 0;
}

/// The simulated outcomes a performance change must leave identical.
struct Outcomes {
  testbed::ShardSummary summary;
  std::uint64_t races = 0, probe_failures = 0, retries = 0;

  explicit Outcomes(const Batch& b)
      : summary(b.summary),
        races(series(b.metrics, "sim.race.races_started")),
        probe_failures(series(b.metrics, "sim.race.probe_failures")),
        retries(series(b.metrics, "sim.race.retries")) {}

  bool operator==(const Outcomes& o) const {
    return summary.digest == o.summary.digest &&
           summary.transfers == o.summary.transfers &&
           summary.ok == o.summary.ok &&
           summary.indirect == o.summary.indirect &&
           races == o.races && probe_failures == o.probe_failures &&
           retries == o.retries;
  }
};

/// Batches back to back until `seconds` have passed.
struct Window {
  std::vector<Batch> batches;
  double wall_s = 0.0;
  std::size_t ops = 0;
  std::uint64_t failed_ops = 0;

  double ops_per_s() const { return ratio(static_cast<double>(ops), wall_s); }
};

Window run_window(const std::vector<testbed::ShardSpec>& plan,
                  double seconds, obs::Tracer* tracer, Report& report) {
  Window w;
  const double t0 = now_s();
  do {
    w.batches.push_back(run_batch(plan, tracer));
  } while (now_s() - t0 < seconds);
  w.wall_s = now_s() - t0;

  const Outcomes first(w.batches.front());
  for (const Batch& b : w.batches) {
    w.ops += b.op_s.size();
    w.failed_ops += b.failed_ops;
    if (!(Outcomes(b) == first)) {
      report.error("repeated batch of one plan changed its outcomes");
    }
  }
  return w;
}

void check_default_seed(const Options& o, Report& report) {
  const Planned p = plan_fleet(fleet_spec(o, kDefaultSeed), nullptr, nullptr);
  const Batch b = run_batch(p.plan, nullptr);
  const Recorded want = recorded(o);
  const std::uint64_t want_digest = o.expect_digest.value_or(want.digest);
  std::fprintf(stderr, "perfbench: default-seed digest %016llx ok %zu\n",
               static_cast<unsigned long long>(b.summary.digest),
               b.summary.ok);
  if (b.summary.digest != want_digest || b.summary.ok != want.ok) {
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "default-seed digest %016llx ok %zu, recorded %016llx ok "
                  "%zu",
                  static_cast<unsigned long long>(b.summary.digest),
                  b.summary.ok, static_cast<unsigned long long>(want_digest),
                  want.ok);
    report.error(msg);
  }
}

void report_layers(const SetupTimes& setup, const Window& plain,
                   const Window& traced, Report& r) {
  const Batch& b = plain.batches.front();
  const auto transfers = static_cast<double>(b.summary.transfers);
  const auto per_transfer = [&](double v) { return ratio(v, transfers); };

  r.metric("testbed.fleet_build_ms", median(setup.build_s) * 1e3, "ms");
  r.metric("testbed.plan_ms", median(setup.plan_s) * 1e3, "ms");
  std::vector<double> self_ms;
  for (const Batch& t : traced.batches) self_ms.push_back(t.self_s * 1e3);
  r.metric("testbed.merge_ms", median(self_ms), "ms");

  r.metric("sim.events_per_transfer",
           per_transfer(static_cast<double>(b.work.executed)), "count");
  r.metric("sim.reschedules_per_transfer",
           per_transfer(static_cast<double>(b.work.reschedules)), "count");
  r.metric("sim.cancels_per_transfer",
           per_transfer(static_cast<double>(b.work.cancellations)), "count");
  double busy = 0.0, executed = 0.0;
  for (const Batch& p : plain.batches) {
    busy += p.busy_s;
    executed += static_cast<double>(p.work.executed);
  }
  r.metric("sim.ns_per_event", ratio(busy, executed) * 1e9, "ns");

  const flow::FlowSimulator::Counters fc =
      flow::FlowSimulator::counters_from(b.metrics);
  const auto reallocs = static_cast<double>(fc.reallocations);
  r.metric("flow.reallocs_per_transfer", per_transfer(reallocs), "count");
  r.metric("flow.flows_touched_per_realloc",
           ratio(static_cast<double>(fc.flows_touched), reallocs), "count");
  r.metric("flow.maxmin_rounds_per_realloc",
           ratio(static_cast<double>(fc.maxmin_rounds), reallocs), "count");
  r.metric("flow.timer_rearms_per_transfer",
           per_transfer(static_cast<double>(fc.timer_rearms)), "count");
  r.metric("flow.skipped_per_transfer",
           per_transfer(static_cast<double>(fc.skipped_events)), "count");

  const Outcomes out(b);
  r.metric("overlay.transfers_started_per_transfer",
           per_transfer(static_cast<double>(
               series(b.metrics, "sim.engine.transfers_started"))),
           "count");
  r.metric("core.races_per_transfer",
           per_transfer(static_cast<double>(out.races)), "count");
  r.metric("core.probe_failures", static_cast<double>(out.probe_failures),
           "count");
  r.metric("core.retries", static_cast<double>(out.retries), "count");
  r.metric("core.indirect_frac",
           per_transfer(static_cast<double>(b.summary.indirect)), "ratio");

  r.metric("obs.trace_overhead",
           ratio(plain.ops_per_s(), traced.ops_per_s()), "ratio");
}

/// Every batch runs the same plan, so it repeats the same work: each
/// session, and the batch's own overhead around the sessions (dispatch,
/// callbacks, the serial merge). The fastest repetition of each part is
/// the estimate of its cost that neighbours on a shared host disturb
/// least, and a batch's cost is the sum of those parts. Throughput and CPU
/// per op come from that sum, so the merge counts; the latency
/// percentiles from the per-session parts.
void report_end_to_end(const Window& w, double bytes_per_transfer,
                       Report& report) {
  const auto sum = [](const std::vector<double>& v) {
    double total = 0.0;
    for (const double x : v) total += x;
    return total;
  };
  std::vector<double> best_s = w.batches.front().op_s;
  std::vector<double> best_cpu_s = w.batches.front().op_cpu_s;
  double overhead_s = w.batches.front().wall_s;
  double overhead_cpu_s = w.batches.front().cpu_s;
  for (const Batch& b : w.batches) {
    for (std::size_t i = 0; i < best_s.size(); ++i) {
      best_s[i] = std::min(best_s[i], b.op_s[i]);
      best_cpu_s[i] = std::min(best_cpu_s[i], b.op_cpu_s[i]);
    }
    overhead_s = std::min(overhead_s, b.wall_s - b.busy_s);
    overhead_cpu_s = std::min(overhead_cpu_s, b.cpu_s - sum(b.op_cpu_s));
  }
  const auto sessions = static_cast<double>(best_s.size());
  const double batch_s = sum(best_s) + overhead_s;
  const double ops_per_s = ratio(sessions, batch_s);
  std::fprintf(stderr,
               "perfbench: %zu batches; best parts %.2f sessions/s "
               "(overhead %.3f ms), whole window %.2f sessions/s\n",
               w.batches.size(), ops_per_s, overhead_s * 1e3, w.ops_per_s());
  report.metric("ops_per_s", ops_per_s, "1/s");
  report_quantile(report, "op_p50_ms", best_s, 0.5, 1e3, "ms");
  report_quantile(report, "op_p90_ms", best_s, 0.9, 1e3, "ms");
  // Simulated payload per wall second: every batch completes the same
  // transfers, so this is ops_per_s times a constant, not a second signal.
  const double bytes_per_session =
      static_cast<double>(w.batches.front().summary.ok) * bytes_per_transfer /
      sessions;
  report.metric("MB_per_s", ops_per_s * bytes_per_session / 1e6, "MB/s");
  report.metric("cpu_ms_per_op",
                ratio((sum(best_cpu_s) + overhead_cpu_s) * 1e3, sessions),
                "ms");
}

}  // namespace

void run_sim_workload(const Options& o, Report& report) {
  const testbed::FleetSpec spec = fleet_spec(o, o.seed);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  obs::Tracer* setup_tracer = o.trace ? &tracer : nullptr;

  // Set-up: fleet synthesis plus shard planning, repeated; the median is
  // setup_s. The last plan is the one the window runs.
  SetupTimes setup;
  Planned planned;
  const int reps = o.tiny ? 3 : 51;
  for (int i = 0; i < reps; ++i) {
    planned.plan.clear();
    planned = plan_fleet(spec, &setup, setup_tracer);
  }

  check_default_seed(o, report);

  if (!o.trace) {
    const Window w = run_window(planned.plan, o.seconds, nullptr, report);
    report.count_ops(w.ops, w.failed_ops);
    report_end_to_end(w, static_cast<double>(spec.knobs.file_size), report);
    report.metric("setup_s", median(setup.total_s), "s");
    report.metric("peak_rss_MB", peak_rss_mb(), "MB");
    return;
  }

  // Traced run: half the time untraced, half with the benchmark's spans;
  // the two must simulate exactly the same outcomes.
  const Window plain =
      run_window(planned.plan, o.seconds / 2, nullptr, report);
  const Window traced =
      run_window(planned.plan, o.seconds / 2, &tracer, report);
  report.count_ops(plain.ops + traced.ops,
                   plain.failed_ops + traced.failed_ops);
  if (!(Outcomes(plain.batches.front()) == Outcomes(traced.batches.front()))) {
    report.error("traced and untraced runs simulated different outcomes");
  }
  report_layers(setup, plain, traced, report);
}

}  // namespace perfbench
