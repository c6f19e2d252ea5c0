#include "testbed/session.hpp"

#include "util/error.hpp"

namespace idr::testbed {

SessionOutput run_session(const SessionSpec& spec) {
  return run_session(spec, MirroredPaths::make(spec.params));
}

SessionOutput run_session(const SessionSpec& spec,
                          const MirroredPaths& mirrored) {
  IDR_REQUIRE(spec.transfers > 0, "run_session: no transfers");
  IDR_REQUIRE(spec.interval > 0.0, "run_session: non-positive interval");
  IDR_REQUIRE(spec.policy_factory != nullptr,
              "run_session: null policy factory");

  // --- World A: the plain client, always direct. -------------------------
  ClientWorld world_a(spec.params, /*attach_relay_processes=*/false,
                      mirrored);
  struct DirectSample {
    bool done = false;
    util::Rate rate = 0.0;
  };
  std::vector<DirectSample> directs(spec.transfers);
  std::size_t pending_a = spec.transfers;
  // One cadence event per world, rescheduled in place from its own
  // callback for each subsequent transfer (instead of pre-scheduling all
  // N transfer events up front).
  struct Cadence {
    std::size_t k = 0;
    sim::EventId event = 0;
  };
  Cadence cad_a;
  cad_a.event = world_a.simulator().schedule_at(1.0, [&] {
    const std::size_t k = cad_a.k++;
    if (cad_a.k < spec.transfers) {
      world_a.simulator().reschedule_at(
          cad_a.event,
          1.0 + static_cast<double>(cad_a.k) * spec.interval);
    }
    world_a.begin_direct_download(
        [&, k](const overlay::TransferResult& result) {
          directs[k].done = result.ok;
          directs[k].rate = result.throughput();
          --pending_a;
        });
  }, sim::EventKind::kCadence);
  while (pending_a > 0) {
    IDR_REQUIRE(world_a.simulator().step(),
                "run_session: world A drained with transfers pending");
  }

  // --- World B: the selecting client, same bandwidth sample paths. -------
  // Its direct and access links read the changes world A drew.
  ClientWorld world_b(spec.params, /*attach_relay_processes=*/true,
                      mirrored);
  if (spec.tracer != nullptr) {
    world_b.flow_simulator().set_tracer(spec.tracer, spec.trace_track);
  }
  auto client = world_b.make_client(spec.policy_factory(world_b),
                                    util::Rng(spec.client_seed),
                                    spec.flights);

  SessionOutput output;
  SessionResult& session = output.result;
  session.client = spec.params.client_name;
  session.session_relay = spec.session_relay_label;
  session.transfers.resize(spec.transfers);

  std::size_t pending_b = spec.transfers;

  // Virtual-time sampler: one Snapshot of the selecting world's registry
  // per period, self-rescheduling like the cadence events. The event
  // simply stays scheduled when the last transfer completes — the run
  // loop below exits on pending_b, not on queue exhaustion.
  sim::EventId sample_event = 0;
  if (spec.sample_period > 0.0) {
    IDR_REQUIRE(spec.sample_capacity > 0,
                "run_session: zero sample capacity");
    session.series = obs::TimeSeries(spec.sample_capacity);
    session.series.push(world_b.simulator().now(),
                        world_b.flow_simulator().metrics().snapshot());
    sample_event =
        world_b.simulator().schedule_in(spec.sample_period, [&] {
          session.series.push(
              world_b.simulator().now(),
              world_b.flow_simulator().metrics().snapshot());
          world_b.simulator().reschedule_at(
              sample_event,
              world_b.simulator().now() + spec.sample_period);
        }, sim::EventKind::kSampler);
  }

  Cadence cad_b;
  cad_b.event = world_b.simulator().schedule_at(1.0, [&] {
    const std::size_t k = cad_b.k++;
    const util::TimePoint when =
        1.0 + static_cast<double>(k) * spec.interval;
    if (cad_b.k < spec.transfers) {
      world_b.simulator().reschedule_at(
          cad_b.event,
          1.0 + static_cast<double>(cad_b.k) * spec.interval);
    }
    client->fetch([&, k, when](const core::FetchRecord& record) {
      TransferObservation& obs = session.transfers[k];
      obs.client = spec.params.client_name;
      obs.session_relay = spec.session_relay_label;
      obs.start_time = when;
      obs.ok = record.outcome.ok && directs[k].done;
      obs.chose_indirect = record.outcome.chose_indirect;
      obs.probe_failures = record.outcome.probe_failures;
      obs.retries = record.outcome.retries;
      obs.fell_back_direct = record.outcome.fell_back_direct;
      obs.race_skipped = record.outcome.race_skipped;
      obs.overload_rejections = record.outcome.overload_rejections;
      if (obs.ok) {
        obs.selected_rate = record.outcome.selected_throughput();
        obs.selected_steady_rate = record.outcome.steady_throughput();
        obs.direct_rate = directs[k].rate;
        obs.improvement_pct =
            core::improvement_pct(obs.selected_rate, obs.direct_rate);
        obs.improvement_steady_pct = core::improvement_pct(
            obs.selected_steady_rate, obs.direct_rate);
        if (record.outcome.chose_indirect) {
          obs.chosen_relay =
              world_b.relay_name_of(record.outcome.relay);
          // Relay history carries the steady metric: it scores the
          // path, not the probing cost of this particular race.
          client->record_improvement(record.outcome.relay,
                                     obs.improvement_steady_pct);
        }
      }
      --pending_b;
    });
  }, sim::EventKind::kCadence);
  while (pending_b > 0) {
    IDR_REQUIRE(world_b.simulator().step(),
                "run_session: world B drained with transfers pending");
  }

  for (const DirectSample& d : directs) {
    if (d.done) session.direct_rate_stats.add(d.rate);
  }
  for (const TransferObservation& t : session.transfers) {
    session.fault_probe_failures += t.probe_failures;
    session.fault_retries += t.retries;
    if (t.fell_back_direct) ++session.fault_fallbacks;
    if (!t.ok) ++session.failed_transfers;
    session.fault_overloads += t.overload_rejections;
  }
  session.faults_injected = world_b.engine().faults_injected();
  session.transfers_shed = world_b.engine().transfers_shed();
  session.transfers_queued = world_b.engine().transfers_queued();
  session.sim_work = world_a.simulator().work();
  session.sim_work += world_b.simulator().work();
  // Fold the event-core totals into the selecting world's registry so one
  // snapshot carries the whole session, then merge the plain mirror's
  // series (same names; counters add).
  obs::Registry& reg_b = world_b.flow_simulator().metrics();
  reg_b.counter("sim.core.events_executed").inc(session.sim_work.executed);
  reg_b.counter("sim.core.events_cancelled")
      .inc(session.sim_work.cancellations);
  reg_b.counter("sim.core.events_rescheduled")
      .inc(session.sim_work.reschedules);
  session.metrics = reg_b.snapshot();
  session.metrics.merge(world_a.flow_simulator().metrics().snapshot());
  output.relay_stats = client->stats();
  return output;
}

}  // namespace idr::testbed
