#include "core/race_machine.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace idr::core {

namespace {

RaceMetrics resolve(obs::Registry& r, const RaceStack& stack) {
  const std::string race = std::string(stack.prefix) + ".race.";
  const std::string select = std::string(stack.prefix) + ".select.";
  const auto c = [&r](const std::string& name) { return r.counter(name); };
  return {c(race + "races_started"),       c(race + "races_failed"),
          c(race + "races_won_indirect"),  c(race + "races_won_direct"),
          c(race + "probe_failures"),      c(race + "retries"),
          c(race + "overload_rejections"), c(race + "fallbacks_direct"),
          c(select + "races_run"),         c(select + "probe_bytes"),
          r.histogram(race + "probe_seconds", stack.probe_seconds),
          // Registered by resolve_pin on the first pinned race.
          /*races_skipped=*/{},
          /*pinned_fallbacks=*/{},
          /*estimate_age=*/{}};
}

void resolve_pin(obs::Registry& r, const RaceStack& stack, RaceMetrics& m) {
  const std::string select = std::string(stack.prefix) + ".select.";
  m.races_skipped = r.counter(select + "races_skipped");
  m.pinned_fallbacks = r.counter(select + "pinned_fallbacks");
  m.estimate_age = r.histogram(select + "estimate_age", stack.estimate_age);
}

/// Handles resolved once per registry and stack on each thread, so a race
/// does no name lookups. Keyed by the registry's never-reused serial: a
/// registry reallocated at a freed one's address cannot hit stale handles.
RaceMetrics metrics_for(obs::Registry* registry, const RaceStack& stack,
                        bool pinned) {
  if (registry == nullptr) return {};
  thread_local struct {
    std::uint64_t serial = 0;
    const RaceStack* stack = nullptr;
    RaceMetrics metrics;
  } slot;
  if (slot.serial != registry->serial() || slot.stack != &stack) {
    slot = {registry->serial(), &stack, resolve(*registry, stack)};
  }
  if (pinned && !slot.metrics.races_skipped.valid()) {
    resolve_pin(*registry, stack, slot.metrics);
  }
  return slot.metrics;
}

}  // namespace

RaceMachine::RaceMachine(const RaceConfig& config, RaceDriver& driver,
                         double now)
    : cfg_(config),
      driver_(driver),
      m_(metrics_for(config.metrics, *config.stack,
                     config.pinned_lane.has_value())),
      start_time_(now) {
  m_.started.inc();
}

std::uint64_t RaceMachine::probe_span() const {
  return std::min(cfg_.probe_bytes, cfg_.file_bytes);
}

std::optional<http::RangeSpec> RaceMachine::range(const Attempt& a) const {
  switch (a.kind) {
    case AttemptKind::Probe:
      return http::range_first_bytes(probe_span());
    case AttemptKind::Remainder:
    case AttemptKind::DirectRemainder:
      return http::range_from_offset(probe_span());
    default:
      return std::nullopt;
  }
}

void RaceMachine::start() {
  if (!cfg_.pinned_lane) {
    launch(start_time_);
    return;
  }
  v_.race_skipped = true;
  m_.races_skipped.inc();
  m_.estimate_age.observe(cfg_.pinned_estimate_age);
  driver_.start_attempt({AttemptKind::Pinned, *cfg_.pinned_lane, 0});
}

void RaceMachine::launch(double now) {
  IDR_REQUIRE(probe_span() > 0, "probe race: zero probe size");
  v_.race_skipped = false;
  launch_time_ = now;
  // Probe overhead is the probe span down every losing lane (one lane's
  // probe counts toward the file), charged at launch: lanes cancelled
  // early still consumed capacity.
  m_.races_run.inc();
  m_.probe_bytes.inc(probe_span() * cfg_.relays);
  open_.assign(cfg_.relays + 1, 1);
  pending_ = open_.size();
  for (std::size_t lane = 0; lane < open_.size(); ++lane) {
    driver_.start_attempt({AttemptKind::Probe, lane, 0});
  }
  // A lane whose relay silently died would otherwise stall the race.
  if (cfg_.probe_timeout > 0.0) {
    timer_ = Timer::ProbeTimeout;
    driver_.arm_timer(cfg_.probe_timeout);
  }
}

void RaceMachine::on_attempt_done(const Attempt& a, const AttemptResult& r) {
  if (done_) return;
  if (a.kind == AttemptKind::Probe) {
    on_probe(a.lane, r);
    return;
  }
  const bool remainder = a.kind == AttemptKind::Remainder ||
                         a.kind == AttemptKind::DirectRemainder;
  if (r.ok) {
    if (remainder) {
      v_.body_verified = v_.body_verified && r.verified;
    } else {  // fallback or pin: this one transfer carried the file
      v_.chose_indirect = a.kind == AttemptKind::Pinned;
      v_.lane = a.lane;
      v_.body_verified = r.verified;
    }
    succeed(r.now, a.kind == AttemptKind::Fallback ? nullptr : &r);
    return;
  }
  note_failure(a.lane, r.overloaded);
  if (a.kind == AttemptKind::Pinned) {
    // Abandon the pin: the relay is charged above, and the full race runs
    // as if the pin had never existed.
    m_.pinned_fallbacks.inc();
    launch(r.now);
    return;
  }
  if (retry(a, r)) return;
  if (a.kind == AttemptKind::Remainder && a.lane != 0) {
    // The selected relay is dead: degrade to the direct path.
    v_.fell_back_direct = true;
    driver_.start_attempt({AttemptKind::DirectRemainder, 0, 0});
    return;
  }
  const char* what = remainder
                         ? "remainder transfer failed after retries: "
                         : "all probes failed and direct fallback died: ";
  fail(what + std::string(r.error), r.now);
}

void RaceMachine::on_probe(std::size_t lane, const AttemptResult& r) {
  open_[lane] = 0;
  --pending_;
  if (decided_) return;
  if (!r.ok) {
    ++v_.probe_failures;
    note_failure(lane, r.overloaded);
    if (pending_ == 0) {
      // Every lane died: salvage the transfer with a plain direct fetch,
      // what a non-selecting client would do.
      disarm();
      v_.fell_back_direct = true;
      driver_.start_attempt({AttemptKind::Fallback, 0, 0});
    }
    return;
  }
  decided_ = true;
  v_.chose_indirect = lane != 0;
  v_.lane = lane;
  v_.probe_elapsed = r.now - launch_time_;
  v_.body_verified = r.verified;
  disarm();
  for (std::size_t other = 0; other < open_.size(); ++other) {
    if (open_[other] != 0) driver_.cancel_lane(other);
  }
  if (probe_span() >= cfg_.file_bytes) {
    succeed(r.now, nullptr);  // the probe covered the whole file
  } else {
    driver_.start_attempt({AttemptKind::Remainder, lane, 0});
  }
}

void RaceMachine::on_timer() {
  const Timer fired = std::exchange(timer_, Timer::None);
  if (done_) return;
  if (fired == Timer::Retry) {
    driver_.start_attempt(retry_);
    return;
  }
  if (fired != Timer::ProbeTimeout || decided_ || pending_ == 0) return;
  // Probe timeout: every unfinished lane counts as failed.
  for (std::size_t lane = 0; lane < open_.size(); ++lane) {
    if (open_[lane] == 0) continue;
    driver_.cancel_lane(lane);
    open_[lane] = 0;
    --pending_;
    ++v_.probe_failures;
    note_failure(lane, /*overloaded=*/false);
  }
  v_.fell_back_direct = true;
  driver_.start_attempt({AttemptKind::Fallback, 0, 0});
}

/// A shed attempt feeds the short "overloaded" penalty, any other relay
/// failure the crash blacklist; the direct path has no relay to charge.
void RaceMachine::note_failure(std::size_t lane, bool overloaded) {
  if (overloaded) ++v_.overload_rejections;
  if (lane == 0) return;
  auto& relays = overloaded ? v_.overloaded_relays : v_.failed_relays;
  const std::int64_t relay = driver_.relay_id(lane);
  if (std::find(relays.begin(), relays.end(), relay) == relays.end()) {
    relays.push_back(relay);
  }
}

bool RaceMachine::retry(const Attempt& a, const AttemptResult& r) {
  if (a.retry >= cfg_.retry.max_retries) return false;
  ++v_.retries;
  // An overloaded peer's Retry-After floor beats our backoff: retrying
  // sooner would just be shed again.
  const double delay = std::max(
      fault::backoff_delay(cfg_.retry, a.retry, driver_.backoff_rng()),
      r.retry_after);
  retry_ = {a.kind, a.lane, a.retry + 1};
  timer_ = Timer::Retry;
  driver_.arm_timer(delay);
  return true;
}

void RaceMachine::disarm() {
  if (timer_ == Timer::None) return;
  timer_ = Timer::None;
  driver_.cancel_timer();
}

void RaceMachine::succeed(double now, const AttemptResult* tail) {
  v_.ok = true;
  v_.total_elapsed = now - start_time_;
  if (tail != nullptr) {
    v_.tail_bytes = tail->bytes;
    v_.tail_elapsed = tail->elapsed;
  }
  finish();
}

void RaceMachine::fail(std::string error, double now) {
  v_.ok = false;
  v_.error = std::move(error);
  v_.chose_indirect = false;
  v_.body_verified = false;
  v_.probe_elapsed = 0.0;
  v_.total_elapsed = now - start_time_;
  finish();
}

void RaceMachine::finish() {
  done_ = true;
  const RaceVerdict& v = v_;
  (v.ok ? (v.chose_indirect ? m_.won_indirect : m_.won_direct) : m_.failed)
      .inc();
  m_.probe_failures.inc(v.probe_failures);
  m_.retries.inc(v.retries);
  m_.overload_rejections.inc(v.overload_rejections);
  if (v.fell_back_direct) m_.fallbacks_direct.inc();
  if (v.ok && v.probe_elapsed > 0.0) m_.probe_seconds.observe(v.probe_elapsed);
  if (cfg_.flights != nullptr) {
    obs::FlightRecord rec;
    rec.trace_id = cfg_.trace_id;
    rec.source = std::string(cfg_.stack->prefix) + ".race";
    rec.peer = cfg_.flight_peer;
    rec.start_time = start_time_;
    rec.ok = v.ok;
    rec.chose_indirect = v.chose_indirect;
    rec.race_skipped = v.race_skipped;
    rec.fell_back_direct = v.fell_back_direct;
    rec.relay_index = v.chose_indirect ? driver_.relay_id(v.lane) : -1;
    rec.probe_elapsed_s = v.probe_elapsed;
    rec.total_elapsed_s = v.total_elapsed;
    rec.bytes_total = v.ok ? cfg_.file_bytes : 0;
    rec.bytes_probe = v.race_skipped ? 0 : probe_span() * cfg_.relays;
    rec.retries = v.retries;
    rec.probe_failures = v.probe_failures;
    rec.overload_rejections = v.overload_rejections;
    cfg_.flights->record(std::move(rec));
  }
  driver_.finish(v);
}

}  // namespace idr::core
