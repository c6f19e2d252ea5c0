// The socket driver of core::RaceMachine: attempts are rt::fetch calls,
// the timer is a reactor timer.
#include "rt/probe_race.hpp"

#include <cstdio>
#include <memory>

#include "util/error.hpp"

namespace idr::rt {

namespace {

using core::Attempt;
using core::AttemptKind;

constexpr core::RaceStack kRtStack{"rt", {1e-4, 1e3, 4}, {1e-3, 1e5, 4}};

/// `traceparent` child salt per attempt: each outbound request of the
/// race carries a distinct, replayable child span id.
std::uint64_t trace_salt(const Attempt& a) {
  switch (a.kind) {
    case AttemptKind::Probe: return 0x100 + a.lane;
    case AttemptKind::Remainder: return 0x200 + 4 * a.retry;
    case AttemptKind::DirectRemainder: return 0x200 + 4 * a.retry + 1;
    case AttemptKind::Fallback: return 0x300 + a.retry;
    case AttemptKind::Pinned: return 0x400;
  }
  return 0;
}

class RtRace final : public core::RaceDriver,
                     public std::enable_shared_from_this<RtRace> {
 public:
  RtRace(Reactor& reactor, const RaceSpec& spec, RaceCallback on_done)
      : reactor_(reactor),
        spec_(spec),
        on_done_(std::move(on_done)),
        flight_peer_(spec.flights == nullptr
                         ? std::string()
                         : spec.origin.host + ":" +
                               std::to_string(spec.origin.port) + spec.path),
        machine_(config(), *this, reactor.now()) {}

  void start() { machine_.start(); }

  void start_attempt(const Attempt& a) override {
    FetchRequest req;
    req.origin = spec_.origin;
    req.path = spec_.path;
    req.range = machine_.range(a);
    if (a.lane > 0) req.proxy = spec_.relays[a.lane - 1];
    req.timeout_s = spec_.timeout_s;
    if (spec_.trace.valid()) req.trace = spec_.trace.child(trace_salt(a));
    FetchHandle handle = fetch(
        reactor_, req, [self = shared_from_this(), a](const FetchResult& r) {
          self->machine_.on_attempt_done(
              a, {.ok = r.ok, .now = self->reactor_.now(),
                  .overloaded = r.overloaded(),
                  .retry_after = r.retry_after_s,
                  .verified = r.body_verified, .error = r.error});
        });
    if (a.kind == AttemptKind::Probe) {
      if (lanes_.empty()) lanes_.resize(spec_.relays.size() + 1);
      lanes_[a.lane] = std::move(handle);
    }
  }

  void cancel_lane(std::size_t lane) override { lanes_[lane].cancel(); }

  void arm_timer(double delay) override {
    timer_ = reactor_.add_timer(delay, [self = shared_from_this()] {
      self->timer_.reset();
      self->machine_.on_timer();
    });
  }

  void cancel_timer() override {
    if (timer_) reactor_.cancel_timer(*timer_);
    timer_.reset();
  }

  util::Rng& backoff_rng() override { return backoff_rng_; }

  std::int64_t relay_id(std::size_t lane) const override {
    return static_cast<std::int64_t>(lane) - 1;
  }

  void finish(const core::RaceVerdict& v) override {
    RaceResult result;
    static_cast<core::RaceSummary&>(result) = v;
    if (v.chose_indirect) result.relay_index = v.lane - 1;
    result.total_bytes = v.ok ? spec_.resource_size : 0;
    result.body_verified = v.body_verified;
    emit_race_span(result);
    on_done_(result);
  }

 private:
  core::RaceConfig config() const {
    core::RaceConfig c;
    c.stack = &kRtStack;
    c.relays = spec_.relays.size();
    c.file_bytes = spec_.resource_size;
    c.probe_bytes = spec_.probe_bytes;
    c.retry = spec_.retry;
    if (spec_.pinned_relay) c.pinned_lane = *spec_.pinned_relay + 1;
    c.pinned_estimate_age = spec_.pinned_estimate_age_s;
    c.metrics = spec_.metrics;
    c.flights = spec_.flights;
    c.flight_peer = flight_peer_;
    c.trace_id = spec_.trace.trace_id;
    return c;
  }

  /// The "probe_race" span on the client's track, plus the flow chain:
  /// 's' at race start, 't' on each server hop, 'f' back here at
  /// completion — one arrowed chain per transfer.
  void emit_race_span(const RaceResult& result) {
    obs::Tracer* tracer = spec_.tracer;
    if (tracer == nullptr || !tracer->enabled()) return;
    char args[128];
    std::snprintf(args, sizeof args,
                  "{\"ok\":%s,\"chose_indirect\":%s,\"relay\":%lld,"
                  "\"fell_back_direct\":%s}",
                  result.ok ? "true" : "false",
                  result.chose_indirect ? "true" : "false",
                  result.chose_indirect
                      ? static_cast<long long>(result.relay_index)
                      : -1LL,
                  result.fell_back_direct ? "true" : "false");
    const double start_us = machine_.start_time() * 1e6;
    const double end_us = reactor_.now() * 1e6;
    obs::TraceEvent ev;
    ev.name = "probe_race";
    ev.category = "rt.race";
    ev.phase = 'X';
    ev.pid = spec_.trace_pid;
    ev.track = spec_.trace_track;
    ev.ts_us = start_us;
    ev.dur_us = end_us - start_us;
    ev.trace_id = spec_.trace.trace_id;
    ev.span_id = spec_.trace.span_id;
    ev.args_json = args;
    tracer->append(std::move(ev));
    if (spec_.trace.valid()) {
      tracer->flow('s', "transfer", "rt.race", spec_.trace_pid,
                   spec_.trace_track, start_us, spec_.trace.trace_id);
      tracer->flow('f', "transfer", "rt.race", spec_.trace_pid,
                   spec_.trace_track, end_us, spec_.trace.trace_id);
    }
  }

  Reactor& reactor_;
  RaceSpec spec_;
  RaceCallback on_done_;
  std::string flight_peer_;
  std::vector<FetchHandle> lanes_;  // lane 0 = direct, i+1 = relays[i]
  std::optional<TimerId> timer_;
  /// Fixed seed: wall-clock retry spacing needs decorrelation, not
  /// reproducibility.
  util::Rng backoff_rng_{0xF417u};
  core::RaceMachine machine_;
};

}  // namespace

void start_probe_race(Reactor& reactor, const RaceSpec& spec,
                      RaceCallback on_done) {
  IDR_REQUIRE(on_done != nullptr, "start_probe_race: null callback");
  IDR_REQUIRE(spec.resource_size > 0, "start_probe_race: zero resource");
  IDR_REQUIRE(spec.probe_bytes > 0, "start_probe_race: zero probe");
  IDR_REQUIRE(!spec.pinned_relay.has_value() ||
                  *spec.pinned_relay < spec.relays.size(),
              "start_probe_race: pinned relay index out of range");
  std::make_shared<RtRace>(reactor, spec, std::move(on_done))->start();
}

}  // namespace idr::rt
