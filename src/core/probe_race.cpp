// The simulated driver of core::RaceMachine: attempts are TransferEngine
// transfers, the timer is a simulator event.
#include "core/probe_race.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>

#include "util/error.hpp"

namespace idr::core {

namespace {

constexpr RaceStack kSimStack{"sim", {1e-3, 1e3, 4}, {1e-1, 1e5, 4}};

/// Span name per AttemptKind.
const char* const kSpanNames[] = {"probe_lane", "remainder", "remainder",
                                  "fallback", "pinned"};

class SimRace final : public RaceDriver,
                      public std::enable_shared_from_this<SimRace> {
 public:
  SimRace(overlay::TransferEngine& engine, const RaceSpec& spec,
          RaceCallback on_done)
      : engine_(engine),
        spec_(spec),
        on_done_(std::move(on_done)),
        size_(spec_.server->resource_size(spec_.resource)),
        trace_(make_trace()),
        machine_(config(), *this, now()) {}

  void start() {
    if (size_) {
      machine_.start();
    } else {
      machine_.fail("unknown resource " + spec_.resource, now());
    }
  }

  void start_attempt(const Attempt& a) override {
    overlay::TransferRequest req;
    req.client = spec_.client;
    req.server = spec_.server;
    req.resource = spec_.resource;
    req.range = machine_.range(a);
    req.relay = relay_node(a.lane);
    // The first remainder rides the winner's warm connection; retries
    // reconnect cold (the connection died with the failure).
    req.warm_connection = a.kind == AttemptKind::Remainder && a.retry == 0;
    req.tcp = spec_.tcp;
    const overlay::TransferHandle handle = engine_.begin(
        req, [self = shared_from_this(), a](const overlay::TransferResult& r) {
          self->emit_attempt_span(a, r);
          self->machine_.on_attempt_done(
              a, {.ok = r.ok, .now = self->now(), .overloaded = r.overloaded,
                  .retry_after = r.retry_after, .bytes = r.bytes,
                  .elapsed = r.elapsed(), .error = r.error});
        });
    if (a.kind == AttemptKind::Probe) {
      if (lanes_.empty()) lanes_.resize(spec_.candidate_relays.size() + 1);
      lanes_[a.lane] = handle;
    }
  }

  void cancel_lane(std::size_t lane) override { engine_.cancel(lanes_[lane]); }

  void arm_timer(double delay) override {
    timer_ = simulator().schedule_in(
        delay,
        [self = shared_from_this()] {
          self->timer_ = 0;
          self->machine_.on_timer();
        },
        sim::EventKind::kRaceTimer);
  }

  void cancel_timer() override {
    if (timer_ != 0) simulator().cancel(timer_);
    timer_ = 0;
  }

  util::Rng& backoff_rng() override {
    if (!backoff_rng_) {
      // Salted by the start time: concurrent races on one engine draw
      // independent streams, a replay draws the same ones.
      backoff_rng_.emplace(engine_.flow_simulator().derive_rng(
          std::bit_cast<std::uint64_t>(machine_.start_time()) ^ 0xFA157ull));
    }
    return *backoff_rng_;
  }

  std::int64_t relay_id(std::size_t lane) const override {
    return *relay_node(lane);
  }

  void finish(const RaceVerdict& v) override {
    RaceOutcome outcome;
    static_cast<RaceSummary&>(outcome) = v;
    if (v.chose_indirect) outcome.relay = *relay_node(v.lane);
    outcome.total_bytes = v.ok ? *size_ : 0.0;
    outcome.remainder_bytes = v.tail_bytes;
    outcome.remainder_elapsed = v.tail_elapsed;
    outcome.failed_relays.assign(v.failed_relays.begin(),
                                 v.failed_relays.end());
    outcome.overloaded_relays.assign(v.overloaded_relays.begin(),
                                     v.overloaded_relays.end());
    // The enclosing race span, once per race: the probe_race span count
    // equals the transfer count by construction.
    if (tracer() != nullptr) {
      std::string args = ok_args(outcome.ok) + ",\"chose_indirect\":";
      args += outcome.chose_indirect ? "true" : "false";
      if (outcome.chose_indirect) {
        args += ",\"relay\":" + std::to_string(outcome.relay);
      }
      if (outcome.fell_back_direct) args += ",\"fell_back_direct\":true";
      emit_span("probe_race", machine_.start_time(), outcome.total_elapsed,
                std::move(args), trace_.span_id, 0);
    }
    on_done_(outcome);
  }

 private:
  sim::Simulator& simulator() {
    return engine_.flow_simulator().simulator();
  }
  util::TimePoint now() { return simulator().now(); }

  /// World tracer, or null when tracing is off for this world.
  obs::Tracer* tracer() {
    obs::Tracer* t = engine_.flow_simulator().tracer();
    return t != nullptr && t->enabled() ? t : nullptr;
  }

  RaceConfig config() {
    RaceConfig c;
    c.stack = &kSimStack;
    c.relays = spec_.candidate_relays.size();
    if (size_) {
      c.file_bytes = static_cast<std::uint64_t>(std::llround(*size_));
      c.probe_bytes = static_cast<std::uint64_t>(
          std::llround(std::min(spec_.probe_bytes, *size_)));
    }
    c.probe_timeout = spec_.probe_timeout;
    c.retry = spec_.retry;
    // The pin gets a lane past the candidates: it need not be one. Its
    // failures still merge with a candidate's: both name the same node.
    if (spec_.pinned_relay) c.pinned_lane = c.relays + 1;
    c.pinned_estimate_age = spec_.pinned_estimate_age;
    c.metrics = &engine_.flow_simulator().metrics();
    c.flights = spec_.flights;
    c.flight_peer = spec_.resource;
    c.trace_id = trace_.trace_id;
    return c;
  }

  std::optional<net::NodeId> relay_node(std::size_t lane) const {
    if (lane == 0) return std::nullopt;
    if (lane > spec_.candidate_relays.size()) return spec_.pinned_relay;
    return spec_.candidate_relays[lane - 1];
  }

  /// The caller's context (e.g. a testbed session) when provided,
  /// otherwise self-derived from the seeded RNG tree — but only while the
  /// world tracer is on, so untraced runs derive nothing.
  obs::TraceContext make_trace() {
    if (spec_.trace.valid() || tracer() == nullptr) return spec_.trace;
    util::Rng id_rng = engine_.flow_simulator().derive_rng(
        std::bit_cast<std::uint64_t>(now()) ^ 0x712ACEull);
    return obs::make_trace_context(id_rng);
  }

  static std::string ok_args(bool ok) {
    return ok ? "{\"ok\":true" : "{\"ok\":false";
  }

  /// One span per attempt, nested under the race span by time and — when
  /// the race carries a context — by explicit span ids.
  void emit_attempt_span(const Attempt& a, const overlay::TransferResult& r) {
    if (tracer() == nullptr) return;
    std::string args = ok_args(r.ok);
    if (r.indirect) args += ",\"relay\":" + std::to_string(r.relay);
    const std::uint64_t span_id =
        trace_.valid() ? trace_.child(0x500 + ++attempt_seq_).span_id : 0;
    emit_span(kSpanNames[static_cast<int>(a.kind)], r.start_time,
              r.elapsed(), std::move(args), span_id, trace_.span_id);
  }

  void emit_span(const char* name, double start, double duration,
                 std::string args, std::uint64_t span_id,
                 std::uint64_t parent_span) {
    obs::TraceEvent ev;
    ev.name = name;
    ev.category = "sim.race";
    ev.track = engine_.flow_simulator().trace_track();
    ev.ts_us = start * 1e6;
    ev.dur_us = duration * 1e6;
    if (trace_.valid()) {
      ev.trace_id = trace_.trace_id;
      ev.span_id = span_id;
      ev.parent_span = parent_span;
    }
    ev.args_json = std::move(args) + '}';
    tracer()->append(std::move(ev));
  }

  overlay::TransferEngine& engine_;
  RaceSpec spec_;
  RaceCallback on_done_;
  std::optional<Bytes> size_;
  obs::TraceContext trace_;
  std::uint64_t attempt_seq_ = 0;  // per-attempt child-span salt
  std::vector<overlay::TransferHandle> lanes_;
  sim::EventId timer_ = 0;
  std::optional<util::Rng> backoff_rng_;
  RaceMachine machine_;
};

}  // namespace

void start_probe_race(overlay::TransferEngine& engine, const RaceSpec& spec,
                      RaceCallback on_done) {
  IDR_REQUIRE(spec.server != nullptr, "start_probe_race: null server");
  IDR_REQUIRE(spec.probe_bytes > 0.0,
              "start_probe_race: non-positive probe size");
  IDR_REQUIRE(spec.probe_timeout >= 0.0,
              "start_probe_race: negative probe timeout");
  IDR_REQUIRE(on_done != nullptr, "start_probe_race: null callback");
  IDR_REQUIRE(!spec.pinned_relay.has_value() ||
                  *spec.pinned_relay != net::kInvalidNode,
              "start_probe_race: invalid pinned relay");
  std::make_shared<SimRace>(engine, spec, std::move(on_done))->start();
}

}  // namespace idr::core
