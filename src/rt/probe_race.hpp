// The paper's probe race over real sockets: core::RaceMachine (see
// core/race_machine.hpp) driven over rt::fetch.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/race_machine.hpp"
#include "obs/trace.hpp"
#include "rt/http_client.hpp"
#include "rt/relay_daemon.hpp"

namespace idr::rt {

struct RaceSpec {
  Endpoint origin;
  std::string path = "/";
  std::uint64_t resource_size = 0;  // must match the origin's resource
  std::uint64_t probe_bytes = 100 * 1000;
  /// Candidate relay endpoints; the direct path always races too.
  std::vector<Endpoint> relays;
  double timeout_s = 30.0;
  /// Retry/backoff for the remainder and the direct fallback.
  fault::RetryPolicy retry{};
  /// Optional: `rt.race.*`/`rt.select.*` series land in `metrics`, and an
  /// enabled `tracer` gets one "probe_race" span per race on
  /// `trace_track` (reactor clock).
  obs::Registry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  std::uint32_t trace_track = 0;
  /// Cross-hop identity for this transfer. When valid, every probe and
  /// transfer request the race issues carries a `traceparent` child of it
  /// (relay and origin answer with server spans under the same trace id),
  /// the probe_race span carries the ids, and flow-bind events link the
  /// chain. Invalid (default): no header, no flow events — byte-identical
  /// wire traffic.
  obs::TraceContext trace{};
  /// Chrome pid for this client's spans in a merged multi-role trace.
  std::uint64_t trace_pid = 1;
  /// When set, gets one FlightRecord (source "rt.race") per race.
  obs::FlightRecorder* flights = nullptr;

  /// When set (an index into `relays`, by PassiveSelector), the whole
  /// resource is first fetched through that relay with no race; if that
  /// fails, the full race runs as if the pin had never existed.
  std::optional<std::size_t> pinned_relay;
  /// Age of the estimate behind the pin (rt.select.estimate_age).
  double pinned_estimate_age_s = 0.0;
};

/// ok, error, chose_indirect, race_skipped, the elapsed times and the
/// fault/retry accounting are core::RaceSummary, shared with sim races.
struct RaceResult : core::RaceSummary {
  std::size_t relay_index = SIZE_MAX;  // into RaceSpec::relays
  std::uint64_t total_bytes = 0;
  bool body_verified = false;

  double throughput() const {
    return total_elapsed > 0.0
               ? static_cast<double>(total_bytes) / total_elapsed
               : 0.0;
  }
};

using RaceCallback = std::function<void(const RaceResult&)>;

/// Starts the race on the reactor; the callback fires exactly once.
void start_probe_race(Reactor& reactor, const RaceSpec& spec,
                      RaceCallback on_done);

}  // namespace idr::rt
