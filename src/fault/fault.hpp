// Deterministic fault injection — the failure model the paper's premise
// implies but its reproduction lacked: relays are unreliable, time-varying
// resources that crash, stall and reset mid-transfer.
//
// The layer is split so both stacks share one vocabulary:
//   * FaultConfig / FaultSchedule — a pure, seeded description of WHEN
//     faults happen (relay crash/restart windows, direct-path outages,
//     transient mid-flow resets). Generation is a deterministic function
//     of (config, relay count, seed): the same trial seed always yields
//     the same schedule, at any thread count, on any host.
//   * RetryPolicy / backoff_delay — the retry parameters of
//     core::RaceMachine, the race both stacks drive (simulated transfers
//     and real epoll sockets).
// Delivery is owned by the consumers: testbed::ClientWorld replays a
// schedule into overlay::TransferEngine as simulator events; the rt stack
// injects equivalent faults through rt::FaultShim at the socket layer.
//
// With FaultConfig::enabled == false (the default) nothing is generated,
// no RNG stream is consumed and no event is scheduled, so every fault-free
// run is bitwise identical to a build without this layer.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace idr::fault {

using util::Duration;
using util::TimePoint;

/// FaultWindow/FaultReset target index meaning "the direct path" rather
/// than a relay.
inline constexpr std::size_t kDirectPath = SIZE_MAX;

/// Knobs for the synthetic failure processes. All processes are
/// independent per target; inter-arrival and repair times are exponential
/// (memoryless crashes — the standard first-order reliability model).
struct FaultConfig {
  /// Master switch. False generates an empty schedule regardless of the
  /// other knobs, consuming no randomness.
  bool enabled = false;

  /// Mean time between crashes, per relay (seconds). 0 disables crashes.
  Duration relay_mtbf = 0.0;
  /// Mean downtime of one crash (restart window length).
  Duration relay_mttr = 120.0;

  /// Mean time between transient mid-flow resets per relay (the relay
  /// process drops its connections but stays up). 0 disables.
  Duration relay_reset_mtbf = 0.0;

  /// Mean time between direct-path outages (routing flaps on the
  /// server->client path). 0 disables.
  Duration direct_mtbf = 0.0;
  Duration direct_mttr = 60.0;

  /// Length of schedule to generate, from t = 0.
  Duration horizon = 48.0 * 3600.0;
};

/// One down interval: `target` (relay index or kDirectPath) is unreachable
/// in [start, end); transfers in flight through it at `start` die with a
/// reset.
struct FaultWindow {
  std::size_t target = 0;
  TimePoint start = 0.0;
  TimePoint end = 0.0;
};

/// One transient reset: in-flight transfers through `target` die at
/// `time`, but new connections succeed immediately.
struct FaultReset {
  std::size_t target = 0;
  TimePoint time = 0.0;
};

/// A fully materialized fault timeline. Windows are sorted by start time,
/// resets by time (ties broken by target), so replaying the schedule into
/// a simulator is order-deterministic.
struct FaultSchedule {
  std::vector<FaultWindow> windows;
  std::vector<FaultReset> resets;

  bool empty() const { return windows.empty() && resets.empty(); }

  /// Deterministically expands `config` into a timeline for `relay_count`
  /// relays. Same (config, relay_count, seed) => identical schedule.
  static FaultSchedule generate(const FaultConfig& config,
                                std::size_t relay_count,
                                std::uint64_t seed);
};

/// Bounded-retry parameters shared by both probe-race implementations.
/// `max_retries` counts EXTRA attempts after the first failure, per phase
/// (remainder-on-winner, then direct fallback), so the default gives the
/// "retry once, then fall back to the direct path" semantics.
struct RetryPolicy {
  std::size_t max_retries = 1;
  /// First backoff delay; doubles (times `multiplier`) per retry.
  Duration base_delay = 0.2;
  double multiplier = 2.0;
  Duration max_delay = 5.0;
  /// Uniform jitter added on top: [0, jitter_frac * delay). Decorrelates
  /// retry storms when many sessions fail together.
  double jitter_frac = 0.5;
};

/// Delay before retry number `retry_index` (0 = first retry):
/// min(base * multiplier^retry_index, max) plus jitter drawn from `rng`.
Duration backoff_delay(const RetryPolicy& policy, std::size_t retry_index,
                       util::Rng& rng);

}  // namespace idr::fault
