// The paper's predictor as one sans-IO state machine, driven by
// core::start_probe_race (simulated transfers) and rt::start_probe_race
// (sockets). Lane 0 is the direct path, lane i+1 candidate relay i. Every
// lane fetches the first x bytes; the first probe to complete wins, the
// losers are cancelled, and the winner fetches "bytes=x-". A failed
// remainder is retried with backoff (floored at the peer's Retry-After),
// then moved to the direct path; if every probe lane dies, a plain direct
// fetch salvages the transfer. A pinned relay skips the race; a failed
// pin launches it. The machine makes every such decision and keeps the
// accounting, the `<stack>.race.*`/`<stack>.select.*` series and the
// flight record. It never reads a clock or touches a socket: its driver
// starts and cancels attempts, runs one timer, and reports each result
// with its clock reading.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "http/range.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace idr::core {

/// What both stacks report about a finished race; the fault/retry fields
/// are zero on a clean race.
struct RaceSummary {
  bool ok = false;
  std::string error;
  bool chose_indirect = false;
  /// The whole file rode a pinned relay; false whenever lanes raced.
  bool race_skipped = false;
  /// Race launch to the first probe (0 when no probe decided the race).
  double probe_elapsed = 0.0;
  /// The call to the last byte (or to the failure), a failed pin included.
  double total_elapsed = 0.0;
  /// Probe lanes that failed or timed out before the race was decided.
  std::size_t probe_failures = 0;
  /// Remainder/fallback attempts beyond each phase's first try.
  std::size_t retries = 0;
  /// Salvaged over the direct path after the winner (or every lane) died.
  bool fell_back_direct = false;
  /// Failed attempts that were overload sheds (503): the peer is alive.
  std::size_t overload_rejections = 0;
};

enum class AttemptKind : std::uint8_t {
  Probe,            // bytes=0-(x-1) on `lane`
  Remainder,        // bytes=x- on the winner's lane
  DirectRemainder,  // bytes=x- on the direct path after the winner died
  Fallback,         // whole file, direct, after every probe lane died
  Pinned,           // whole file through the pinned relay's lane
};

struct Attempt {
  AttemptKind kind = AttemptKind::Probe;
  std::size_t lane = 0;   // 0 = direct, i+1 = relay i
  std::size_t retry = 0;  // position in its retry chain
};

struct AttemptResult {
  bool ok = false;
  double now = 0.0;  // driver clock at completion
  bool overloaded = false;
  double retry_after = 0.0;
  bool verified = true;  // body checked (sockets); sims pass true
  double bytes = 0.0;
  double elapsed = 0.0;
  std::string_view error;
};

struct RaceVerdict : RaceSummary {
  std::size_t lane = 0;  // the winner
  /// The final remainder or pinned transfer alone (0 when the probe or
  /// the direct fallback carried the file).
  double tail_bytes = 0.0;
  double tail_elapsed = 0.0;
  bool body_verified = true;  // every body that made the file checked out
  /// Relays (RaceDriver::relay_id) that crashed / shed load, first-seen
  /// order, deduplicated.
  std::vector<std::int64_t> failed_relays;
  std::vector<std::int64_t> overloaded_relays;
};

/// The IO side: every started attempt is answered by one on_attempt_done
/// unless its lane is cancelled, an armed timer by one on_timer unless
/// cancelled.
class RaceDriver {
 public:
  virtual void start_attempt(const Attempt& attempt) = 0;
  virtual void cancel_lane(std::size_t lane) = 0;
  virtual void arm_timer(double delay) = 0;
  virtual void cancel_timer() = 0;
  /// Backoff jitter, first asked for on the first retry.
  virtual util::Rng& backoff_rng() = 0;
  /// The relay on lane `lane` (>= 1), as failure lists and flight
  /// records name it.
  virtual std::int64_t relay_id(std::size_t lane) const = 0;
  /// Once, after the counters and the flight record are written.
  virtual void finish(const RaceVerdict& verdict) = 0;

 protected:
  ~RaceDriver() = default;
};

struct RaceStack {
  const char* prefix;  // "sim" | "rt": series prefix, flight "<prefix>.race"
  obs::HistogramOptions probe_seconds;
  obs::HistogramOptions estimate_age;
};

struct RaceConfig {
  const RaceStack* stack = nullptr;
  std::size_t relays = 0;  // lanes = relays + 1
  std::uint64_t file_bytes = 0;
  std::uint64_t probe_bytes = 0;  // clamped to file_bytes
  double probe_timeout = 0.0;     // 0 = none
  fault::RetryPolicy retry{};
  /// The pin's lane; may lie past the racing lanes.
  std::optional<std::size_t> pinned_lane;
  double pinned_estimate_age = 0.0;
  obs::Registry* metrics = nullptr;
  obs::FlightRecorder* flights = nullptr;
  std::string_view flight_peer;  // must outlive the race
  std::uint64_t trace_id = 0;
};

struct RaceMetrics {
  obs::Counter started, failed, won_indirect, won_direct, probe_failures,
      retries, overload_rejections, fallbacks_direct, races_run,
      probe_bytes;
  obs::Histogram probe_seconds;
  /// Registered on the first pinned race: always-race registries stay
  /// free of them.
  obs::Counter races_skipped, pinned_fallbacks;
  obs::Histogram estimate_age;
};

class RaceMachine {
 public:
  /// `now` is the race's start; counts the race as started.
  RaceMachine(const RaceConfig& config, RaceDriver& driver, double now);
  RaceMachine(const RaceMachine&) = delete;
  RaceMachine& operator=(const RaceMachine&) = delete;

  /// The pinned fetch if one is configured, the full race otherwise.
  void start();
  /// Ends the race as failed — also how a race that cannot start reports.
  void fail(std::string error, double now);
  void on_attempt_done(const Attempt& attempt, const AttemptResult& result);
  void on_timer();

  /// The range `attempt` requests; nullopt = the whole file.
  std::optional<http::RangeSpec> range(const Attempt& attempt) const;
  double start_time() const { return start_time_; }

 private:
  enum class Timer : std::uint8_t { None, ProbeTimeout, Retry };

  std::uint64_t probe_span() const;
  void launch(double now);
  void on_probe(std::size_t lane, const AttemptResult& result);
  void note_failure(std::size_t lane, bool overloaded);
  bool retry(const Attempt& attempt, const AttemptResult& result);
  void disarm();
  void succeed(double now, const AttemptResult* tail);
  void finish();

  RaceConfig cfg_;
  RaceDriver& driver_;
  RaceMetrics m_;
  double start_time_ = 0.0;
  double launch_time_ = 0.0;
  std::vector<std::uint8_t> open_;  // per lane: probe in flight
  std::size_t pending_ = 0;
  bool decided_ = false;
  bool done_ = false;
  Timer timer_ = Timer::None;
  Attempt retry_{};
  RaceVerdict v_;
};

}  // namespace idr::core
