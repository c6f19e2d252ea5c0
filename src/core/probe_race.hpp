// The paper's predictor in the simulated stack: core::RaceMachine (see
// race_machine.hpp) driven over overlay::TransferEngine transfers.
//
// The client-perceived throughput of the whole operation is
// n / (time from race start to last byte of the remainder) — probing
// overhead is charged to the selection, exactly as in the paper.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/race_machine.hpp"
#include "obs/trace.hpp"
#include "overlay/transfer_engine.hpp"

namespace idr::core {

using util::Bytes;
using util::Duration;
using util::Rate;

/// The paper's experimentally determined probe size: large enough to get
/// past slow-start, small enough to keep overhead low.
inline constexpr Bytes kDefaultProbeBytes = 100.0 * 1000.0;  // 100 KB

struct RaceSpec {
  net::NodeId client = net::kInvalidNode;
  const overlay::WebServerModel* server = nullptr;
  std::string resource;
  Bytes probe_bytes = kDefaultProbeBytes;
  /// Indirect candidates; the direct path always races too.
  std::vector<net::NodeId> candidate_relays;
  flow::TcpConfig tcp{};

  /// Lanes still unfinished this long after launch count as failed (a
  /// silently dead relay stalls forever without it). 0, the default,
  /// schedules no extra event.
  Duration probe_timeout = 0.0;
  /// Retry/backoff for the remainder and the direct fallback; consulted
  /// only after a failure, so a clean race draws no backoff stream.
  fault::RetryPolicy retry{};

  /// Cross-hop trace identity for this transfer's spans. Invalid — the
  /// default — and with the world tracer enabled, the race derives its
  /// own context from the flow simulator's seeded RNG tree; with the
  /// tracer off nothing is derived at all, so traced and untraced runs
  /// schedule identically.
  obs::TraceContext trace{};
  /// When set, one FlightRecord (source "sim.race") is appended per
  /// finished race — success or failure. Works with or without tracing.
  obs::FlightRecorder* flights = nullptr;

  /// When set (by race-skipping policies), the whole file is first
  /// fetched through this relay with no race; if that fails, the race
  /// runs over `candidate_relays` as if the pin had never existed.
  std::optional<net::NodeId> pinned_relay;
  /// Age of the estimate behind the pin (sim.select.estimate_age).
  Duration pinned_estimate_age = 0.0;
};

/// ok, error, chose_indirect, race_skipped, the elapsed times and the
/// fault/retry accounting are core::RaceSummary, shared with rt races.
struct RaceOutcome : RaceSummary {
  net::NodeId relay = net::kInvalidNode;  // winner, when indirect
  Bytes total_bytes = 0.0;
  /// The "bytes=x-" remainder on the winner, or the whole pinned transfer
  /// (zero when the probe covered the whole file).
  Bytes remainder_bytes = 0.0;
  Duration remainder_elapsed = 0.0;
  /// Relays whose probe lane, pin or remainder failed — the input to
  /// failed-relay blacklisting — and, separately, relays that shed load
  /// (a shorter penalty). Deduplicated.
  std::vector<net::NodeId> failed_relays;
  std::vector<net::NodeId> overloaded_relays;

  /// Client-perceived throughput of the selected path, probe included.
  Rate selected_throughput() const {
    return total_elapsed > 0.0 ? total_bytes / total_elapsed : 0.0;
  }

  /// Steady-phase throughput of the selected path: the remainder transfer
  /// alone, free of the n-way probe contention. Falls back to the whole
  /// operation when the probe covered the file. This is the Section 4
  /// metric — with up to 35 concurrent probes, charging the race to the
  /// transfer would measure probing cost, not path quality.
  Rate steady_throughput() const {
    if (remainder_bytes > 0.0 && remainder_elapsed > 0.0) {
      return remainder_bytes / remainder_elapsed;
    }
    return selected_throughput();
  }
};

using RaceCallback = std::function<void(const RaceOutcome&)>;

/// Starts the race; the callback fires once, in simulated time. The race
/// keeps itself alive through its transfers' callbacks and always ends
/// because every transfer does, so no handle is returned.
void start_probe_race(overlay::TransferEngine& engine, const RaceSpec& spec,
                      RaceCallback on_done);

}  // namespace idr::core
