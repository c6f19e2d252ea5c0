// Shared session runner: executes one client's measurement session — N
// transfers at a fixed cadence — in a pair of mirrored worlds (plain
// direct reference in world A, selecting client in world B) that share the
// direct and access links' capacity sample paths, and joins the
// per-transfer observations.
#pragma once

#include <functional>
#include <memory>

#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "testbed/records.hpp"
#include "testbed/world.hpp"

namespace idr::testbed {

struct SessionSpec {
  WorldParams params;
  /// Builds the selecting client's policy once the world exists (policies
  /// need node ids, e.g. StaticRelayPolicy).
  std::function<std::unique_ptr<core::SelectionPolicy>(ClientWorld&)>
      policy_factory;
  std::size_t transfers = 100;
  util::Duration interval = util::minutes(6);
  /// Seed for the selecting client's policy stream.
  std::uint64_t client_seed = 1;
  /// Label stored as TransferObservation::session_relay (the static relay
  /// name for Section 2 sessions, empty for Section 4).
  std::string session_relay_label;
  /// Optional span sink for the selecting world (virtual-time clock);
  /// `trace_track` becomes the Chrome tid, one row per session.
  obs::Tracer* tracer = nullptr;
  std::uint32_t trace_track = 0;
  /// When set, every race the selecting client runs appends a
  /// FlightRecord (source "sim.race") to the ring.
  obs::FlightRecorder* flights = nullptr;
  /// Virtual-time metrics sampling for the selecting world: > 0 pushes
  /// one registry Snapshot per period into the result's `series`, which
  /// windowed-rate consumers (e.g. the Fig. 4 time-series bench) diff.
  /// 0 — the default — schedules no event at all.
  util::Duration sample_period = 0.0;
  std::size_t sample_capacity = 256;
};

struct SessionOutput {
  SessionResult result;
  /// Final per-relay history of the selecting client (Table III input).
  core::RelayStatsTable relay_stats;
};

/// Runs the session on fresh MirroredPaths for spec.params.
SessionOutput run_session(const SessionSpec& spec);

/// Runs the session with both worlds reading `mirrored` (memos built for
/// spec.params): world A draws the shared links' sample paths, world B
/// reads them.
SessionOutput run_session(const SessionSpec& spec,
                          const MirroredPaths& mirrored);

}  // namespace idr::testbed
