// A ClientWorld is one client's view of the synthetic PlanetLab: the
// client host behind an access link, the destination server, and the
// candidate relays, with per-segment time-varying capacity processes.
//
// The paper runs a *plain* client (always direct) concurrently with the
// *selecting* client and compares their throughputs. Running both in one
// simulated network would make them contend with each other on the client
// access link — an artifact the paper explicitly avoided ("... execute
// closely in time ... but not so closely that they interfere"). The
// drivers therefore instantiate two MIRRORED worlds from the same
// WorldParams: capacity processes are seeded per link, so both worlds see
// bitwise-identical bandwidth sample paths, and the plain client measures
// the same network the selecting client experienced, without
// self-interference. Since the paths are equal, a mirrored pair shares them
// (MirroredPaths): the first world draws each capacity change of a link
// both attach a process to, the second reads the memo.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "fault/fault.hpp"
#include "overlay/transfer_engine.hpp"

namespace idr::testbed {

using util::Bytes;
using util::Duration;
using util::Rate;

/// Parameters of one directed network segment and its capacity process.
struct LinkSpec {
  Rate mean = 0.0;            // bytes/s
  double cv = 0.0;            // 0 => constant capacity
  double rho = 0.9;           // AR(1) persistence
  Duration step = 30.0;       // capacity resample period
  bool jumps = false;         // Markov-modulated degradation episodes
  double jump_multiplier = 0.25;
  Duration normal_dwell = 18.0 * 60.0;
  Duration degraded_dwell = 2.5 * 60.0;
  Duration delay = 0.01;      // one-way propagation
  double loss = 0.001;
};

/// Complete, deterministic description of a client's world. Two
/// ClientWorlds built from equal WorldParams evolve identically.
struct WorldParams {
  std::string client_name;
  std::string server_name;
  std::vector<std::string> relay_names;

  LinkSpec access;                     // gateway -> client (shared by all paths)
  LinkSpec direct_wan;                 // server -> gateway
  std::vector<LinkSpec> relay_wan;     // relay[i] -> gateway
  std::vector<LinkSpec> server_relay;  // server -> relay[i]

  Bytes file_size = 4.0e6;
  Bytes probe_bytes = 100.0e3;
  flow::TcpConfig tcp{};
  overlay::RelayParams relay_params{};
  /// Uniform extra setup latency in [0, this] per transfer: end-host load
  /// noise (PlanetLab nodes were busy). Lets near-tied paths swap probe
  /// wins, as observed in the paper's Tables II/III long tails.
  Duration setup_jitter_max = 0.15;
  std::uint64_t process_seed = 1;

  /// Fault injection (inert by default). The schedule is generated from
  /// (fault, relay count, process_seed) and replayed into the selecting
  /// world's engine only — the plain-direct mirror is the measurement
  /// reference and must keep observing the undisturbed network.
  fault::FaultConfig fault{};
  /// Probe-race hardening knobs forwarded into every client built by
  /// make_client (both zero-cost when faults never fire).
  Duration probe_timeout = 0.0;
  fault::RetryPolicy retry{};
  /// Passive-estimate EWMA half-life forwarded into make_client (inert
  /// under always-race policies).
  Duration estimate_half_life = 300.0;
};

/// The capacity process a LinkSpec describes: lognormal AR(1) around the
/// mean (constant when cv == 0), Markov-modulated when `jumps` is set.
std::unique_ptr<net::CapacityProcess> make_capacity_process(
    const LinkSpec& spec);

/// The capacity sample paths a mirrored pair of worlds shares: one memo
/// per link both mirrors attach a process to — the direct segment, and
/// the access link when it has a process. Whichever world runs first
/// draws each change; the other reads it.
struct MirroredPaths {
  std::shared_ptr<net::CapacityPathMemo> direct;
  std::shared_ptr<net::CapacityPathMemo> access;  // null: no access process

  /// Fresh memos around `params`' direct and access processes.
  static MirroredPaths make(const WorldParams& params);
};

class ClientWorld {
 public:
  /// Resource path the server exposes (size = params.file_size).
  static constexpr const char* kResource = "/content";

  /// `attach_relay_processes == false` builds the plain-direct mirror:
  /// relay-segment capacity processes are skipped (their links are never
  /// used), which keeps the event count low. Direct-segment sample paths
  /// are identical in both mirrors because process streams are seeded per
  /// link. A link with a memo in `mirrored` reads its sample path from the
  /// memo instead of drawing its own (same path, drawn once per pair).
  ClientWorld(const WorldParams& params, bool attach_relay_processes,
              const MirroredPaths& mirrored = {});

  ClientWorld(const ClientWorld&) = delete;
  ClientWorld& operator=(const ClientWorld&) = delete;

  sim::Simulator& simulator() { return sim_; }
  flow::FlowSimulator& flow_simulator() { return *fsim_; }
  overlay::TransferEngine& engine() { return *engine_; }
  const overlay::WebServerModel& server() const { return *server_; }

  net::NodeId client_node() const { return client_; }
  net::NodeId server_node() const { return server_node_; }
  const std::vector<net::NodeId>& relay_nodes() const { return relays_; }
  net::NodeId relay_node(std::size_t index) const;
  const std::string& relay_name(std::size_t index) const;
  /// Name of a relay given its node id; throws for non-relay nodes.
  const std::string& relay_name_of(net::NodeId node) const;

  const WorldParams& params() const { return params_; }

  /// The materialized fault timeline (empty unless params.fault.enabled
  /// and this is the selecting mirror).
  const fault::FaultSchedule& fault_schedule() const { return schedule_; }

  /// Builds a ready-to-use selecting client bound to this world. When
  /// `flights` is set, every race appends a FlightRecord to the ring.
  std::unique_ptr<core::IndirectRoutingClient> make_client(
      std::unique_ptr<core::SelectionPolicy> policy, util::Rng rng,
      obs::FlightRecorder* flights = nullptr);

  /// Starts a plain full-file direct download (the reference process).
  overlay::TransferHandle begin_direct_download(
      overlay::TransferCallback on_done);

 private:
  WorldParams params_;
  sim::Simulator sim_;
  net::Topology topo_;
  std::unique_ptr<flow::FlowSimulator> fsim_;
  std::unique_ptr<overlay::WebServerModel> server_;
  std::unique_ptr<overlay::TransferEngine> engine_;
  net::NodeId client_ = net::kInvalidNode;
  net::NodeId gateway_ = net::kInvalidNode;
  net::NodeId server_node_ = net::kInvalidNode;
  std::vector<net::NodeId> relays_;
  fault::FaultSchedule schedule_;
};

}  // namespace idr::testbed
