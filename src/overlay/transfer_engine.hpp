// Maps an HTTP (possibly ranged) download over a direct or indirect path
// onto the flow simulator, adding the latency components the fluid model
// abstracts away: TCP/HTTP setup handshakes, relay processing delay, and
// the one-way delivery tail.
//
// An indirect transfer is split-TCP: two independent connections
// (server->relay, relay->client) coupled by the relay's forward buffer.
// In the fluid approximation its delivery rate is the min of the two legs'
// rates, which the engine realizes as ONE flow over the concatenated path
// with
//   * slow-start RTT  = max(leg RTTs)   (the slower ramp is the envelope),
//   * TCP ceiling     = min(leg ceilings) (each leg recovers loss
//                       independently — the split-TCP advantage),
//   * byte inflation  = 1 / relay forwarding efficiency (proxy overhead,
//                       one cause of the paper's penalties).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "flow/flow_simulator.hpp"
#include "net/routing.hpp"
#include "overlay/web_server.hpp"

namespace idr::overlay {

using util::Duration;
using util::Rate;
using util::TimePoint;

/// Per-relay forwarding characteristics.
struct RelayParams {
  /// Request-processing latency added once per transfer.
  Duration processing_delay = util::milliseconds(5);
  /// Goodput fraction (0, 1]: the proxy moves 1/efficiency network bytes
  /// per delivered byte (application-layer copy/re-framing overhead).
  double efficiency = 0.97;
  /// Absolute forwarding-rate cap; kUnlimitedRate for none.
  Rate max_forward_rate = flow::kUnlimitedRate;
  /// Whether the relay maintains persistent (keep-alive, warm-window)
  /// connections to origin servers, as production forward proxies do.
  /// Saves the upstream handshake and the upstream slow-start ramp on
  /// every transfer; the client-side leg still pays both.
  bool persistent_upstream = true;
  /// Admission control: concurrent transfers the relay will carry.
  /// 0 = unlimited (governance off, the default).
  std::size_t max_concurrent = 0;
  /// Arrivals beyond max_concurrent wait in a bounded FIFO this deep;
  /// past it they are rejected outright (the sim-side 503). 0 = reject
  /// immediately at the cap.
  std::size_t queue_limit = 0;
  /// Retry pacing hint attached to overload rejections (the sim-side
  /// Retry-After header).
  Duration retry_after = 1.0;

  bool governs_admission() const { return max_concurrent > 0; }
};

struct TransferRequest {
  net::NodeId client = net::kInvalidNode;
  const WebServerModel* server = nullptr;
  std::string resource;
  std::optional<http::RangeSpec> range;  // absent = whole resource
  /// If set, route indirectly via this relay node.
  std::optional<net::NodeId> relay;
  /// True when the request rides an already-established connection along
  /// this path (HTTP keep-alive): no TCP/proxy handshakes — only the
  /// request's one-way trip — and no slow-start restart, since the
  /// congestion window is already open. The probe race uses this for the
  /// "bytes=x-" remainder request on the winning path.
  bool warm_connection = false;
  flow::TcpConfig tcp{};
};

struct TransferResult {
  bool ok = false;
  std::string error;  // set when !ok (no route, 404, bad range)
  util::Bytes bytes = 0.0;
  TimePoint start_time = 0.0;
  TimePoint finish_time = 0.0;
  bool indirect = false;
  net::NodeId relay = net::kInvalidNode;
  /// Refused by relay admission control: a soft failure — the relay is
  /// alive and said when to come back (retry_after), unlike a crash.
  bool overloaded = false;
  /// Retry pacing hint carried on overload rejections (seconds).
  Duration retry_after = 0.0;
  /// Time spent waiting in the relay's admission queue before service
  /// began (0 when admitted immediately or not governed).
  Duration queued_delay = 0.0;

  Duration elapsed() const { return finish_time - start_time; }
  /// Client-perceived throughput: bytes over wall-clock including setup.
  Rate throughput() const {
    return elapsed() > 0.0 ? bytes / elapsed() : 0.0;
  }
};

using TransferHandle = std::uint64_t;
using TransferCallback = std::function<void(const TransferResult&)>;

class TransferEngine {
 public:
  explicit TransferEngine(flow::FlowSimulator& fsim);

  TransferEngine(const TransferEngine&) = delete;
  TransferEngine& operator=(const TransferEngine&) = delete;

  /// Registers forwarding parameters for a relay node. Transfers via an
  /// unregistered relay use default RelayParams.
  void set_relay_params(net::NodeId relay, const RelayParams& params);
  const RelayParams& relay_params(net::NodeId relay) const;

  /// Adds uniform random extra latency in [0, max_extra] to every
  /// transfer's setup phase: end-host scheduling, DNS, accept-queue and
  /// process load — substantial on 2005 PlanetLab nodes, and the noise
  /// that lets near-tied paths occasionally win a probe race. 0 disables.
  void set_setup_jitter(Duration max_extra);

  /// Starts a transfer; the callback fires (in simulated time) with the
  /// outcome. Immediate failures (no route, unknown resource, bad range)
  /// are reported through the callback on the next simulator step, so the
  /// caller sees one uniform async interface.
  TransferHandle begin(const TransferRequest& request,
                       TransferCallback on_done);

  /// Aborts an in-flight transfer; its callback will not fire.
  /// Returns false if already finished/unknown.
  bool cancel(TransferHandle handle);

  /// Instantaneous delivery rate of an in-flight transfer (0 during setup).
  Rate current_rate(TransferHandle handle) const;

  // --- Fault plane ---------------------------------------------------------
  // Injection points for the deterministic fault layer (idr::fault).
  // testbed::ClientWorld replays a FaultSchedule into these as simulator
  // events; nothing here runs unless a schedule is active.

  /// Marks a relay crashed (down = true) or restarted. Going down aborts
  /// every in-flight transfer routed via the relay — the transfer's
  /// callback fires on the next simulator step with ok == false ("relay
  /// down"), modelling a connection reset — and new begins via the relay
  /// fail the same way until the relay comes back up.
  void set_relay_down(net::NodeId relay, bool down);
  bool relay_down(net::NodeId relay) const;

  /// Direct-path outage: identical semantics for transfers that use no
  /// relay.
  void set_direct_down(bool down);
  bool direct_down() const { return direct_down_; }

  /// Transient mid-stream reset: aborts in-flight transfers via `relay`
  /// (or the direct path when relay == net::kInvalidNode) without opening
  /// a down window — the next attempt succeeds.
  void inject_reset(net::NodeId relay);

  /// Transfers killed or refused by the fault plane so far.
  std::uint64_t faults_injected() const { return c_faults_injected_.value(); }

  /// Overload-governance accounting: transfers rejected by a relay's
  /// admission control, and transfers that waited in an admission queue.
  std::uint64_t transfers_shed() const { return c_transfers_shed_.value(); }
  std::uint64_t transfers_queued() const {
    return c_transfers_queued_.value();
  }
  /// Transfers currently being served / waiting at a governed relay.
  std::size_t relay_active(net::NodeId relay) const;
  std::size_t relay_queued(net::NodeId relay) const;

  std::size_t in_flight() const { return transfers_.size(); }
  flow::FlowSimulator& flow_simulator() { return fsim_; }

 private:
  /// Transfer lifecycle is strictly [queued ->] setup -> flow -> delivery
  /// tail, so a single engine-side timer field suffices: it holds the
  /// setup event during kSetup and the tail event during kTail (kQueued
  /// transfers sit in their relay's gate with no event scheduled).
  enum class Phase : std::uint8_t { kQueued, kSetup, kFlow, kTail };

  struct Active {
    TransferResult result;
    TransferCallback on_done;
    Phase phase = Phase::kSetup;
    sim::EventId timer = 0;
    flow::FlowId flow = 0;
    Duration tail_delay = 0.0;
    /// Set once the fault plane killed this transfer: its flow/timer is
    /// already torn down and only the error-delivery event remains.
    bool fault_failing = false;
    /// Holds one of its relay's max_concurrent service slots.
    bool holds_slot = false;
    /// The original request, kept only while waiting in a relay queue so
    /// admission can start the transfer later.
    std::unique_ptr<TransferRequest> pending_request;
  };

  /// Admission bookkeeping for one capacity-governed relay.
  struct RelayGate {
    std::size_t active = 0;
    std::deque<TransferHandle> waiting;
  };

  void fail_async(TransferHandle handle, std::string error);
  void finish(TransferHandle handle);
  /// Computes the path/timing model and schedules the setup event; the
  /// admission gate (when governing) has already been passed.
  void start_transfer(TransferHandle handle,
                      const TransferRequest& request);
  /// Returns a held service slot and admits queued transfers that fit.
  void release_slot(Active& active);
  void admit_next(net::NodeId relay);
  void unqueue(TransferHandle handle, net::NodeId relay);
  /// Kills one in-flight transfer with `error` (no-op once the byte
  /// stream is fully drained, i.e. in the delivery tail).
  void abort_transfer(TransferHandle handle, const char* error);
  /// Kills every in-flight transfer matching relay (kInvalidNode = the
  /// direct path) in handle order.
  void abort_transfers_via(net::NodeId relay, const char* error);
  /// Shortest route from -> to (nullopt: unreachable), memoized per pair.
  /// Routes depend only on the link set, so the cache is dropped whenever
  /// the topology's link count changes. The reference stays valid until
  /// the next call that finds a changed link count.
  const std::optional<net::Path>& route(net::NodeId from, net::NodeId to);

  flow::FlowSimulator& fsim_;
  std::unordered_map<net::NodeId, RelayParams> relay_params_;
  RelayParams default_relay_params_{};
  Duration setup_jitter_max_ = 0.0;
  util::Rng jitter_rng_;
  std::unordered_map<TransferHandle, Active> transfers_;
  TransferHandle next_handle_ = 0;
  std::unordered_set<net::NodeId> down_relays_;
  bool direct_down_ = false;
  std::unordered_map<net::NodeId, RelayGate> gates_;
  std::unordered_map<std::uint64_t, std::optional<net::Path>> routes_;
  std::size_t routes_link_count_ = 0;  // link count routes_ was built on

  // `sim.engine.*` series, registered into the world registry owned by
  // the flow simulator (one snapshot covers the whole world). Handles are
  // resolved once in the constructor.
  obs::Counter c_transfers_started_;
  obs::Counter c_transfers_completed_;
  obs::Counter c_transfers_failed_;
  obs::Counter c_faults_injected_;
  obs::Counter c_transfers_shed_;
  obs::Counter c_transfers_queued_;
  obs::Histogram h_transfer_seconds_;
};

}  // namespace idr::overlay
