#include "overlay/transfer_engine.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"

namespace idr::overlay {

TransferEngine::TransferEngine(flow::FlowSimulator& fsim)
    : fsim_(fsim), jitter_rng_(fsim.derive_rng(0x7E57)) {
  obs::Registry& metrics = fsim_.metrics();
  c_transfers_started_ = metrics.counter("sim.engine.transfers_started");
  c_transfers_completed_ = metrics.counter("sim.engine.transfers_completed");
  c_transfers_failed_ = metrics.counter("sim.engine.transfers_failed");
  c_faults_injected_ = metrics.counter("sim.engine.faults_injected");
  c_transfers_shed_ = metrics.counter("sim.engine.transfers_shed");
  c_transfers_queued_ = metrics.counter("sim.engine.transfers_queued");
  // Transfer times span ~10 ms probes to multi-hour background flows.
  h_transfer_seconds_ = metrics.histogram(
      "sim.engine.transfer_seconds",
      obs::HistogramOptions{1e-3, 1e5, 4});
}

void TransferEngine::set_setup_jitter(Duration max_extra) {
  IDR_REQUIRE(max_extra >= 0.0, "set_setup_jitter: negative jitter");
  setup_jitter_max_ = max_extra;
}

void TransferEngine::set_relay_params(net::NodeId relay,
                                      const RelayParams& params) {
  IDR_REQUIRE(params.efficiency > 0.0 && params.efficiency <= 1.0,
              "set_relay_params: efficiency outside (0,1]");
  IDR_REQUIRE(params.processing_delay >= 0.0,
              "set_relay_params: negative processing delay");
  relay_params_[relay] = params;
}

const RelayParams& TransferEngine::relay_params(net::NodeId relay) const {
  const auto it = relay_params_.find(relay);
  return it == relay_params_.end() ? default_relay_params_ : it->second;
}

void TransferEngine::fail_async(TransferHandle handle, std::string error) {
  Active& active = transfers_.at(handle);
  active.result.ok = false;
  active.result.error = std::move(error);
  active.timer = fsim_.simulator().schedule_in(
      0.0, [this, handle] { finish(handle); }, sim::EventKind::kTransfer);
}

void TransferEngine::abort_transfer(TransferHandle handle,
                                    const char* error) {
  Active& active = transfers_.at(handle);
  // Bytes already fully drained (delivery tail) are delivered; a reset
  // after the last byte left the sender cannot un-deliver them. A
  // transfer the fault plane already killed just waits for its error
  // event.
  if (active.fault_failing || active.phase == Phase::kTail) return;
  if (active.phase == Phase::kQueued) {
    unqueue(handle, active.result.relay);
    active.pending_request.reset();
  } else if (active.phase == Phase::kFlow) {
    fsim_.cancel_flow(active.flow);
  } else {
    fsim_.simulator().cancel(active.timer);
  }
  active.fault_failing = true;
  active.phase = Phase::kSetup;  // only the error timer remains
  active.result.ok = false;
  active.result.error = error;
  active.timer = fsim_.simulator().schedule_in(
      0.0, [this, handle] { finish(handle); }, sim::EventKind::kTransfer);
  c_faults_injected_.inc();
  // The dead transfer's slot frees immediately; a queued successor (not
  // itself a victim of this sweep) may be admitted right away.
  release_slot(active);
}

void TransferEngine::abort_transfers_via(net::NodeId relay,
                                         const char* error) {
  // Collect first and sort: the abort schedules events, and handle order
  // keeps the injection deterministic across library/hash changes.
  std::vector<TransferHandle> victims;
  for (const auto& [handle, active] : transfers_) {
    const bool match = relay == net::kInvalidNode
                           ? !active.result.indirect
                           : active.result.relay == relay;
    if (match && !active.fault_failing && active.phase != Phase::kTail) {
      victims.push_back(handle);
    }
  }
  std::sort(victims.begin(), victims.end());
  for (TransferHandle handle : victims) abort_transfer(handle, error);
}

void TransferEngine::set_relay_down(net::NodeId relay, bool down) {
  if (down) {
    if (!down_relays_.insert(relay).second) return;
    abort_transfers_via(relay, "relay down (injected fault)");
  } else {
    down_relays_.erase(relay);
  }
}

bool TransferEngine::relay_down(net::NodeId relay) const {
  return down_relays_.count(relay) != 0;
}

void TransferEngine::set_direct_down(bool down) {
  if (down == direct_down_) return;
  direct_down_ = down;
  if (down) {
    abort_transfers_via(net::kInvalidNode,
                        "direct path down (injected fault)");
  }
}

void TransferEngine::inject_reset(net::NodeId relay) {
  abort_transfers_via(relay,
                      relay == net::kInvalidNode
                          ? "connection reset (injected fault)"
                          : "relay reset connection (injected fault)");
}

TransferHandle TransferEngine::begin(const TransferRequest& request,
                                     TransferCallback on_done) {
  IDR_REQUIRE(request.server != nullptr, "begin: null server");
  IDR_REQUIRE(on_done != nullptr, "begin: null callback");

  const TransferHandle handle = ++next_handle_;
  c_transfers_started_.inc();
  Active& active = transfers_[handle];
  active.on_done = std::move(on_done);
  active.result.start_time = fsim_.simulator().now();
  active.result.indirect = request.relay.has_value();
  active.result.relay = request.relay.value_or(net::kInvalidNode);

  const auto bytes =
      request.server->transfer_size(request.resource, request.range);
  if (!bytes) {
    fail_async(handle, "resource not found or range unsatisfiable");
    return handle;
  }
  active.result.bytes = *bytes;

  // Fault plane: a crashed relay (or a direct-path outage) refuses new
  // connections until its window closes.
  if (request.relay ? relay_down(*request.relay) : direct_down_) {
    c_faults_injected_.inc();
    fail_async(handle, request.relay ? "relay down (injected fault)"
                                     : "direct path down (injected fault)");
    return handle;
  }

  // Admission control: a capacity-governed relay serves up to
  // max_concurrent transfers, parks up to queue_limit more in FIFO
  // order, and sheds the rest as a soft "overloaded" failure with a
  // retry hint — the sim-side 503 + Retry-After.
  if (request.relay) {
    const RelayParams& rp = relay_params(*request.relay);
    if (rp.governs_admission()) {
      RelayGate& gate = gates_[*request.relay];
      if (gate.active >= rp.max_concurrent) {
        if (gate.waiting.size() >= rp.queue_limit) {
          c_transfers_shed_.inc();
          active.result.overloaded = true;
          active.result.retry_after = rp.retry_after;
          fail_async(handle, "relay overloaded");
          return handle;
        }
        c_transfers_queued_.inc();
        active.phase = Phase::kQueued;
        active.pending_request = std::make_unique<TransferRequest>(request);
        gate.waiting.push_back(handle);
        return handle;
      }
      ++gate.active;
      active.holds_slot = true;
    }
  }

  start_transfer(handle, request);
  return handle;
}

void TransferEngine::start_transfer(TransferHandle handle,
                                    const TransferRequest& request) {
  Active& active = transfers_.at(handle);
  active.phase = Phase::kSetup;

  const net::Topology& topo = fsim_.topology();
  const net::NodeId server_node = request.server->node();

  // All paths are computed in the data direction (server -> client).
  net::Path data_path;
  flow::FlowOptions options;
  options.tcp = request.tcp;
  Duration setup_delay = 0.0;

  if (!request.relay) {
    const std::optional<net::Path>& direct =
        route(server_node, request.client);
    if (!direct) {
      release_slot(active);
      fail_async(handle, "no direct route");
      return;
    }
    data_path = *direct;
    const Duration rtt = topo.path_rtt(data_path);
    options.rtt = rtt;
    options.loss = topo.path_loss(data_path);
    if (request.warm_connection) {
      // Keep-alive: the request's one-way trip, window already open.
      setup_delay = 0.5 * rtt;
      options.model_slow_start = false;
    } else {
      // TCP handshake + request/first-byte exchange before data flows.
      setup_delay = 2.0 * rtt;
    }
  } else {
    const net::NodeId relay = *request.relay;
    const std::optional<net::Path>& leg_sr = route(server_node, relay);
    const std::optional<net::Path>& leg_rc = route(relay, request.client);
    if (!leg_sr || !leg_rc) {
      release_slot(active);
      fail_async(handle, "no route via relay");
      return;
    }
    data_path = net::concatenate(topo, *leg_sr, *leg_rc);
    const RelayParams& rp = relay_params(relay);
    const Duration rtt_sr = topo.path_rtt(*leg_sr);
    const Duration rtt_rc = topo.path_rtt(*leg_rc);
    // The slower ramping leg's slow start is the delivery-rate envelope;
    // with a persistent upstream, only the client-side leg ramps.
    options.rtt =
        rp.persistent_upstream ? rtt_rc : std::max(rtt_sr, rtt_rc);
    // Split TCP: each leg recovers losses independently, so the combined
    // ceiling is the min of per-leg ceilings — not the (worse) ceiling of
    // the compounded loss over the full RTT.
    options.ceiling_override = std::min(
        flow::steady_state_ceiling(options.tcp, rtt_sr,
                                   topo.path_loss(*leg_sr)),
        flow::steady_state_ceiling(options.tcp, rtt_rc,
                                   topo.path_loss(*leg_rc)));
    options.extra_cap = rp.max_forward_rate;
    if (request.warm_connection) {
      // Keep-alive through the proxy: request forwarded over both warm
      // legs, windows already open.
      setup_delay = 0.5 * (rtt_rc + rtt_sr) + rp.processing_delay;
      options.model_slow_start = false;
    } else if (rp.persistent_upstream) {
      // Client->relay handshake + request; the upstream connection is
      // already established, so only the request's upstream round trip.
      setup_delay = 2.0 * rtt_rc + 0.5 * rtt_sr + rp.processing_delay;
    } else {
      // Client->relay handshake + request, relay->server handshake +
      // request, plus relay processing.
      setup_delay = 2.0 * rtt_rc + 2.0 * rtt_sr + rp.processing_delay;
    }
  }

  active.tail_delay = topo.path_delay(data_path);

  if (setup_jitter_max_ > 0.0) {
    setup_delay += jitter_rng_.uniform(0.0, setup_jitter_max_);
  }

  // Application-layer relaying is not free: the proxy moves slightly more
  // bytes than it delivers (buffer copies, re-framing). Model this as byte
  // inflation so the overhead bites whether the transfer is link-bound or
  // window-bound. The result still reports delivered (goodput) bytes.
  util::Bytes size = active.result.bytes;
  if (request.relay) {
    size /= relay_params(*request.relay).efficiency;
  }
  const net::Path path = data_path;
  active.timer = fsim_.simulator().schedule_in(
      setup_delay, [this, handle, path, size, options] {
        Active& a = transfers_.at(handle);
        a.phase = Phase::kFlow;
        a.flow = fsim_.start_flow(
            path, size, options, [this, handle](const flow::FlowStats&) {
              Active& done = transfers_.at(handle);
              // Last byte reaches the client one propagation delay after
              // the sender drains it.
              done.phase = Phase::kTail;
              done.timer = fsim_.simulator().schedule_in(
                  done.tail_delay,
                  [this, handle] {
                    transfers_.at(handle).result.ok = true;
                    finish(handle);
                  },
                  sim::EventKind::kTransfer);
            });
      },
      sim::EventKind::kTransfer);
}

const std::optional<net::Path>& TransferEngine::route(net::NodeId from,
                                                     net::NodeId to) {
  const net::Topology& topo = fsim_.topology();
  if (topo.link_count() != routes_link_count_) {
    routes_.clear();
    routes_link_count_ = topo.link_count();
  }
  const std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) | to;
  auto it = routes_.find(key);
  if (it == routes_.end()) {
    it = routes_.emplace(key, net::shortest_path(topo, from, to)).first;
  }
  return it->second;
}

void TransferEngine::release_slot(Active& active) {
  if (!active.holds_slot) return;
  active.holds_slot = false;
  const auto it = gates_.find(active.result.relay);
  if (it == gates_.end()) return;
  IDR_REQUIRE(it->second.active > 0, "release_slot: gate underflow");
  --it->second.active;
  admit_next(active.result.relay);
}

void TransferEngine::admit_next(net::NodeId relay) {
  const auto git = gates_.find(relay);
  if (git == gates_.end()) return;
  const RelayParams& rp = relay_params(relay);
  RelayGate& gate = git->second;
  while (rp.governs_admission() && gate.active < rp.max_concurrent &&
         !gate.waiting.empty()) {
    const TransferHandle next = gate.waiting.front();
    gate.waiting.pop_front();
    const auto it = transfers_.find(next);
    if (it == transfers_.end()) continue;  // defensive: cancel unqueues
    Active& admitted = it->second;
    ++gate.active;
    admitted.holds_slot = true;
    admitted.result.queued_delay =
        fsim_.simulator().now() - admitted.result.start_time;
    const std::unique_ptr<TransferRequest> request =
        std::move(admitted.pending_request);
    start_transfer(next, *request);
  }
}

void TransferEngine::unqueue(TransferHandle handle, net::NodeId relay) {
  const auto it = gates_.find(relay);
  if (it == gates_.end()) return;
  auto& waiting = it->second.waiting;
  const auto pos = std::find(waiting.begin(), waiting.end(), handle);
  if (pos != waiting.end()) waiting.erase(pos);
}

std::size_t TransferEngine::relay_active(net::NodeId relay) const {
  const auto it = gates_.find(relay);
  return it == gates_.end() ? 0 : it->second.active;
}

std::size_t TransferEngine::relay_queued(net::NodeId relay) const {
  const auto it = gates_.find(relay);
  return it == gates_.end() ? 0 : it->second.waiting.size();
}

void TransferEngine::finish(TransferHandle handle) {
  const auto it = transfers_.find(handle);
  IDR_REQUIRE(it != transfers_.end(), "finish: unknown transfer");
  Active active = std::move(it->second);
  transfers_.erase(it);
  // Free the relay slot before the callback runs: a caller retrying the
  // same relay from on_done must see the capacity it just vacated.
  release_slot(active);
  active.result.finish_time = fsim_.simulator().now();
  if (active.result.ok) {
    c_transfers_completed_.inc();
    h_transfer_seconds_.observe(active.result.elapsed());
  } else {
    c_transfers_failed_.inc();
  }
  obs::Tracer* tracer = fsim_.tracer();
  if (tracer != nullptr && tracer->enabled()) {
    std::string args = "{\"ok\":";
    args += active.result.ok ? "true" : "false";
    args += ",\"indirect\":";
    args += active.result.indirect ? "true" : "false";
    args += ",\"bytes\":" + std::to_string(active.result.bytes) + "}";
    tracer->complete("transfer", "sim.engine", fsim_.trace_track(),
                     active.result.start_time * 1e6,
                     active.result.elapsed() * 1e6, std::move(args));
  }
  active.on_done(active.result);
}

bool TransferEngine::cancel(TransferHandle handle) {
  const auto it = transfers_.find(handle);
  if (it == transfers_.end()) return false;
  Active active = std::move(it->second);
  // A fault-killed transfer's flow is already gone; only its pending
  // error-delivery event needs cancelling (phase was reset to kSetup).
  if (active.phase == Phase::kQueued) {
    unqueue(handle, active.result.relay);
  } else if (active.phase == Phase::kFlow) {
    fsim_.cancel_flow(active.flow);
  } else {
    fsim_.simulator().cancel(active.timer);
  }
  transfers_.erase(it);
  release_slot(active);
  return true;
}

Rate TransferEngine::current_rate(TransferHandle handle) const {
  const auto it = transfers_.find(handle);
  IDR_REQUIRE(it != transfers_.end(), "current_rate: unknown transfer");
  const Active& active = it->second;
  if (active.phase != Phase::kFlow) return 0.0;
  return fsim_.flow_active(active.flow) ? fsim_.current_rate(active.flow)
                                        : 0.0;
}

}  // namespace idr::overlay
