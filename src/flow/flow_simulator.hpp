// Event-driven fluid ("flow-level") network simulator.
//
// Flows drain bytes over paths at their max-min fair share of link
// capacity, further capped by a per-flow TCP model (slow-start ramp and
// loss/RTT ceiling). Rates change only at discrete events — flow arrival,
// flow completion, a slow-start round boundary, or a link-capacity change —
// so completion times between events are exact, not time-stepped.
//
// Reallocation is scoped, incremental and allocation-free: a link-flow
// incidence index (net::LinkUserIndex) confines each recompute to the
// connected component(s) of the constraint graph containing the changed
// flow or link. Flows in disjoint components keep their rates, byte
// accounting (per-flow lazy progress timestamps) and armed completion
// timers untouched, and a reused MaxMinWorkspace makes the steady-state
// recompute path perform zero heap allocations. Events that provably
// cannot change any rate (a slow-start ramp whose cap was not binding, a
// no-op external-cap update, an unchanged link capacity) skip the
// recompute entirely. The computed rates are identical to a from-scratch
// global allocation — max-min decomposes exactly across components.
//
// Flows live in a slot table: a vector of FlowState with a free list. The
// incidence index is keyed by slot, and every event closure captures the
// flow's (slot, id) pair and checks that the slot still holds that id, so
// no step of a reallocation looks a flow up in a hash table. A freed slot
// is reused by the next start_flow (possibly from inside a completion
// callback) and keeps its path's link storage. FlowId stays a monotone
// counter, independent of slots: the public handles, FlowStats::id and the
// ascending-id order in which a recompute re-arms timers do not depend on
// which slot a flow happens to occupy. (The solver's rates do not depend
// on the order flows are listed in at all.) A FlowId -> slot map serves
// only the public calls that take a FlowId.
//
// Slow-start ramps park the same way. A round whose previous cap was not
// binding keeps its next due time but schedules no event: until the next
// recompute touching the flow, its rate and cap stay fixed, so every later
// round would also find the cap non-binding. That recompute first replays
// the rounds due strictly before now() (same doubling, same `t + rtt`
// sums) and re-arms the round event only if the flow binds after the
// solve.
//
// Cap-bound components skip the solver. When every flow of a component
// has a finite cap and the caps on each link sum to at most
// capacity * (1 - 1e-9), progressive filling would freeze every flow at
// exactly its cap, so the recompute sets each rate to its cap without
// running max_min_allocate. A flow remembers that its last recompute found
// its component cap-bound; while that holds, its binding slow-start rounds
// update only the flow itself if the new cap still fits on each link of
// its path. Rates, re-arm order and the event sequence are those the full
// solve would give (DESIGN §6.5).
//
// Capacity processes are lazy. A link that carries no flow keeps its
// process parked: the next drawn change and its absolute due time, but no
// queued event. When a flow joins, the process catches up — it replays
// every change due strictly before now() from the link's own RNG stream,
// with the same `t + dwell` arithmetic the eager timer used — and arms one
// change event; when the last flow leaves, the event is cancelled and the
// link parks again. Every capacity a flow sees is bit-for-bit what an
// eagerly stepped process would show, while idle links cost no events.
//
// This is the standard fidelity/performance point for studying transfer
// throughput over minutes-to-hours timescales: packet dynamics are
// abstracted into the TCP rate caps, while bandwidth sharing, path
// diversity and temporal variability are modelled exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "flow/max_min.hpp"
#include "flow/tcp_model.hpp"
#include "net/capacity_process.hpp"
#include "net/link_index.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace idr::flow {

using util::Bytes;
using util::Duration;
using util::Rate;
using util::TimePoint;

using FlowId = std::uint64_t;

/// Final accounting for a completed flow.
struct FlowStats {
  FlowId id = 0;
  Bytes size = 0.0;
  TimePoint start_time = 0.0;
  TimePoint finish_time = 0.0;

  Duration elapsed() const { return finish_time - start_time; }
  /// Bytes per second averaged over the flow's lifetime.
  Rate average_rate() const {
    return elapsed() > 0.0 ? size / elapsed() : 0.0;
  }
};

using CompletionCallback = std::function<void(const FlowStats&)>;

struct FlowOptions {
  TcpConfig tcp{};
  /// Model the slow-start ramp (per-RTT doubling of the rate cap). The
  /// probe-racing experiments depend on this; long background flows can
  /// turn it off.
  bool model_slow_start = true;
  /// RTT used by the TCP model; 0 derives 2 * path propagation delay.
  Duration rtt = 0.0;
  /// End-to-end loss for the PFTK ceiling; negative derives from the path.
  double loss = -1.0;
  /// Explicit steady-state ceiling; 0 derives min(PFTK, rwnd/RTT) from
  /// rtt/loss. A split-TCP relay transfer passes min(leg ceilings) here,
  /// since each leg recovers losses independently.
  Rate ceiling_override = 0.0;
  /// Multiplier (0, 1] applied to the TCP cap; models fixed inefficiency
  /// such as application-layer relay overhead.
  double cap_scale = 1.0;
  /// Additional absolute rate cap (e.g. imposed by a coupled relay leg).
  Rate extra_cap = kUnlimitedRate;
};

class FlowSimulator {
 public:
  /// Reallocation-path performance counters (monotone totals), assembled
  /// from the `sim.flow.*` registry series. The scoped recompute makes
  /// these the primary regression guard: a change that silently reverts
  /// to global recomputes shows up as flows_touched growing with the
  /// total flow population instead of the component size.
  struct Counters {
    /// Scoped recompute passes performed (one per rate-affecting event).
    std::uint64_t reallocations = 0;
    /// Flows in the recomputed component(s), summed over reallocations.
    std::uint64_t flows_touched = 0;
    /// Progressive-filling rounds executed, summed over reallocations.
    std::uint64_t maxmin_rounds = 0;
    /// Reallocations that set every rate to its cap without running the
    /// solver: cap-bound components and in-place slow-start rounds (the
    /// latter touch 1 flow each). Neither adds to maxmin_rounds.
    std::uint64_t solver_bypasses = 0;
    /// Completion timers armed or re-armed (a re-arm also cancels).
    std::uint64_t timer_rearms = 0;
    /// Events proven rate-neutral without recomputing: non-binding
    /// slow-start ramps, no-op external-cap updates, unchanged capacities.
    std::uint64_t skipped_events = 0;
  };

  /// The simulator mutates link capacities in `topo` as capacity processes
  /// fire; both references must outlive this object.
  FlowSimulator(sim::Simulator& sim, net::Topology& topo, util::Rng rng);

  FlowSimulator(const FlowSimulator&) = delete;
  FlowSimulator& operator=(const FlowSimulator&) = delete;

  /// Attaches a time-varying capacity process to a link. Applies the
  /// process's initial capacity immediately; later changes are applied as
  /// they fall due while the link carries flows, and caught up on demand
  /// while it is idle.
  void attach_capacity_process(net::LinkId link,
                               std::unique_ptr<net::CapacityProcess> process);

  /// Current capacity of a link, with its capacity process (if any)
  /// caught up to now(). Read this rather than Topology::link().capacity,
  /// which is current only while the link carries a flow.
  Rate link_capacity(net::LinkId link);

  /// Starts a transfer of `size` bytes along `path`. The callback fires
  /// when the last byte drains (it may start new flows). Returns a handle
  /// usable with cancel_flow()/observers while the flow is active.
  FlowId start_flow(const net::Path& path, Bytes size,
                    const FlowOptions& options, CompletionCallback on_done);

  /// Aborts an active flow without firing its callback. Returns false if
  /// the flow already finished or is unknown.
  bool cancel_flow(FlowId id);

  bool flow_active(FlowId id) const { return slot_of_.contains(id); }
  std::size_t active_flows() const { return slot_of_.size(); }

  /// Current allocated rate of an active flow.
  Rate current_rate(FlowId id) const;
  /// Bytes still to transfer, accounting for progress up to now().
  Bytes bytes_remaining(FlowId id) const;

  /// Tightens/loosens a flow's external rate cap and reallocates. A cap
  /// equal to the current one is a no-op (the relay coupling re-posts
  /// unchanged caps on every leg-rate update).
  void set_extra_cap(FlowId id, Rate cap);

  sim::Simulator& simulator() { return sim_; }
  const net::Topology& topology() const { return topo_; }

  /// The world's metrics registry (Sync::None — one world, one thread).
  /// Owned here because the flow simulator sits at the bottom of every
  /// sim world; higher layers (transfer engine, probe races) register
  /// their `sim.*` series into the same registry so one snapshot covers
  /// the whole world.
  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }

  /// Optional span tracer shared across worlds/sessions; `track` is the
  /// Chrome tid spans from this world are stamped with. Null (default)
  /// and disabled tracers cost one branch per would-be span.
  void set_tracer(obs::Tracer* tracer, std::uint64_t track) {
    tracer_ = tracer;
    trace_track_ = track;
  }
  obs::Tracer* tracer() const { return tracer_; }
  std::uint64_t trace_track() const { return trace_track_; }
  /// Clock stamping this world's virtual time in trace microseconds.
  obs::TraceClock trace_clock() const;

  /// Total max-min reallocation passes performed (for microbenchmarks and
  /// performance regressions).
  std::uint64_t reallocations() const { return c_reallocations_.value(); }

  /// Reallocation-path counter set, read from the registry series.
  Counters counters() const;

  /// Reassembles a Counters set from a snapshot's `sim.flow.*` series —
  /// how sharded runs recover their flow-layer work metrics after the
  /// worlds that produced them are gone (absent series read as zero).
  static Counters counters_from(const obs::Snapshot& snapshot);

  /// Derives a decorrelated RNG stream from this simulator's root seed;
  /// used by higher layers (e.g. the transfer engine's setup jitter) so a
  /// world stays fully determined by its construction seed.
  util::Rng derive_rng(std::uint64_t salt) const { return rng_.child(salt); }

 private:
  /// Index of a flow's FlowState in flows_ (and its user in index_).
  using Slot = net::LinkUserIndex::UserId;

  struct FlowState {
    FlowId id = 0;  // 0: the slot is free
    net::Path path;
    Bytes size = 0.0;
    Bytes remaining = 0.0;
    TimePoint start = 0.0;
    /// Time `remaining` was last brought current. Progress is lazy: a flow
    /// whose rate an event leaves unchanged drains linearly, so its byte
    /// accounting and armed completion timer stay exact without touching
    /// it.
    TimePoint last_update = 0.0;
    Rate rate = 0.0;
    Rate ceiling = kUnlimitedRate;  // steady-state TCP ceiling
    Rate extra_cap = kUnlimitedRate;
    double cap_scale = 1.0;
    Duration rtt = 0.0;
    bool in_slow_start = false;
    int ss_round = 0;
    Rate ss_cap = kUnlimitedRate;
    /// Due time of the next slow-start round, armed or parked.
    TimePoint ss_next = 0.0;
    TcpConfig tcp{};
    /// The armed round event; 0 while the ramp is parked or complete.
    sim::EventId ss_event = 0;
    sim::EventId completion_event = 0;
    bool completion_armed = false;
    /// The last recompute covering this flow found its component
    /// cap-bound, and the flow's rate has tracked its cap since. Every
    /// recompute rewrites it for the whole component; release() clears it.
    bool cap_bound = false;
    CompletionCallback on_done;
  };

  /// A link's capacity process: armed while the link carries flows (one
  /// change event, rescheduled in place on every dwell), parked otherwise.
  struct CapacitySlot {
    std::unique_ptr<net::CapacityProcess> process;  // null: no process
    util::Rng rng{0};
    /// The next change and its absolute due time (infinity once the
    /// process is quiescent). Both are kept while parked.
    net::CapacityChange pending{};
    TimePoint next_time = 0.0;
    /// The armed change event; 0 while parked.
    sim::EventId event = 0;
  };

  /// Effective cap of a flow right now (TCP ramp/ceiling, scale, external).
  static Rate effective_cap(const FlowState& f);

  /// The slot of an active flow; throws naming `caller` if there is none.
  Slot slot_of(FlowId id, const char* caller) const;
  /// The state in `slot`, which an event armed for flow `id` must still
  /// hold.
  FlowState& state(Slot slot, FlowId id);
  /// Frees a departed flow's slot: every field back to its default except
  /// the path's link storage, which the next flow in the slot reuses.
  void release(Slot slot);

  /// Brings one flow's remaining-byte accounting current.
  void advance_flow(FlowState& f);

  /// Collects the component containing `slot` into comp_slots_/comp_links_.
  void collect_flow_component(Slot slot);
  /// Recomputes rates for the component(s) containing the seed flow/links
  /// and re-arms completion timers of flows whose rate changed.
  void reallocate_for_flow(Slot slot);
  void reallocate_for_links(std::span<const net::LinkId> links);
  /// Shared tail: solves for the flows/links already collected into
  /// comp_slots_/comp_links_ and applies the result.
  void reallocate_component();
  /// Gives `f` its newly computed rate (advancing its bytes and re-arming
  /// its completion only if the rate changed) and re-arms a parked ramp
  /// that now binds. Called in ascending id order within a recompute.
  void settle(Slot slot, FlowState& f, Rate rate);
  /// Whether `f`, cap-bound, still fits at its current cap on every link
  /// of its path, its neighbours there at their rates (their caps).
  bool fits_at_cap(Slot slot, const FlowState& f) const;
  /// Checked builds: tests the collected component's rates against the
  /// max-min definition and throws on a violation.
  void check_component();

  void arm_completion(Slot slot, FlowState& f);
  void arm_slow_start(Slot slot, FlowState& f);
  void on_completion(Slot slot, FlowId id);
  void on_slow_start_round(Slot slot, FlowId id);
  /// Steps the ramp past the round due at ss_next: doubles the cap, ends
  /// slow start at the ceiling, else moves ss_next on by one RTT.
  static void step_slow_start(FlowState& f);
  /// Replays every round of a parked ramp due strictly before now(), each
  /// counted as the skipped event it would have been.
  void replay_slow_start(FlowState& f);
  /// The link's capacity slot, or null when it has no process.
  CapacitySlot* capacity_slot(net::LinkId link);
  /// Draws the change after `pending` and advances `next_time` to it.
  static void draw_capacity_change(CapacitySlot& slot);
  /// Applies every parked change due strictly before now(); one due
  /// exactly now stays pending, to fire after the current event.
  void catch_up(net::LinkId link, CapacitySlot& slot);
  /// Catches up and arms the change event of each parked link on `links`
  /// (a flow is joining them).
  void wake_capacity(std::span<const net::LinkId> links);
  /// Cancels the change event of each armed link on `links` left with no
  /// flow (a flow has left them).
  void park_capacity(std::span<const net::LinkId> links);
  void on_capacity_change(net::LinkId link);

  sim::Simulator& sim_;
  net::Topology& topo_;
  util::Rng rng_;
  std::vector<FlowState> flows_;  // by Slot
  std::vector<Slot> free_slots_;
  std::unordered_map<FlowId, Slot> slot_of_;  // active flows
  std::vector<CapacitySlot> capacity_slots_;  // by LinkId
  FlowId next_id_ = 0;

  // Incidence index plus reused recompute buffers; all steady-state
  // allocation-free once warm.
  net::LinkUserIndex index_;
  MaxMinWorkspace ws_;
  std::vector<Slot> comp_slots_;
  struct Settle {
    FlowId id;
    Slot slot;
    Rate rate;
  };
  std::vector<Settle> comp_settle_;  // flows a recompute re-arms, by id
  std::vector<net::LinkId> comp_links_;
  std::vector<std::size_t> local_link_;  // LinkId -> component-local index
  std::vector<Rate> link_load_;  // by component-local link: sum of caps

  // Observability: registry cells are resolved once in the constructor;
  // every hot-path increment below is one branch plus one store.
  obs::Registry metrics_{obs::Registry::Sync::None};
  obs::Counter c_reallocations_;
  obs::Counter c_flows_touched_;
  obs::Counter c_maxmin_rounds_;
  obs::Counter c_solver_bypasses_;
  obs::Counter c_timer_rearms_;
  obs::Counter c_skipped_events_;
  obs::Gauge g_flows_active_;
  obs::Tracer* tracer_ = nullptr;
  std::uint64_t trace_track_ = 0;
};

}  // namespace idr::flow
