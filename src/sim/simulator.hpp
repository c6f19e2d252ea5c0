// Discrete-event simulation engine.
//
// A Simulator owns a virtual clock and a queue of timestamped callbacks.
// Events at equal timestamps fire in scheduling order (FIFO), which makes
// runs deterministic.
//
// The queue is an indexed 4-ary min-heap over slab-allocated event nodes:
// each node knows its heap position, so cancel() removes the entry in
// place (O(log n), no tombstones to skip later) and reschedule_at() moves
// it by a single sift — the operation timer-churn layers (completion
// estimates re-armed on every rate change, capacity re-draws, periodic
// cadences) perform instead of a cancel + fresh schedule. Event ids carry
// a per-slot generation, so stale handles are rejected without any lookup
// structure, and freed slots are recycled through a free list. Callbacks
// live in a small-buffer EventClosure inside the node. Net effect: once
// the slab and heap have grown to the high-water mark, the steady-state
// schedule / cancel / reschedule / dispatch loop performs zero heap
// allocations and zero hash lookups (enforced by bench/perf_smoke.cpp).
//
// Event ledger: every event carries a static EventKind tag (kOther unless
// the scheduler says otherwise), stored in the heap entry's padding, and
// dispatch counts executed events per kind — so a run can say which layer
// spends its events (capacity redraws, slow-start rounds, completions...).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/event_closure.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace idr::sim {

using util::Duration;
using util::TimePoint;

/// Handle for a scheduled event; valid until the event fires or is
/// cancelled. Packed (generation << 32 | slot); never 0 for a live event,
/// so 0 works as a "no event" sentinel.
using EventId = std::uint64_t;

/// What an event is for; fixed when it is scheduled and kept across
/// reschedules. Only counted, never consulted for ordering.
enum class EventKind : std::uint8_t {
  kOther = 0,
  kCapacity,    // link-capacity change (flow simulator)
  kSlowStart,   // slow-start round boundary (flow simulator)
  kCompletion,  // flow drained (flow simulator)
  kTransfer,    // transfer-engine setup, delivery tail, error delivery
  kCadence,     // a session's next transfer
  kRaceTimer,   // probe-race timers
  kSampler,     // virtual-time metrics sampler
  kFault,       // fault-plane down/up windows and resets
};
inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kFault) + 1;

/// Stable lowercase name ("capacity", "slow_start", ...) for reports.
const char* event_kind_name(EventKind kind);

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time. Starts at 0.
  TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (must be >= now()). Accepts any
  /// `void()` callable; see EventClosure for the storage strategy. `kind`
  /// tags the event for the per-kind executed counts.
  template <typename F>
  EventId schedule_at(TimePoint t, F&& fn,
                      EventKind kind = EventKind::kOther) {
    IDR_REQUIRE(t >= now_, "schedule_at: time in the past");
    if constexpr (requires { fn == nullptr; }) {
      IDR_REQUIRE(!(fn == nullptr), "schedule_at: null callback");
    }
    return schedule_impl(t, EventClosure(std::forward<F>(fn)), kind);
  }

  /// Schedules `fn` after `delay` (must be >= 0).
  template <typename F>
  EventId schedule_in(Duration delay, F&& fn,
                      EventKind kind = EventKind::kOther) {
    IDR_REQUIRE(delay >= 0.0, "schedule_in: negative delay");
    return schedule_at(now_ + delay, std::forward<F>(fn), kind);
  }

  /// Cancels a pending event. Returns false if the event already fired,
  /// was already cancelled, or the id is unknown. An event may cancel
  /// itself from its own callback only after rescheduling (otherwise it
  /// already counts as fired).
  bool cancel(EventId id);

  /// Moves a pending event to absolute time `t` (must be >= now()),
  /// keeping its id and callback. Ordering is exactly as if the event had
  /// been cancelled and freshly scheduled: among events at the same
  /// timestamp it fires last. The currently-dispatching event may
  /// reschedule itself from its own callback (this is how repeating
  /// timers re-arm without re-creating their closure). Returns false if
  /// the event already fired or the id is unknown.
  bool reschedule_at(EventId id, TimePoint t);

  /// Moves a pending event to now() + `delay` (must be >= 0).
  bool reschedule_in(EventId id, Duration delay) {
    IDR_REQUIRE(delay >= 0.0, "reschedule_in: negative delay");
    return reschedule_at(id, now_ + delay);
  }

  /// Runs events with timestamp <= `t`, then advances the clock to `t`
  /// (even if the queue drains earlier). Returns the number of events run.
  std::size_t run_until(TimePoint t);

  /// Runs until the queue is empty or `max_events` have fired.
  /// Returns the number of events run.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs exactly one event if any is pending; returns whether one ran.
  bool step();

  /// Pending event count (cancelled events leave the queue immediately).
  std::size_t pending() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  /// Timestamp of the next pending event; requires !empty().
  TimePoint next_event_time() const;

  /// Total events executed since construction.
  std::uint64_t executed() const { return executed_; }

  /// Events executed since construction that were scheduled as `kind`.
  std::uint64_t executed(EventKind kind) const {
    return executed_by_kind_[static_cast<std::size_t>(kind)];
  }

  /// Total events successfully cancelled since construction. Together
  /// with executed() and reschedules() this exposes timer churn.
  std::uint64_t cancellations() const { return cancellations_; }

  /// Total successful reschedule_at()/reschedule_in() calls — the in-place
  /// cancel + re-arm operations of layers that re-estimate timers on
  /// every state change (flow completion estimates, capacity re-draws,
  /// periodic cadences).
  std::uint64_t reschedules() const { return reschedules_; }

  /// The churn counters in one read — what per-world aggregators
  /// (testbed sessions, shard merges) fold into their work tallies.
  struct WorkCounters {
    std::uint64_t executed = 0;
    std::uint64_t cancellations = 0;
    std::uint64_t reschedules = 0;
    /// `executed`, split by EventKind (indexed by its value).
    std::array<std::uint64_t, kEventKindCount> executed_by_kind{};

    WorkCounters& operator+=(const WorkCounters& o) {
      executed += o.executed;
      cancellations += o.cancellations;
      reschedules += o.reschedules;
      for (std::size_t k = 0; k < kEventKindCount; ++k) {
        executed_by_kind[k] += o.executed_by_kind[k];
      }
      return *this;
    }
  };
  WorkCounters work() const {
    return {executed_, cancellations_, reschedules_, executed_by_kind_};
  }

 private:
  // Heap entries carry the ordering key (time, seq) so sifts compare
  // within the contiguous heap array; the node index links back to the
  // slab for position bookkeeping and dispatch. The kind tag rides in
  // what would otherwise be padding.
  struct HeapEntry {
    TimePoint time;
    std::uint64_t seq;  // FIFO tie-break among equal timestamps
    std::uint32_t node;
    EventKind kind;
  };

  struct Node {
    EventClosure fn;
    std::uint32_t gen = 1;  // bumped on free; validates EventIds
    std::uint32_t pos = kFree;
  };

  // Sentinel `pos` values for nodes not currently in the heap.
  static constexpr std::uint32_t kFree = 0xFFFFFFFFu;
  static constexpr std::uint32_t kFiring = 0xFFFFFFFEu;
  static constexpr std::uint32_t kRescheduled = 0xFFFFFFFDu;
  static constexpr std::uint32_t kMaxPos = 0xFFFFFFF0u;

  static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  EventId schedule_impl(TimePoint t, EventClosure fn, EventKind kind);
  /// Resolves an id to its slab slot; returns nullptr for stale/unknown.
  Node* resolve(EventId id);
  void heap_insert(const HeapEntry& e);
  void heap_remove(std::uint32_t pos);
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);
  void place(std::uint32_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    nodes_[e.node].pos = pos;
  }
  void free_node(std::uint32_t slot);
  bool pop_and_run();

  TimePoint now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancellations_ = 0;
  std::uint64_t reschedules_ = 0;
  std::array<std::uint64_t, kEventKindCount> executed_by_kind_{};
  std::vector<HeapEntry> heap_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;
  // Reschedule target of the currently-dispatching event, if its callback
  // rescheduled itself (dispatch is never reentrant, so one slot is
  // enough; the re-insert happens after the callback returns).
  TimePoint firing_time_ = 0.0;
  std::uint64_t firing_seq_ = 0;
};

/// Repeating timer: runs `fn` every `period`, starting `period` from
/// creation, until stop() or destruction. The callback may stop the
/// timer. One event is armed for the timer's whole life and rescheduled
/// in place on every tick.
class PeriodicTimer {
 public:
  template <typename F>
  PeriodicTimer(Simulator& sim, Duration period, F&& fn)
      : sim_(sim), period_(period), fn_(std::forward<F>(fn)) {
    IDR_REQUIRE(period_ > 0.0, "PeriodicTimer: period must be positive");
    IDR_REQUIRE(static_cast<bool>(fn_), "PeriodicTimer: null callback");
    event_ = sim_.schedule_in(period_, [this] {
      // Re-arm before running the callback so the callback sees a live
      // timer it can stop().
      sim_.reschedule_in(event_, period_);
      fn_();
    });
  }
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void stop() {
    if (!running_) return;
    running_ = false;
    sim_.cancel(event_);
  }
  bool running() const { return running_; }

 private:
  Simulator& sim_;
  Duration period_;
  EventClosure fn_;
  EventId event_ = 0;
  bool running_ = true;
};

}  // namespace idr::sim
