#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

namespace idr::sim {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kOther: return "other";
    case EventKind::kCapacity: return "capacity";
    case EventKind::kSlowStart: return "slow_start";
    case EventKind::kCompletion: return "completion";
    case EventKind::kTransfer: return "transfer";
    case EventKind::kCadence: return "cadence";
    case EventKind::kRaceTimer: return "race_timer";
    case EventKind::kSampler: return "sampler";
    case EventKind::kFault: return "fault";
  }
  return "unknown";
}

// The slab, heap and free list only ever grow to the high-water pending
// count; every steady-state operation below recycles that storage.

EventId Simulator::schedule_impl(TimePoint t, EventClosure fn,
                                 EventKind kind) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    IDR_REQUIRE(nodes_.size() < kMaxPos, "schedule_at: event slab full");
    slot = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& node = nodes_[slot];
  node.fn = std::move(fn);
  heap_insert(HeapEntry{t, ++next_seq_, slot, kind});
  return make_id(node.gen, slot);
}

Simulator::Node* Simulator::resolve(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= nodes_.size()) return nullptr;
  Node& node = nodes_[slot];
  if (node.gen != gen || node.pos == kFree) return nullptr;
  return &node;
}

void Simulator::free_node(std::uint32_t slot) {
  Node& node = nodes_[slot];
  node.fn.reset();
  node.pos = kFree;
  if (++node.gen == 0) node.gen = 1;  // keep ids nonzero after wraparound
  free_.push_back(slot);
}

bool Simulator::cancel(EventId id) {
  Node* node = resolve(id);
  if (node == nullptr) return false;
  if (node->pos == kFiring) return false;  // its own callback: already fired
  ++cancellations_;
  if (node->pos == kRescheduled) {
    // Cancelling the reschedule issued earlier in this same callback: the
    // dispatcher frees the slot once the callback returns.
    node->pos = kFiring;
    return true;
  }
  heap_remove(node->pos);
  free_node(static_cast<std::uint32_t>(node - nodes_.data()));
  return true;
}

bool Simulator::reschedule_at(EventId id, TimePoint t) {
  IDR_REQUIRE(t >= now_, "reschedule_at: time in the past");
  Node* node = resolve(id);
  if (node == nullptr) return false;
  ++reschedules_;
  // A fresh seq per reschedule keeps the FIFO contract identical to a
  // cancel + schedule pair: the moved event goes behind existing events
  // at its new timestamp.
  const std::uint64_t seq = ++next_seq_;
  if (node->pos == kFiring || node->pos == kRescheduled) {
    // Self-reschedule from the event's own callback; re-inserted by the
    // dispatcher after the callback returns.
    node->pos = kRescheduled;
    firing_time_ = t;
    firing_seq_ = seq;
    return true;
  }
  const std::uint32_t pos = node->pos;
  const HeapEntry moved{t, seq,
                        static_cast<std::uint32_t>(node - nodes_.data()),
                        heap_[pos].kind};
  if (before(moved, heap_[pos])) {
    heap_[pos] = moved;
    sift_up(pos);
  } else {
    heap_[pos] = moved;
    sift_down(pos);
  }
  return true;
}

void Simulator::heap_insert(const HeapEntry& e) {
  const auto pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(e);
  nodes_[e.node].pos = pos;
  sift_up(pos);
}

void Simulator::heap_remove(std::uint32_t pos) {
  const std::uint32_t last = static_cast<std::uint32_t>(heap_.size()) - 1;
  if (pos != last) {
    const HeapEntry moved = heap_[last];
    heap_.pop_back();
    place(pos, moved);
    if (pos > 0 && before(heap_[pos], heap_[(pos - 1) / 4])) {
      sift_up(pos);
    } else {
      sift_down(pos);
    }
  } else {
    heap_.pop_back();
  }
}

void Simulator::sift_up(std::uint32_t pos) {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Simulator::sift_down(std::uint32_t pos) {
  const HeapEntry e = heap_[pos];
  const auto size = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    const std::uint64_t first = 4ull * pos + 1;
    if (first >= size) break;
    const std::uint32_t end =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(first + 4, size));
    std::uint32_t best = static_cast<std::uint32_t>(first);
    for (std::uint32_t c = best + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, e);
}

TimePoint Simulator::next_event_time() const {
  IDR_REQUIRE(!heap_.empty(), "next_event_time: queue empty");
  return heap_[0].time;
}

bool Simulator::pop_and_run() {
  if (heap_.empty()) return false;
  const std::uint32_t slot = heap_[0].node;
  const EventKind kind = heap_[0].kind;
  now_ = heap_[0].time;
  heap_remove(0);
  // Move the callback to the stack before invoking: the callback may
  // schedule events (growing the slab under the node) or reschedule this
  // very event; the node is parked in the kFiring state meanwhile.
  EventClosure fn = std::move(nodes_[slot].fn);
  nodes_[slot].pos = kFiring;
  ++executed_;
  ++executed_by_kind_[static_cast<std::size_t>(kind)];
  fn();
  Node& node = nodes_[slot];  // re-resolve: the slab may have moved
  if (node.pos == kRescheduled) {
    node.fn = std::move(fn);
    heap_insert(HeapEntry{firing_time_, firing_seq_, slot, kind});
  } else {
    free_node(slot);
  }
  return true;
}

std::size_t Simulator::run_until(TimePoint t) {
  IDR_REQUIRE(t >= now_, "run_until: time in the past");
  std::size_t ran = 0;
  while (!heap_.empty() && heap_[0].time <= t) {
    pop_and_run();
    ++ran;
  }
  now_ = t;
  return ran;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t ran = 0;
  while (ran < max_events && pop_and_run()) ++ran;
  return ran;
}

bool Simulator::step() { return pop_and_run(); }

}  // namespace idr::sim
