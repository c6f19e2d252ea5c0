#include "flow/flow_simulator.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace idr::flow {

namespace {
// Slow-start stops ramping once its cap reaches this bound even if the
// steady-state ceiling is unbounded (lossless path): beyond it the links,
// not the window, constrain the flow.
constexpr Rate kSlowStartStopBound = 12.5e9;  // 100 Gbit/s

// Link capacities are clamped to this floor whenever a capacity process
// drives them, so a degenerate draw can never park every flow on a link.
constexpr Rate kCapacityFloor = 1.0;

double sim_now_us(const void* ctx) {
  return static_cast<const sim::Simulator*>(ctx)->now() * 1e6;
}
}  // namespace

FlowSimulator::FlowSimulator(sim::Simulator& sim, net::Topology& topo,
                             util::Rng rng)
    : sim_(sim), topo_(topo), rng_(rng) {
  c_reallocations_ = metrics_.counter("sim.flow.reallocations");
  c_flows_touched_ = metrics_.counter("sim.flow.flows_touched");
  c_maxmin_rounds_ = metrics_.counter("sim.flow.maxmin_rounds");
  c_timer_rearms_ = metrics_.counter("sim.flow.timer_rearms");
  c_skipped_events_ = metrics_.counter("sim.flow.skipped_events");
  g_flows_active_ = metrics_.gauge("sim.flow.flows_active");
}

obs::TraceClock FlowSimulator::trace_clock() const {
  return obs::TraceClock{&sim_now_us, &sim_};
}

FlowSimulator::Counters FlowSimulator::counters() const {
  Counters c;
  c.reallocations = c_reallocations_.value();
  c.flows_touched = c_flows_touched_.value();
  c.maxmin_rounds = c_maxmin_rounds_.value();
  c.timer_rearms = c_timer_rearms_.value();
  c.skipped_events = c_skipped_events_.value();
  return c;
}

FlowSimulator::Counters FlowSimulator::counters_from(
    const obs::Snapshot& snapshot) {
  auto series = [&](const char* name) -> std::uint64_t {
    const obs::MetricValue* m = snapshot.find(name);
    return m != nullptr ? m->count : 0;
  };
  Counters c;
  c.reallocations = series("sim.flow.reallocations");
  c.flows_touched = series("sim.flow.flows_touched");
  c.maxmin_rounds = series("sim.flow.maxmin_rounds");
  c.timer_rearms = series("sim.flow.timer_rearms");
  c.skipped_events = series("sim.flow.skipped_events");
  return c;
}

void FlowSimulator::attach_capacity_process(
    net::LinkId link, std::unique_ptr<net::CapacityProcess> process) {
  IDR_REQUIRE(process != nullptr, "attach_capacity_process: null process");
  IDR_REQUIRE(link < topo_.link_count(),
              "attach_capacity_process: unknown link");
  if (capacity_slots_.size() <= link) capacity_slots_.resize(link + 1);
  CapacitySlot& slot = capacity_slots_[link];
  IDR_REQUIRE(slot.process == nullptr,
              "attach_capacity_process: link already has a process");
  slot.process = std::move(process);
  slot.rng = rng_.child(0x9000 + static_cast<std::uint64_t>(link));
  // Clamp exactly like subsequent changes so a degenerate initial draw
  // cannot produce a zero-capacity link.
  topo_.mutable_link(link).capacity =
      std::max(slot.process->initial(slot.rng), kCapacityFloor);
  const net::LinkId seed[1] = {link};
  reallocate_for_links(seed);
  slot.next_time = sim_.now();
  draw_capacity_change(slot);
  if (!index_.users_on(link).empty()) wake_capacity(seed);
}

Rate FlowSimulator::link_capacity(net::LinkId link) {
  if (CapacitySlot* slot = capacity_slot(link)) catch_up(link, *slot);
  return topo_.link(link).capacity;
}

FlowSimulator::CapacitySlot* FlowSimulator::capacity_slot(net::LinkId link) {
  if (link >= capacity_slots_.size()) return nullptr;
  CapacitySlot& slot = capacity_slots_[link];
  return slot.process != nullptr ? &slot : nullptr;
}

void FlowSimulator::draw_capacity_change(CapacitySlot& slot) {
  slot.pending = slot.process->next(slot.rng);
  // The same sum an eager timer formed as now() + dwell when it fired at
  // next_time; an infinite dwell (quiescent process) never falls due.
  slot.next_time += slot.pending.dwell;
}

void FlowSimulator::catch_up(net::LinkId link, CapacitySlot& slot) {
  while (slot.next_time < sim_.now()) {
    topo_.mutable_link(link).capacity =
        std::max(slot.pending.capacity, kCapacityFloor);
    draw_capacity_change(slot);
  }
}

void FlowSimulator::wake_capacity(std::span<const net::LinkId> links) {
  for (const net::LinkId l : links) {
    CapacitySlot* slot = capacity_slot(l);
    if (slot == nullptr || slot->event != 0) continue;
    catch_up(l, *slot);
    if (std::isinf(slot->next_time)) continue;
    slot->event = sim_.schedule_at(
        slot->next_time, [this, l] { on_capacity_change(l); },
        sim::EventKind::kCapacity);
  }
}

void FlowSimulator::park_capacity(std::span<const net::LinkId> links) {
  for (const net::LinkId l : links) {
    CapacitySlot* slot = capacity_slot(l);
    if (slot == nullptr || slot->event == 0 || !index_.users_on(l).empty()) {
      continue;
    }
    sim_.cancel(slot->event);
    slot->event = 0;
  }
}

void FlowSimulator::on_capacity_change(net::LinkId link) {
  CapacitySlot& slot = capacity_slots_[link];
  const Rate capacity = std::max(slot.pending.capacity, kCapacityFloor);
  if (capacity == topo_.link(link).capacity) {
    // The process re-drew the current level; no rate can change.
    c_skipped_events_.inc();
  } else {
    topo_.mutable_link(link).capacity = capacity;
    const net::LinkId seed[1] = {link};
    reallocate_for_links(seed);
  }
  draw_capacity_change(slot);
  if (std::isinf(slot.next_time)) {
    slot.event = 0;  // quiescent: the firing event is not re-armed
  } else {
    // Re-arm the firing event in place: closure and id intact.
    sim_.reschedule_at(slot.event, slot.next_time);
  }
}

FlowId FlowSimulator::start_flow(const net::Path& path, Bytes size,
                                 const FlowOptions& options,
                                 CompletionCallback on_done) {
  IDR_REQUIRE(!path.empty(), "start_flow: empty path");
  IDR_REQUIRE(size > 0.0, "start_flow: non-positive size");
  IDR_REQUIRE(options.cap_scale > 0.0 && options.cap_scale <= 1.0,
              "start_flow: cap_scale outside (0,1]");

  FlowState f;
  f.id = ++next_id_;
  f.path = path;
  f.size = size;
  f.remaining = size;
  f.start = sim_.now();
  f.last_update = f.start;
  f.tcp = options.tcp;
  f.cap_scale = options.cap_scale;
  f.extra_cap = options.extra_cap;
  f.rtt = options.rtt > 0.0 ? options.rtt : topo_.path_rtt(path);
  IDR_REQUIRE(f.rtt > 0.0, "start_flow: zero RTT (add propagation delay)");
  if (options.ceiling_override > 0.0) {
    f.ceiling = options.ceiling_override;
  } else {
    const double loss =
        options.loss >= 0.0 ? options.loss : topo_.path_loss(path);
    f.ceiling = steady_state_ceiling(f.tcp, f.rtt, loss);
  }
  f.on_done = std::move(on_done);

  if (options.model_slow_start) {
    f.in_slow_start = true;
    f.ss_round = 0;
    f.ss_cap = slow_start_cap(f.tcp, f.rtt, 0);
    const FlowId id = f.id;
    f.ss_event = sim_.schedule_in(
        f.rtt, [this, id] { on_slow_start_round(id); },
        sim::EventKind::kSlowStart);
  }

  const FlowId id = f.id;
  const auto [it, inserted] = flows_.emplace(id, std::move(f));
  IDR_REQUIRE(inserted, "start_flow: duplicate flow id");
  wake_capacity(it->second.path.links);
  index_.ensure_links(topo_.link_count());
  index_.add(id, it->second.path.links);
  g_flows_active_.set(static_cast<double>(flows_.size()));
  reallocate_for_flow(id);
  return id;
}

void FlowSimulator::on_slow_start_round(FlowId id) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return;
  FlowState& f = it->second;
  const Rate cap_before = effective_cap(f);
  ++f.ss_round;
  f.ss_cap = slow_start_cap(f.tcp, f.rtt, f.ss_round);
  const Rate stop_at = std::min(f.ceiling, kSlowStartStopBound);
  if (f.ss_cap >= stop_at) {
    f.in_slow_start = false;  // ramp complete; ceiling governs from here
  } else {
    // Self-reschedule of the firing round event: one event per ramp, no
    // closure re-creation per round.
    sim_.reschedule_in(f.ss_event, f.rtt);
  }
  // The ramp only ever raises the effective cap. If the previous cap was
  // not binding (rate strictly below it), relaxing it further cannot
  // change any allocation — skip the recompute.
  if (f.rate < cap_before) {
    c_skipped_events_.inc();
    return;
  }
  reallocate_for_flow(id);
}

bool FlowSimulator::cancel_flow(FlowId id) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return false;
  FlowState& f = it->second;
  if (f.in_slow_start) sim_.cancel(f.ss_event);
  if (f.completion_armed) sim_.cancel(f.completion_event);
  index_.remove(id, f.path.links);
  park_capacity(f.path.links);
  // Only the departing flow's component can change; seed the recompute
  // with its links (kept alive across the erase).
  const net::Path path = std::move(f.path);
  flows_.erase(it);
  g_flows_active_.set(static_cast<double>(flows_.size()));
  reallocate_for_links(path.links);
  return true;
}

Rate FlowSimulator::current_rate(FlowId id) const {
  const auto it = flows_.find(id);
  IDR_REQUIRE(it != flows_.end(), "current_rate: unknown flow");
  return it->second.rate;
}

Bytes FlowSimulator::bytes_remaining(FlowId id) const {
  const auto it = flows_.find(id);
  IDR_REQUIRE(it != flows_.end(), "bytes_remaining: unknown flow");
  const FlowState& f = it->second;
  const Duration dt = sim_.now() - f.last_update;
  return std::max(0.0, f.remaining - f.rate * dt);
}

void FlowSimulator::set_extra_cap(FlowId id, Rate cap) {
  const auto it = flows_.find(id);
  IDR_REQUIRE(it != flows_.end(), "set_extra_cap: unknown flow");
  IDR_REQUIRE(cap >= 0.0, "set_extra_cap: negative cap");
  FlowState& f = it->second;
  if (cap == f.extra_cap) {
    c_skipped_events_.inc();
    return;
  }
  f.extra_cap = cap;
  reallocate_for_flow(id);
}

Rate FlowSimulator::effective_cap(const FlowState& f) {
  const Rate tcp_cap =
      f.in_slow_start ? std::min(f.ss_cap, f.ceiling) : f.ceiling;
  return std::min(tcp_cap * f.cap_scale, f.extra_cap);
}

void FlowSimulator::advance_flow(FlowState& f) {
  const TimePoint now = sim_.now();
  const Duration dt = now - f.last_update;
  if (dt > 0.0) {
    f.remaining = std::max(0.0, f.remaining - f.rate * dt);
  }
  f.last_update = now;
}

void FlowSimulator::arm_completion(FlowState& f) {
  if (f.rate <= 0.0) {  // parked until capacity appears
    if (f.completion_armed) {
      sim_.cancel(f.completion_event);
      f.completion_armed = false;
    }
    return;
  }
  const Duration eta = f.remaining / f.rate;
  if (f.completion_armed) {
    // The dominant churn event of the simulator: every rate change moves
    // the completion estimate. The armed event is sifted in place —
    // same id, same closure, no allocation, no tombstone.
    sim_.reschedule_in(f.completion_event, eta);
  } else {
    const FlowId id = f.id;
    f.completion_event = sim_.schedule_in(
        eta, [this, id] { on_completion(id); }, sim::EventKind::kCompletion);
    f.completion_armed = true;
  }
  c_timer_rearms_.inc();
}

void FlowSimulator::reallocate_for_flow(FlowId id) {
  const FlowId seed[1] = {id};
  index_.collect_component(
      seed, {},
      [this](FlowId u) -> const std::vector<net::LinkId>& {
        return flows_.at(u).path.links;
      },
      comp_flows_, comp_links_);
  reallocate_component();
}

void FlowSimulator::reallocate_for_links(std::span<const net::LinkId> links) {
  index_.ensure_links(topo_.link_count());
  index_.collect_component(
      {}, links,
      [this](FlowId u) -> const std::vector<net::LinkId>& {
        return flows_.at(u).path.links;
      },
      comp_flows_, comp_links_);
  reallocate_component();
}

void FlowSimulator::reallocate_component() {
  c_reallocations_.inc();
  if (comp_flows_.empty()) return;
  c_flows_touched_.inc(comp_flows_.size());

  // Canonical flow order: ascending id. The order fixes the sequence of
  // floating-point updates inside the solver, so it must not depend on
  // hash-map iteration or component discovery order.
  std::sort(comp_flows_.begin(), comp_flows_.end());

  if (local_link_.size() < topo_.link_count()) {
    local_link_.resize(topo_.link_count());
  }
  ws_.clear();
  for (std::size_t i = 0; i < comp_links_.size(); ++i) {
    local_link_[comp_links_[i]] = i;
    ws_.avail.push_back(topo_.link(comp_links_[i]).capacity);
  }
  comp_states_.clear();
  for (const FlowId id : comp_flows_) {
    FlowState& f = flows_.at(id);
    comp_states_.push_back(&f);
    ws_.add_flow(effective_cap(f));
    for (const net::LinkId l : f.path.links) ws_.add_link(local_link_[l]);
  }

  max_min_allocate(ws_);
  c_maxmin_rounds_.inc(ws_.rounds);

  for (std::size_t i = 0; i < comp_states_.size(); ++i) {
    FlowState& f = *comp_states_[i];
    const Rate rate = ws_.rate[i];
    // Rates between events are exact in the fluid model, so an exact
    // comparison is the right test: an unchanged rate means the flow's
    // byte accounting and armed completion timer are still valid.
    if (rate == f.rate) continue;
    advance_flow(f);
    f.rate = rate;
    arm_completion(f);
  }
}

void FlowSimulator::on_completion(FlowId id) {
  const auto it = flows_.find(id);
  IDR_REQUIRE(it != flows_.end(), "on_completion: unknown flow");
  FlowState& f = it->second;
  advance_flow(f);
  // The event was armed for exactly remaining/rate at the then-current
  // rate; if any event changed the rate in between, the recompute re-armed
  // it. Allow a byte of floating-point slack.
  IDR_REQUIRE(f.remaining <= 1.0 + 1e-6 * f.size,
              "on_completion: flow not actually drained");
  FlowStats stats;
  stats.id = f.id;
  stats.size = f.size;
  stats.start_time = f.start;
  stats.finish_time = sim_.now();
  if (f.in_slow_start) sim_.cancel(f.ss_event);
  CompletionCallback cb = std::move(f.on_done);
  index_.remove(id, f.path.links);
  park_capacity(f.path.links);
  const net::Path path = std::move(f.path);
  flows_.erase(it);
  g_flows_active_.set(static_cast<double>(flows_.size()));
  reallocate_for_links(path.links);
  if (cb) cb(stats);
}

}  // namespace idr::flow
