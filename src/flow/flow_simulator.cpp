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

// Relative headroom a link must keep under the summed caps of its flows
// for their component to count as cap-bound (see reallocate_component).
constexpr double kCapBoundMargin = 1e-9;

// Whether caps summing to `load` fit on a link of `capacity` with the
// cap-bound margin to spare. A non-positive capacity never fits: the
// solver rejects it, and the bypass must not hide that.
bool fits_with_margin(Rate load, Rate capacity) {
  return capacity > 0.0 && load <= capacity * (1.0 - kCapBoundMargin);
}

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
  c_solver_bypasses_ = metrics_.counter("sim.flow.solver_bypasses");
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
  c.solver_bypasses = c_solver_bypasses_.value();
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
  c.solver_bypasses = series("sim.flow.solver_bypasses");
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
  const Duration rtt = options.rtt > 0.0 ? options.rtt : topo_.path_rtt(path);
  IDR_REQUIRE(rtt > 0.0, "start_flow: zero RTT (add propagation delay)");
  const Rate ceiling =
      options.ceiling_override > 0.0
          ? options.ceiling_override
          : steady_state_ceiling(
                options.tcp, rtt,
                options.loss >= 0.0 ? options.loss : topo_.path_loss(path));

  Slot slot;
  if (free_slots_.empty()) {
    slot = static_cast<Slot>(flows_.size());
    flows_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  FlowState& f = flows_[slot];
  f.id = ++next_id_;
  f.path.links.assign(path.links.begin(), path.links.end());
  f.size = size;
  f.remaining = size;
  f.start = sim_.now();
  f.last_update = f.start;
  f.tcp = options.tcp;
  f.cap_scale = options.cap_scale;
  f.extra_cap = options.extra_cap;
  f.rtt = rtt;
  f.ceiling = ceiling;
  f.on_done = std::move(on_done);

  if (options.model_slow_start) {
    f.in_slow_start = true;
    f.ss_round = 0;
    f.ss_cap = slow_start_cap(f.tcp, f.rtt, 0);
    f.ss_next = f.start + f.rtt;
    arm_slow_start(slot, f);
  }

  const FlowId id = f.id;
  slot_of_.emplace(id, slot);
  wake_capacity(f.path.links);
  index_.ensure_links(topo_.link_count());
  index_.add(slot, f.path.links);
  g_flows_active_.set(static_cast<double>(slot_of_.size()));
  reallocate_for_flow(slot);
  return id;
}

FlowSimulator::Slot FlowSimulator::slot_of(FlowId id,
                                           const char* caller) const {
  const auto it = slot_of_.find(id);
  IDR_REQUIRE(it != slot_of_.end(), std::string(caller) + ": unknown flow");
  return it->second;
}

FlowSimulator::FlowState& FlowSimulator::state(Slot slot, FlowId id) {
  IDR_REQUIRE(slot < flows_.size() && flows_[slot].id == id,
              "FlowSimulator: event for a flow no longer in its slot");
  return flows_[slot];
}

void FlowSimulator::release(Slot slot) {
  FlowState& f = flows_[slot];
  slot_of_.erase(f.id);
  std::vector<net::LinkId> links = std::move(f.path.links);
  f = FlowState{};
  f.path.links = std::move(links);
  free_slots_.push_back(slot);
  g_flows_active_.set(static_cast<double>(slot_of_.size()));
}

void FlowSimulator::arm_slow_start(Slot slot, FlowState& f) {
  const FlowId id = f.id;
  f.ss_event = sim_.schedule_at(
      f.ss_next, [this, slot, id] { on_slow_start_round(slot, id); },
      sim::EventKind::kSlowStart);
}

void FlowSimulator::on_slow_start_round(Slot slot, FlowId id) {
  FlowState& f = state(slot, id);
  const Rate cap_before = effective_cap(f);
  step_slow_start(f);
  // The ramp only ever raises the effective cap. If the previous cap was
  // not binding (rate strictly below it), relaxing it further cannot
  // change any allocation — skip the recompute, and park the ramp: the
  // firing event is not re-armed, and the rounds after this one are
  // replayed by the next recompute that touches the flow.
  if (f.rate < cap_before) {
    f.ss_event = 0;
    c_skipped_events_.inc();
    return;
  }
  if (f.in_slow_start) {
    // Self-reschedule of the firing round event: no closure re-creation
    // per round.
    sim_.reschedule_at(f.ss_event, f.ss_next);
  } else {
    f.ss_event = 0;  // ramp complete; ceiling governs from here
  }
  // In a cap-bound component every other flow sits at its cap, and only
  // this flow's cap moved. If the new cap still fits on its own links, the
  // component stays cap-bound and a recompute would change this one rate
  // to its cap: apply that directly, without walking the component.
  if (f.cap_bound && fits_at_cap(slot, f)) {
    c_reallocations_.inc();
    c_flows_touched_.inc();
    c_solver_bypasses_.inc();
    settle(slot, f, effective_cap(f));
#ifdef IDR_CHECK_MAX_MIN
    collect_flow_component(slot);
    check_component();
#endif
    return;
  }
  reallocate_for_flow(slot);
}

bool FlowSimulator::fits_at_cap(Slot slot, const FlowState& f) const {
  const Rate cap = effective_cap(f);  // unbounded: the load is infinite
  for (const net::LinkId l : f.path.links) {
    Rate load = cap;
    for (const Slot u : index_.users_on(l)) {
      if (u != slot) load += flows_[u].rate;
    }
    if (!fits_with_margin(load, topo_.link(l).capacity)) return false;
  }
  return true;
}

void FlowSimulator::step_slow_start(FlowState& f) {
  ++f.ss_round;
  f.ss_cap = slow_start_cap(f.tcp, f.rtt, f.ss_round);
  if (f.ss_cap >= std::min(f.ceiling, kSlowStartStopBound)) {
    f.in_slow_start = false;
  } else {
    // The sum reschedule_in formed when the round fired at ss_next.
    f.ss_next += f.rtt;
  }
}

void FlowSimulator::replay_slow_start(FlowState& f) {
  while (f.in_slow_start && f.ss_event == 0 && f.ss_next < sim_.now()) {
    step_slow_start(f);
    c_skipped_events_.inc();
  }
}

bool FlowSimulator::cancel_flow(FlowId id) {
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return false;
  const Slot slot = it->second;
  FlowState& f = flows_[slot];
  replay_slow_start(f);
  if (f.ss_event != 0) sim_.cancel(f.ss_event);
  if (f.completion_armed) sim_.cancel(f.completion_event);
  index_.remove(slot, f.path.links);
  park_capacity(f.path.links);
  // Only the departing flow's component can change; seed the recompute
  // with its links, which stay in the slot until it is released.
  reallocate_for_links(f.path.links);
  release(slot);
  return true;
}

Rate FlowSimulator::current_rate(FlowId id) const {
  return flows_[slot_of(id, "current_rate")].rate;
}

Bytes FlowSimulator::bytes_remaining(FlowId id) const {
  const FlowState& f = flows_[slot_of(id, "bytes_remaining")];
  const Duration dt = sim_.now() - f.last_update;
  return std::max(0.0, f.remaining - f.rate * dt);
}

void FlowSimulator::set_extra_cap(FlowId id, Rate cap) {
  const Slot slot = slot_of(id, "set_extra_cap");
  IDR_REQUIRE(cap >= 0.0, "set_extra_cap: negative cap");
  FlowState& f = flows_[slot];
  if (cap == f.extra_cap) {
    c_skipped_events_.inc();
    return;
  }
  f.extra_cap = cap;
  reallocate_for_flow(slot);
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

void FlowSimulator::arm_completion(Slot slot, FlowState& f) {
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
        eta, [this, slot, id] { on_completion(slot, id); },
        sim::EventKind::kCompletion);
    f.completion_armed = true;
  }
  c_timer_rearms_.inc();
}

void FlowSimulator::collect_flow_component(Slot slot) {
  const Slot seed[1] = {slot};
  index_.collect_component(
      seed, {},
      [this](Slot u) -> const std::vector<net::LinkId>& {
        return flows_[u].path.links;
      },
      comp_slots_, comp_links_);
}

void FlowSimulator::reallocate_for_flow(Slot slot) {
  collect_flow_component(slot);
  reallocate_component();
}

void FlowSimulator::reallocate_for_links(std::span<const net::LinkId> links) {
  index_.ensure_links(topo_.link_count());
  index_.collect_component(
      {}, links,
      [this](Slot u) -> const std::vector<net::LinkId>& {
        return flows_[u].path.links;
      },
      comp_slots_, comp_links_);
  reallocate_component();
}

void FlowSimulator::reallocate_component() {
  c_reallocations_.inc();
  if (comp_slots_.empty()) return;
  c_flows_touched_.inc(comp_slots_.size());

  if (local_link_.size() < topo_.link_count()) {
    local_link_.resize(topo_.link_count());
  }
  ws_.clear();
  link_load_.assign(comp_links_.size(), 0.0);
  for (std::size_t i = 0; i < comp_links_.size(); ++i) {
    local_link_[comp_links_[i]] = i;
    ws_.avail.push_back(topo_.link(comp_links_[i]).capacity);
  }

  // One pass in discovery order brings parked ramps current, fills the
  // solver's workspace and sums the caps on each link. The order flows are
  // listed in does not change the solution: within a progressive-filling
  // round every flow frozen takes the same value (the round's cap or link
  // level), so each link's residual sees the same subtractions whichever
  // flow comes first.
  for (const Slot slot : comp_slots_) {
    FlowState& f = flows_[slot];
    replay_slow_start(f);
    const Rate cap = effective_cap(f);
    ws_.add_flow(cap);
    for (const net::LinkId l : f.path.links) {
      const std::size_t i = local_link_[l];
      ws_.add_link(i);
      link_load_[i] += cap;  // an unbounded cap makes the load infinite
    }
  }
  bool cap_bound = true;
  for (std::size_t i = 0; cap_bound && i < comp_links_.size(); ++i) {
    cap_bound = fits_with_margin(link_load_[i], ws_.avail[i]);
  }

  if (cap_bound) {
    // Every progressive-filling round would be a cap round. On each link
    // the caps of the flows still unfrozen sum to at most the link's
    // residual capacity less the margin, so the smallest unfrozen cap
    // never exceeds any link's equal share and freeze(f, cap[f]) assigns
    // the cap itself. The residuals the solver would compute carry a
    // rounding error of at most about k * eps * capacity after k
    // subtractions, as does the sum above: far inside 1e-9 * capacity for
    // any realistic k. So each rate is its cap, bit for bit.
    c_solver_bypasses_.inc();
  } else {
    max_min_allocate(ws_);
    c_maxmin_rounds_.inc(ws_.rounds);
  }

  // Settle, in ascending id order, the flows settle() acts on: a moved
  // rate or a parked ramp. Each re-arm takes a sequence number, and
  // sequence numbers break ties between simultaneous events, so the order
  // may not depend on slot assignment or discovery order.
  comp_settle_.clear();
  for (std::size_t i = 0; i < comp_slots_.size(); ++i) {
    const Slot slot = comp_slots_[i];
    FlowState& f = flows_[slot];
    f.cap_bound = cap_bound;
    const Rate rate = cap_bound ? ws_.cap[i] : ws_.rate[i];
    if (rate != f.rate || (f.in_slow_start && f.ss_event == 0)) {
      comp_settle_.push_back({f.id, slot, rate});
    }
  }
  std::sort(comp_settle_.begin(), comp_settle_.end(),
            [](const Settle& a, const Settle& b) { return a.id < b.id; });
  for (const Settle& s : comp_settle_) settle(s.slot, flows_[s.slot], s.rate);
#ifdef IDR_CHECK_MAX_MIN
  check_component();
#endif
}

void FlowSimulator::settle(Slot slot, FlowState& f, Rate rate) {
  // Rates between events are exact in the fluid model, so an exact
  // comparison is the right test: an unchanged rate means the flow's
  // byte accounting and armed completion timer are still valid.
  if (rate != f.rate) {
    advance_flow(f);
    f.rate = rate;
    arm_completion(slot, f);
  }
  // A parked ramp whose cap now binds steps again from its next round.
  if (f.in_slow_start && f.ss_event == 0 && !(f.rate < effective_cap(f))) {
    arm_slow_start(slot, f);
  }
}

void FlowSimulator::check_component() {
  if (local_link_.size() < topo_.link_count()) {
    local_link_.resize(topo_.link_count());
  }
  std::vector<Rate> capacities;
  for (std::size_t i = 0; i < comp_links_.size(); ++i) {
    local_link_[comp_links_[i]] = i;
    capacities.push_back(topo_.link(comp_links_[i]).capacity);
  }
  std::vector<FlowDemand> demands;
  std::vector<Rate> rates;
  for (const Slot slot : comp_slots_) {
    const FlowState& f = flows_[slot];
    FlowDemand& d = demands.emplace_back();
    d.cap = effective_cap(f);
    for (const net::LinkId l : f.path.links) d.links.push_back(local_link_[l]);
    rates.push_back(f.rate);
  }
  const std::string violation = check_max_min(capacities, demands, rates);
  IDR_REQUIRE(violation.empty(),
              std::string("FlowSimulator: rates are not max-min fair: ")
                  .append(violation));
}

void FlowSimulator::on_completion(Slot slot, FlowId id) {
  FlowState& f = state(slot, id);
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
  replay_slow_start(f);
  if (f.ss_event != 0) sim_.cancel(f.ss_event);
  CompletionCallback cb = std::move(f.on_done);
  index_.remove(slot, f.path.links);
  park_capacity(f.path.links);
  reallocate_for_links(f.path.links);
  // Released before the callback, which may start a flow in this slot.
  release(slot);
  if (cb) cb(stats);
}

}  // namespace idr::flow
