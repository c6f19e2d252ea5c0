#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>

#include "obs/json.hpp"

namespace idr::obs {

namespace {

double steady_now_us(const void*) {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

}  // namespace

TraceClock TraceClock::steady() {
  // Touch the origin now so the epoch is construction time, not the time
  // of the first span.
  (void)steady_now_us(nullptr);
  return TraceClock{&steady_now_us, nullptr};
}

TraceContext make_trace_context(util::Rng& rng) {
  TraceContext ctx;
  do {
    ctx.trace_id = rng.engine()();
  } while (ctx.trace_id == 0);
  do {
    ctx.span_id = rng.engine()();
  } while (ctx.span_id == 0);
  return ctx;
}

std::string trace_hex(std::uint64_t id) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[id & 0xF];
    id >>= 4;
  }
  return out;
}

void Tracer::complete(std::string_view name, std::string_view category,
                      std::uint64_t track, double ts_us, double dur_us,
                      std::string args_json) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = std::string(name);
  ev.category = std::string(category);
  ev.phase = 'X';
  ev.track = track;
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.args_json = std::move(args_json);
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(ev));
}

void Tracer::instant(std::string_view name, std::string_view category,
                     std::uint64_t track, double ts_us,
                     std::string args_json) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = std::string(name);
  ev.category = std::string(category);
  ev.phase = 'i';
  ev.track = track;
  ev.ts_us = ts_us;
  ev.args_json = std::move(args_json);
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(ev));
}

void Tracer::append(TraceEvent ev) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(ev));
}

void Tracer::flow(char phase, std::string_view name,
                  std::string_view category, std::uint64_t pid,
                  std::uint64_t track, double ts_us,
                  std::uint64_t flow_id) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = std::string(name);
  ev.category = std::string(category);
  ev.phase = phase;
  ev.pid = pid;
  ev.track = track;
  ev.ts_us = ts_us;
  ev.flow_id = flow_id;
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(ev));
}

void Tracer::set_process_name(std::uint64_t pid, std::string_view name) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = "process_name";
  ev.phase = 'M';
  ev.pid = pid;
  ev.args_json = "{\"name\":";
  json_append_string(ev.args_json, name);
  ev.args_json += '}';
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(ev));
}

void Tracer::set_thread_name(std::uint64_t pid, std::uint64_t track,
                             std::string_view name) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = "thread_name";
  ev.phase = 'M';
  ev.pid = pid;
  ev.track = track;
  ev.args_json = "{\"name\":";
  json_append_string(ev.args_json, name);
  ev.args_json += '}';
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(ev));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
}

std::size_t Tracer::count_spans(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const TraceEvent& ev : events_) {
    if (ev.name == name) ++n;
  }
  return n;
}

namespace {

// Folds the cross-hop ids into the event's args object (splicing into a
// pre-rendered args_json when both are present) so the viewer shows them
// on span selection. Returns "" when the event carries neither.
std::string render_args(const TraceEvent& ev) {
  std::string args = ev.args_json;
  if (ev.trace_id == 0) return args;
  std::string ids = "\"trace_id\":\"" + trace_hex(ev.trace_id) +
                    "\",\"span_id\":\"" + trace_hex(ev.span_id) + '"';
  if (ev.parent_span != 0) {
    ids += ",\"parent_span_id\":\"" + trace_hex(ev.parent_span) + '"';
  }
  if (args.size() < 2) return '{' + ids + '}';
  if (args.size() == 2) return '{' + ids + '}';  // args was "{}"
  args.insert(args.size() - 1, ',' + ids);
  return args;
}

}  // namespace

std::string Tracer::to_chrome_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Parallel workers append in completion order; dump in (pid, track,
  // start) order instead, ties kept in append order. Each track is written
  // by one thread, so the bytes no longer depend on worker scheduling.
  std::vector<const TraceEvent*> order;
  order.reserve(events_.size());
  for (const TraceEvent& ev : events_) order.push_back(&ev);
  std::stable_sort(order.begin(), order.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     if (a->pid != b->pid) return a->pid < b->pid;
                     if (a->track != b->track) return a->track < b->track;
                     return a->ts_us < b->ts_us;
                   });
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent* e : order) {
    const TraceEvent& ev = *e;
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":";
    json_append_string(out, ev.name);
    out += ",\"cat\":";
    json_append_string(out, ev.category);
    out += ",\"ph\":\"";
    out += ev.phase;
    out += "\",\"pid\":" + std::to_string(ev.pid);
    out += ",\"tid\":" + std::to_string(ev.track);
    out += ",\"ts\":";
    json_append_double(out, ev.ts_us);
    if (ev.phase == 'X') {
      out += ",\"dur\":";
      json_append_double(out, ev.dur_us);
    }
    if (ev.phase == 'i') out += ",\"s\":\"t\"";
    if (ev.phase == 's' || ev.phase == 't' || ev.phase == 'f') {
      out += ",\"id\":\"0x" + trace_hex(ev.flow_id) + '"';
      // Bind the finish to the enclosing slice so the arrow lands on the
      // final span instead of a synthetic point.
      if (ev.phase == 'f') out += ",\"bp\":\"e\"";
    }
    std::string args = render_args(ev);
    if (!args.empty()) out += ",\"args\":" + args;
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

}  // namespace idr::obs
