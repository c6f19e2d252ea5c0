// Span tracing with pluggable clock domains.
//
// Both stacks emit the same span vocabulary (probe_race, probe_lane,
// remainder, fallback, reactor.poll, timer.reap, admission, ...) but stamp
// time from different clocks: the simulator's virtual seconds or the rt
// stack's steady_clock. TraceClock type-erases "now in microseconds" as a
// {function pointer, context} pair so the Tracer itself never links
// against either clock source.
//
// The Tracer is a sink, not a sampler: callers compute timestamps (from a
// TraceClock or explicitly) and append complete ('X') or instant ('i')
// events. Appends are mutex-guarded — testbed sessions run on
// parallel_map worker threads — behind a relaxed atomic enabled flag, so
// a disabled tracer costs one load. A null Tracer* costs one branch.
//
// Export is Chrome trace_event JSON ({"traceEvents":[...]}): load the
// file in chrome://tracing or Perfetto. `track` maps to the Chrome tid,
// giving each testbed session (or rt thread) its own row.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace idr::obs {

/// Identity of one cross-hop transfer: a 64-bit trace id shared by every
/// span the transfer produces (client, relay, origin) plus the span id of
/// the current hop. Ids are drawn from the seeded util RNG streams — sim
/// traces replay bitwise — and zero means "no context" everywhere, so a
/// default-constructed TraceContext is inert.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  bool valid() const { return trace_id != 0; }

  /// Child context: same trace, span id derived from this span id and a
  /// caller-chosen salt via the repo-wide child_stream rule. Deterministic
  /// and collision-free across the salts one race uses.
  TraceContext child(std::uint64_t salt) const {
    std::uint64_t id = util::child_stream(span_id, salt);
    if (id == 0) id = 1;  // keep "zero = absent" unambiguous
    return TraceContext{trace_id, id};
  }
};

/// Fresh root context from an RNG stream (two draws, both forced nonzero).
TraceContext make_trace_context(util::Rng& rng);

/// 16-digit lowercase hex, zero padded — the id wire format shared by the
/// traceparent header and the Chrome export.
std::string trace_hex(std::uint64_t id);

/// Type-erased monotonic "now" in microseconds.
struct TraceClock {
  using NowFn = double (*)(const void*);
  NowFn fn = nullptr;
  const void* ctx = nullptr;

  double now_us() const { return fn != nullptr ? fn(ctx) : 0.0; }
  bool valid() const { return fn != nullptr; }

  /// Wall time from std::chrono::steady_clock, origin at first use.
  static TraceClock steady();
};

struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'X';          // 'X' complete, 'i' instant, 's'/'t'/'f' flow
                             // binds, 'M' metadata
  std::uint64_t pid = 1;     // Chrome pid: one box per role (client/relay/
                             // origin); 1 everywhere pre-existing callers
                             // don't care
  std::uint64_t track = 0;   // Chrome tid: one row per session/thread
  double ts_us = 0.0;
  double dur_us = 0.0;       // complete events only
  std::uint64_t flow_id = 0;     // 's'/'t'/'f' events: the flow being bound
  std::uint64_t trace_id = 0;    // cross-hop identity, folded into args
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  std::string args_json;     // pre-rendered JSON object, may be empty
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends a complete span [ts_us, ts_us + dur_us). No-op when disabled.
  /// `args_json`, if non-empty, must be a rendered JSON object and is
  /// embedded verbatim as the event's "args".
  void complete(std::string_view name, std::string_view category,
                std::uint64_t track, double ts_us, double dur_us,
                std::string args_json = {});

  /// Appends a zero-duration instant event. No-op when disabled.
  void instant(std::string_view name, std::string_view category,
               std::uint64_t track, double ts_us,
               std::string args_json = {});

  /// Appends a fully caller-built event (pid, trace ids, flow id, ...).
  /// No-op when disabled.
  void append(TraceEvent ev);

  /// Appends a flow-bind event: 's' starts a flow, 't' continues it on
  /// another row, 'f' finishes it (bound to the enclosing slice). The
  /// flow_id links binds across pids/tracks — we use the trace id, so one
  /// transfer renders as a single arrowed chain in Perfetto.
  void flow(char phase, std::string_view name, std::string_view category,
            std::uint64_t pid, std::uint64_t track, double ts_us,
            std::uint64_t flow_id);

  /// Chrome 'M' metadata: names the pid box / tid row in the viewer.
  void set_process_name(std::uint64_t pid, std::string_view name);
  void set_thread_name(std::uint64_t pid, std::uint64_t track,
                       std::string_view name);

  std::size_t size() const;
  std::vector<TraceEvent> events() const;  // copy, for tests
  void clear();

  /// Counts events whose name matches exactly (e.g. "probe_race"), for
  /// acceptance checks without parsing the export.
  std::size_t count_spans(std::string_view name) const;

  /// {"traceEvents":[...]} — chrome://tracing / Perfetto loadable.
  /// Events are listed by (pid, track, start time), ties in append order,
  /// so the bytes do not depend on which worker thread finished first.
  std::string to_chrome_json() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

/// RAII span for wall-clock code paths: captures the clock at
/// construction, emits one complete event at destruction. Null tracer or
/// disabled tracer makes it free apart from the enabled() load.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(Tracer* tracer, TraceClock clock, std::string_view name,
             std::string_view category, std::uint64_t track)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        clock_(clock),
        name_(tracer_ != nullptr ? std::string(name) : std::string()),
        category_(tracer_ != nullptr ? std::string(category)
                                     : std::string()),
        track_(track),
        start_us_(tracer_ != nullptr ? clock.now_us() : 0.0) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->complete(name_, category_, track_, start_us_,
                        clock_.now_us() - start_us_);
    }
  }

 private:
  Tracer* tracer_ = nullptr;
  TraceClock clock_;
  std::string name_;
  std::string category_;
  std::uint64_t track_ = 0;
  double start_us_ = 0.0;
};

}  // namespace idr::obs
