// rt_race: the real-socket stack on loopback. The origin runs on one
// reactor thread, both relays share a second, and the closed-loop client
// runs on the calling thread's reactor — three reactor threads. One probe
// race is in flight at a time (direct + 2 relay lanes), objects of
// 128-512 KiB drawn per race from the seed, 100 KB probes.
//
// The traced run adds the bulk loop — two concurrent fetches of a 4 MiB
// object, relayed through one relay and then direct — for the per-byte
// layers races barely touch (client fetch timings, relay streams, relayed
// vs direct throughput). It is not timed end to end: on a shared host its
// run-to-run spread exceeded the benchmark's bounds.
#include "workloads.hpp"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "rt/fault_shim.hpp"
#include "rt/http_client.hpp"
#include "rt/http_server.hpp"
#include "rt/probe_race.hpp"
#include "rt/relay_daemon.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace idr;

constexpr std::uint64_t kProbeBytes = 100 * 1000;
constexpr double kOpTimeoutS = 10.0;

struct Object {
  std::string path;
  std::uint64_t size = 0;
};

struct Shape {
  bool race = false;
  int concurrency = 1;
  std::vector<Object> objects;
};

Shape race_shape(const Options& o) {
  // Stratified draw: one size from each of 64 equal slices of
  // [128, 512] KiB, so the mean object (and with it the work per race)
  // barely moves between seeds while every size is seed-dependent.
  Shape shape;
  shape.race = true;
  util::Rng rng(util::child_stream(o.seed, 0x0b1ec75));
  constexpr int kObjects = 64;
  constexpr double kLo = 128 * 1024, kHi = 512 * 1024;
  for (int i = 0; i < kObjects; ++i) {
    const double slice = (kHi - kLo) / kObjects;
    const auto size =
        static_cast<std::uint64_t>(kLo + slice * (i + rng.uniform()));
    shape.objects.push_back({"/race/" + std::to_string(i), size});
  }
  return shape;
}

Shape bulk_shape(const Options& o) {
  Shape shape;
  shape.concurrency = 2;
  shape.objects.push_back({"/bulk", o.tiny ? std::uint64_t{256} * 1024
                                           : std::uint64_t{4} * 1024 * 1024});
  return shape;
}

double steady_offset_s(const rt::Reactor& r) { return now_s() - r.now(); }

/// Origin, two relays and the client reactor, with the server threads.
/// Tracers are wired before the threads start (one per reactor thread).
class Stack {
 public:
  Stack(const Shape& shape, bool traced, bool fault_truncate) {
    for (const Object& obj : shape.objects) {
      origin.add_resource(obj.path, obj.size);
    }
    origin_offset_s = steady_offset_s(origin_reactor);
    relay_offset_s = steady_offset_s(relay_reactor);
    if (traced) {
      for (obs::Tracer* t : {&origin_tracer, &relay_tracer, &client_tracer}) {
        t->set_enabled(true);
      }
      origin.set_tracer(&origin_tracer, 2, 0);
      relay_a.set_tracer(&relay_tracer, 10, 0);
      relay_b.set_tracer(&relay_tracer, 11, 0);
    }
    if (fault_truncate) {
      // Only the client dials the relays, so the rule is read from one
      // thread; uses = -1 keeps the shim's table unchanged after arming.
      for (const rt::RelayDaemon* relay : {&relay_a, &relay_b}) {
        rt::FaultShim::instance().arm(
            relay->port(), rt::FaultRule{rt::FaultKind::kTruncateBody,
                                         4096, 0.0, -1});
      }
    }
    origin_thread = std::thread([this] { loop(origin_reactor, origin_error); });
    try {
      relay_thread = std::thread([this] { loop(relay_reactor, relay_error); });
    } catch (...) {
      join();
      throw;
    }
  }

  ~Stack() {
    join();
    rt::FaultShim::instance().clear();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Stops and joins the server threads; rethrows a thread's failure.
  void stop() {
    join();
    for (const std::exception_ptr& e : {origin_error, relay_error}) {
      if (e) std::rethrow_exception(e);
    }
  }

  rt::Endpoint endpoint(std::uint16_t port) const {
    return rt::Endpoint{"127.0.0.1", port};
  }

  rt::Reactor origin_reactor, relay_reactor, client_reactor;
  // Declared before the servers, which hold pointers to them.
  obs::Tracer origin_tracer, relay_tracer, client_tracer;
  rt::HttpOriginServer origin{origin_reactor};
  rt::RelayDaemon relay_a{relay_reactor};
  rt::RelayDaemon relay_b{relay_reactor};
  /// Steady clock minus the server reactors' clocks (their spans are
  /// stamped in reactor time; the client's own spans use the steady clock).
  double origin_offset_s = 0.0, relay_offset_s = 0.0;
  std::atomic<bool> stopping{false};
  std::exception_ptr origin_error, relay_error;
  std::thread origin_thread, relay_thread;

 private:
  void join() noexcept {
    stopping.store(true, std::memory_order_release);
    if (origin_thread.joinable()) origin_thread.join();
    if (relay_thread.joinable()) relay_thread.join();
  }

  void loop(rt::Reactor& reactor, std::exception_ptr& error) {
    try {
      while (!stopping.load(std::memory_order_acquire)) reactor.poll(0.02);
    } catch (...) {
      error = std::current_exception();
    }
  }
};

struct OpResult {
  bool ok = false;
  std::string error;
  std::uint64_t bytes = 0;
  double start_s = 0.0, end_s = 0.0;  // steady clock
  // rt_race
  double probe_s = 0.0, remainder_s = 0.0;
  bool indirect = false;
  std::size_t retries = 0, lanes_failed = 0;
  // bulk loop
  double first_byte_s = 0.0, stream_s = 0.0;

  double latency_s() const { return end_s - start_s; }
};

/// Completions per round: ~0.3-0.4 s of races.
constexpr std::size_t kRoundOps = 128;

/// A slice of a timed window: kRoundOps consecutive completions.
struct Round {
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process user + sys over the round
  double bytes = 0.0;  // verified payload completed in the round
};

/// Reports ops_per_s, MB_per_s and cpu_ms_per_op as the median over the
/// window's rounds, and op_p50_ms and op_p90_ms over every op of the
/// window. The median round rides out a stretch in which neighbours on a
/// shared host slow the run without discarding the rounds that hold the
/// program's own slow ops; the percentiles keep every op.
void report_rounds(Report& report, const std::vector<Round>& rounds,
                   const std::vector<double>& op_s) {
  std::vector<double> rate, mb_per_s, cpu_ms_per_op;
  for (const Round& r : rounds) {
    rate.push_back(ratio(static_cast<double>(kRoundOps), r.wall_s));
    mb_per_s.push_back(ratio(r.bytes / 1e6, r.wall_s));
    cpu_ms_per_op.push_back(ratio(r.cpu_s * 1e3, kRoundOps));
  }
  std::fprintf(stderr,
               "perfbench: %zu rounds, %zu ops; median round %.2f ops/s "
               "(slowest %.2f, fastest %.2f)\n",
               rounds.size(), op_s.size(), median(rate),
               rate.empty() ? 0.0 : *std::min_element(rate.begin(), rate.end()),
               rate.empty() ? 0.0 : *std::max_element(rate.begin(), rate.end()));
  report_quantile(report, "op_p50_ms", op_s, 0.5, 1e3, "ms");
  report_quantile(report, "op_p90_ms", op_s, 0.9, 1e3, "ms");
  if (rounds.empty()) report.error("timed window completed no whole round");
  report.metric("ops_per_s", median(rate), "1/s");
  report.metric("MB_per_s", median(mb_per_s), "MB/s");
  report.metric("cpu_ms_per_op", median(cpu_ms_per_op), "ms");
}

/// Registries whose windowed deltas give the per-op layer counts.
struct Counters {
  obs::Snapshot origin_reactor, relay_reactor, client_reactor, relays, origin;

  static Counters read(const Stack& s) {
    Counters c;
    c.origin_reactor = s.origin_reactor.metrics().snapshot();
    c.relay_reactor = s.relay_reactor.metrics().snapshot();
    c.client_reactor = s.client_reactor.metrics().snapshot();
    c.relays = s.relay_a.metrics().snapshot();
    c.relays.merge(s.relay_b.metrics().snapshot());
    c.origin = s.origin.metrics().snapshot();
    return c;
  }

  Counters since(const Counters& e) const {
    return Counters{origin_reactor.diff(e.origin_reactor),
                    relay_reactor.diff(e.relay_reactor),
                    client_reactor.diff(e.client_reactor), relays.diff(e.relays),
                    origin.diff(e.origin)};
  }
};

struct ThreadCpu {
  double origin = 0.0, relay = 0.0, client = 0.0, process = 0.0;

  static ThreadCpu read(Stack& s) {
    return ThreadCpu{
        thread_cpu_s(static_cast<unsigned long>(s.origin_thread.native_handle())),
        thread_cpu_s(static_cast<unsigned long>(s.relay_thread.native_handle())),
        thread_cpu_s(static_cast<unsigned long>(::pthread_self())),
        process_cpu_s()};
  }
};

/// A closed-loop window: `concurrency` ops in flight, each completion
/// issuing the next until `seconds` have passed; in-flight ops then
/// finish and count.
struct Phase {
  std::vector<OpResult> ops;
  /// Every kRoundOps consecutive completions (a trailing partial round,
  /// where the loop drains, is left out).
  std::vector<Round> rounds;
  double wall_s = 0.0;
  ThreadCpu cpu;  // deltas over the window
  Counters counters;

  std::size_t failed() const {
    std::size_t n = 0;
    for (const OpResult& op : ops) n += op.ok ? 0 : 1;
    return n;
  }
  double ops_per_s() const {
    return ratio(static_cast<double>(ops.size()), wall_s);
  }
  double mb_per_s() const {
    double bytes = 0.0;
    for (const OpResult& op : ops) bytes += op.ok ? op.bytes : 0;
    return ratio(bytes / 1e6, wall_s);
  }
  std::vector<double> samples(double OpResult::*field) const {
    std::vector<double> v;
    for (const OpResult& op : ops) v.push_back(op.*field);
    return v;
  }
};

class ClosedLoop {
 public:
  ClosedLoop(Stack& stack, const Shape& shape, util::Rng& pick,
             bool relayed, bool traced)
      : stack_(stack), shape_(shape), pick_(pick), relayed_(relayed),
        traced_(traced) {}

  Phase run(double seconds, std::size_t max_ops = SIZE_MAX) {
    Phase phase;
    const Counters c0 = Counters::read(stack_);
    const ThreadCpu cpu0 = ThreadCpu::read(stack_);
    const double t0 = now_s();
    deadline_ = t0 + seconds;
    max_ops_ = max_ops;
    phase_ = &phase;
    round_start_s_ = t0;
    round_cpu_s_ = cpu0.process;
    for (int i = 0; i < shape_.concurrency && issued_ < max_ops_; ++i) issue();
    const double give_up = deadline_ + 3 * kOpTimeoutS;
    while (inflight_ > 0 && now_s() < give_up) {
      stack_.client_reactor.poll(0.05);
    }
    if (inflight_ > 0) {
      throw std::runtime_error("closed loop: ops still in flight after " +
                               std::to_string(3 * kOpTimeoutS) +
                               " s past the window");
    }
    phase.wall_s = now_s() - t0;
    const ThreadCpu cpu1 = ThreadCpu::read(stack_);
    phase.cpu = ThreadCpu{cpu1.origin - cpu0.origin, cpu1.relay - cpu0.relay,
                          cpu1.client - cpu0.client,
                          cpu1.process - cpu0.process};
    phase.counters = Counters::read(stack_).since(c0);
    phase_ = nullptr;
    issued_ = 0;
    return phase;
  }

 private:
  void issue() {
    ++inflight_;
    ++issued_;
    const Object& obj =
        shape_.objects[static_cast<std::size_t>(pick_.uniform_int(
            0, static_cast<std::int64_t>(shape_.objects.size()) - 1))];
    const obs::TraceContext trace =
        traced_ ? obs::make_trace_context(pick_) : obs::TraceContext{};
    const double start = now_s();
    if (shape_.race) {
      rt::RaceSpec spec;
      spec.origin = stack_.endpoint(stack_.origin.port());
      spec.path = obj.path;
      spec.resource_size = obj.size;
      spec.probe_bytes = kProbeBytes;
      spec.relays = {stack_.endpoint(stack_.relay_a.port()),
                     stack_.endpoint(stack_.relay_b.port())};
      spec.timeout_s = kOpTimeoutS;
      spec.trace = trace;
      rt::start_probe_race(
          stack_.client_reactor, spec,
          [this, start, trace, size = obj.size](const rt::RaceResult& r) {
            OpResult op;
            op.ok = r.ok && r.body_verified && r.total_bytes == size;
            op.error = r.ok ? (r.body_verified ? "short body"
                                               : "body not verified")
                            : r.error;
            op.bytes = r.total_bytes;
            op.probe_s = r.probe_elapsed;
            op.remainder_s = r.total_elapsed - r.probe_elapsed;
            op.indirect = r.chose_indirect;
            op.retries = r.retries;
            op.lanes_failed = r.probe_failures;
            finish(std::move(op), start, trace);
          });
    } else {
      rt::FetchRequest req;
      req.origin = stack_.endpoint(stack_.origin.port());
      req.path = obj.path;
      if (relayed_) req.proxy = stack_.endpoint(stack_.relay_a.port());
      req.timeout_s = kOpTimeoutS;
      req.trace = trace;
      rt::fetch(stack_.client_reactor, req,
                [this, start, trace, size = obj.size](const rt::FetchResult& r) {
                  OpResult op;
                  op.ok = r.ok && r.status == 200 && r.body_verified &&
                          r.body_bytes == size;
                  op.error = r.ok ? (r.body_verified ? "bad status or size"
                                                     : "body not verified")
                                  : r.error;
                  op.bytes = r.body_bytes;
                  op.first_byte_s = r.first_byte_time - r.start_time;
                  op.stream_s = r.finish_time - r.first_byte_time;
                  finish(std::move(op), start, trace);
                });
    }
  }

  void finish(OpResult op, double start, obs::TraceContext trace) {
    op.start_s = start;
    op.end_s = now_s();
    if (traced_) {
      obs::TraceEvent ev;
      ev.name = shape_.race ? "client.race" : "client.fetch";
      ev.category = "perfbench";
      ev.ts_us = start * 1e6;
      ev.dur_us = (op.end_s - start) * 1e6;
      ev.trace_id = trace.trace_id;
      ev.span_id = trace.span_id;
      stack_.client_tracer.append(std::move(ev));
    }
    phase_->ops.push_back(std::move(op));
    if (phase_->ops.size() % kRoundOps == 0) close_round();
    --inflight_;
    if (now_s() < deadline_ && issued_ < max_ops_) issue();
  }

  void close_round() {
    const double now = now_s();
    const double cpu = process_cpu_s();
    Round round;
    round.wall_s = now - round_start_s_;
    round.cpu_s = cpu - round_cpu_s_;
    for (std::size_t i = phase_->ops.size() - kRoundOps;
         i < phase_->ops.size(); ++i) {
      const OpResult& op = phase_->ops[i];
      round.bytes += op.ok ? static_cast<double>(op.bytes) : 0.0;
    }
    phase_->rounds.push_back(std::move(round));
    round_start_s_ = now;
    round_cpu_s_ = cpu;
  }

  Stack& stack_;
  const Shape& shape_;
  util::Rng& pick_;
  bool relayed_;
  bool traced_;
  Phase* phase_ = nullptr;
  double deadline_ = 0.0;
  double round_start_s_ = 0.0;
  double round_cpu_s_ = 0.0;
  std::size_t max_ops_ = SIZE_MAX;
  std::size_t issued_ = 0;
  int inflight_ = 0;
};

void check_ops(const Phase& phase, const char* what, Report& report) {
  for (const OpResult& op : phase.ops) {
    if (!op.ok) {
      report.error(std::string(what) + " op failed: " + op.error);
      return;
    }
  }
}

/// Cold start through the first completed op, repeated; returns the last
/// stack (warm) for the timed window.
std::unique_ptr<Stack> cold_starts(const Options& o, const Shape& shape,
                                   util::Rng& pick, int reps,
                                   std::vector<double>& setup_s,
                                   Report& report) {
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < reps; ++i) {
    stack.reset();
    const double t0 = now_s();
    stack = std::make_unique<Stack>(shape, false, o.fault_truncate);
    const Phase first =
        ClosedLoop(*stack, shape, pick, true, false).run(0.0, 1);
    setup_s.push_back(now_s() - t0);
    check_ops(first, "set-up", report);
  }
  return stack;
}

/// Per-hop span durations (traced stack) and the client's self time: its
/// op span minus the part the relay and origin spans of the same trace
/// cover, all on the steady clock.
void report_hops(const Stack& s, Report& r) {
  const std::vector<obs::TraceEvent> relay = s.relay_tracer.events();
  const std::vector<obs::TraceEvent> origin = s.origin_tracer.events();
  const std::vector<obs::TraceEvent> client = s.client_tracer.events();
  const auto p50 = [&](const std::vector<obs::TraceEvent>& ev,
                       const char* span, const char* name, double scale,
                       const char* unit) {
    report_quantile(r, name, span_durations_us(ev, span), 0.5, scale, unit);
  };
  p50(relay, "relay.parse", "hop.relay_parse_us_p50", 1.0, "us");
  p50(relay, "relay.upstream_connect", "hop.relay_upstream_connect_us_p50",
      1.0, "us");
  p50(origin, "origin.parse", "hop.origin_parse_us_p50", 1.0, "us");
  p50(origin, "origin.stream", "hop.origin_stream_ms_p50", 1e-3, "ms");

  // relay.first_byte is an instant: the wait from the forwarded request
  // (upstream connect done) to the origin's first response byte.
  std::map<std::pair<std::uint64_t, std::uint64_t>, double> connected_us;
  for (const obs::TraceEvent& e : relay) {
    if (e.phase == 'X' && e.name == "relay.upstream_connect") {
      connected_us[{e.trace_id, e.parent_span}] = e.ts_us + e.dur_us;
    }
  }
  std::vector<double> first_byte_us;
  for (const obs::TraceEvent& e : relay) {
    if (e.phase != 'i' || e.name != "relay.first_byte") continue;
    const auto it = connected_us.find({e.trace_id, e.parent_span});
    if (it != connected_us.end()) first_byte_us.push_back(e.ts_us - it->second);
  }
  report_quantile(r, "hop.relay_first_byte_us_p50", first_byte_us, 0.5, 1.0,
                  "us");

  std::map<std::uint64_t, std::vector<std::pair<double, double>>> servers;
  const auto collect = [&](const std::vector<obs::TraceEvent>& ev,
                           double offset_s) {
    for (const obs::TraceEvent& e : ev) {
      if (e.phase != 'X' || e.trace_id == 0) continue;
      const double start = e.ts_us * 1e-6 + offset_s;
      servers[e.trace_id].emplace_back(start, start + e.dur_us * 1e-6);
    }
  };
  collect(relay, s.relay_offset_s);
  collect(origin, s.origin_offset_s);
  std::vector<double> self_s;
  for (const obs::TraceEvent& e : client) {
    const double start = e.ts_us * 1e-6;
    const double end = start + e.dur_us * 1e-6;
    self_s.push_back(self_time(start, end, servers[e.trace_id]));
  }
  report_quantile(r, "client.self_ms_p50", self_s, 0.5, 1e3, "ms");
}

void report_layers(const Phase& a, const Phase& traced,
                   const Stack& traced_stack, Report& r) {
  const auto ops = static_cast<double>(a.ops.size());
  const auto per_op = [&](double v) { return ratio(v, ops); };
  const auto count = [](const obs::Snapshot& s, const char* name) {
    const obs::MetricValue* m = s.find(name);
    return m != nullptr ? static_cast<double>(m->count) : 0.0;
  };
  const Counters& c = a.counters;

  r.metric("origin.cpu_ms_per_op", per_op(a.cpu.origin * 1e3), "ms");
  r.metric("relay.cpu_ms_per_op", per_op(a.cpu.relay * 1e3), "ms");
  r.metric("client.cpu_ms_per_op", per_op(a.cpu.client * 1e3), "ms");

  double polls = 0.0, dispatches = 0.0, timers = 0.0;
  const std::pair<const char*, const obs::Snapshot*> roles[] = {
      {"origin", &c.origin_reactor},
      {"relay", &c.relay_reactor},
      {"client", &c.client_reactor}};
  for (const auto& [role, snap] : roles) {
    const double p = count(*snap, "rt.reactor.polls");
    const double d = count(*snap, "rt.reactor.io_dispatches");
    const double t = count(*snap, "rt.reactor.timers_scheduled");
    const std::string prefix = std::string("reactor.") + role;
    r.metric(prefix + ".polls_per_op", per_op(p), "count");
    r.metric(prefix + ".dispatches_per_op", per_op(d), "count");
    r.metric(prefix + ".timers_per_op", per_op(t), "count");
    polls += p;
    dispatches += d;
    timers += t;
  }
  r.metric("reactor.polls_per_op", per_op(polls), "count");
  r.metric("reactor.dispatches_per_op", per_op(dispatches), "count");
  r.metric("reactor.timers_per_op", per_op(timers), "count");

  r.metric("relay.upstream_connects_per_op",
           per_op(count(c.relays, "rt.relay.upstream_connects")), "count");
  r.metric("relay.requests_parsed_per_op",
           per_op(count(c.relays, "rt.relay.requests_parsed")), "count");
  r.metric("relay.bytes_forwarded_per_op",
           per_op(count(c.relays, "rt.relay.bytes_forwarded")), "bytes");
  if (const obs::MetricValue* h = c.relays.find("rt.relay.forward_chunk_bytes");
      h != nullptr && h->count >= 20) {
    r.metric("relay.forward_chunk_p50_bytes",
             obs::histogram_percentile(*h, 0.5), "bytes");
  } else {
    r.error("relay.forward_chunk_p50_bytes: fewer than 20 forwarded chunks");
  }
  r.metric("origin.requests_per_op",
           per_op(count(c.origin, "rt.origin.requests_served")), "count");
  r.metric("origin.response_bytes_per_op",
           per_op(count(c.origin, "rt.origin.bytes_sent")), "bytes");

  report_quantile(r, "race.probe_ms_p50", a.samples(&OpResult::probe_s), 0.5,
                  1e3, "ms");
  report_quantile(r, "race.remainder_ms_p50",
                  a.samples(&OpResult::remainder_s), 0.5, 1e3, "ms");
  double indirect = 0.0, retries = 0.0, lanes_failed = 0.0;
  for (const OpResult& op : a.ops) {
    indirect += op.indirect ? 1.0 : 0.0;
    retries += static_cast<double>(op.retries);
    lanes_failed += static_cast<double>(op.lanes_failed);
  }
  r.metric("race.indirect_frac", per_op(indirect), "ratio");
  r.metric("race.retries_per_op", per_op(retries), "count");
  r.metric("race.lanes_failed", lanes_failed, "count");

  report_hops(traced_stack, r);
  r.metric("obs.trace_overhead", ratio(a.ops_per_s(), traced.ops_per_s()),
           "ratio");
}

/// The bulk loop's per-byte layers: client fetch timings (relayed),
/// relayed over direct throughput, and the relay's stream span (race
/// lanes through a relay nearly always lose to the direct lane and are
/// cancelled mid-probe, so races complete too few relay streams).
void report_bulk_layers(const Phase& relayed, const Phase& direct,
                        const Stack& s, Report& r) {
  report_quantile(r, "fetch.first_byte_ms_p50",
                  relayed.samples(&OpResult::first_byte_s), 0.5, 1e3, "ms");
  report_quantile(r, "fetch.stream_ms_p50",
                  relayed.samples(&OpResult::stream_s), 0.5, 1e3, "ms");
  r.metric("relay.relayed_over_direct",
           ratio(relayed.mb_per_s(), direct.mb_per_s()), "ratio");
  report_quantile(r, "hop.relay_stream_ms_p50",
                  span_durations_us(s.relay_tracer.events(), "relay.stream"),
                  0.5, 1e-3, "ms");
}

}  // namespace

void run_rt_workload(const Options& o, Report& report) {
  const Shape shape = race_shape(o);
  util::Rng pick(util::child_stream(o.seed, 0x9ec7));
  const double warmup_s = o.tiny ? 0.1 : 0.5;

  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack =
      cold_starts(o, shape, pick, o.trace ? 1 : (o.tiny ? 2 : 51), setup_s,
                  report);
  check_ops(ClosedLoop(*stack, shape, pick, true, false).run(warmup_s),
            "warm-up", report);

  if (!o.trace) {
    const Phase w = ClosedLoop(*stack, shape, pick, true, false).run(o.seconds);
    stack->stop();
    report.count_ops(w.ops.size(), w.failed());
    check_ops(w, "timed", report);
    std::vector<double> latency_s;
    for (const OpResult& op : w.ops) latency_s.push_back(op.latency_s());
    report_rounds(report, w.rounds, latency_s);
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_MB", peak_rss_mb(), "MB");
    return;
  }

  // Traced run, four equal windows: races untraced, races on a traced
  // stack, then the bulk loop relayed and direct on a traced stack.
  const double share = o.seconds / 4;
  const Phase plain = ClosedLoop(*stack, shape, pick, true, false).run(share);
  stack->stop();
  stack.reset();

  const auto warm_traced_stack = [&](const Shape& sh) {
    auto s = std::make_unique<Stack>(sh, true, o.fault_truncate);
    check_ops(ClosedLoop(*s, sh, pick, true, true).run(warmup_s),
              "traced warm-up", report);
    for (obs::Tracer* t : {&s->origin_tracer, &s->relay_tracer,
                           &s->client_tracer}) {
      t->clear();  // mutex-guarded; the server threads may still append
    }
    return s;
  };
  const std::unique_ptr<Stack> traced_stack = warm_traced_stack(shape);
  const Phase traced =
      ClosedLoop(*traced_stack, shape, pick, true, true).run(share);
  traced_stack->stop();

  const Shape bulk = bulk_shape(o);
  const std::unique_ptr<Stack> bulk_stack = warm_traced_stack(bulk);
  const Phase relayed =
      ClosedLoop(*bulk_stack, bulk, pick, true, true).run(share);
  const Phase direct =
      ClosedLoop(*bulk_stack, bulk, pick, false, true).run(share);
  bulk_stack->stop();

  std::size_t attempted = 0, failed = 0;
  for (const auto& [phase, what] :
       {std::pair{&plain, "untraced"}, std::pair{&traced, "traced"},
        std::pair{&relayed, "bulk relayed"}, std::pair{&direct, "bulk direct"}}) {
    attempted += phase->ops.size();
    failed += phase->failed();
    check_ops(*phase, what, report);
  }
  report.count_ops(attempted, failed);
  report_layers(plain, traced, *traced_stack, report);
  report_bulk_layers(relayed, direct, *bulk_stack, report);
}

}  // namespace perfbench
