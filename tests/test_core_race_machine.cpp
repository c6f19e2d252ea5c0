// core::RaceMachine through a fake driver (scripted attempt outcomes, the
// exact command sequence asserted), then the same fault scenarios through
// both real drivers: the simulated stack's TransferEngine fault plane and
// the socket stack's FaultShim / closed ports must reach the same verdict.
#include "core/race_machine.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/probe_race.hpp"
#include "rt/fault_shim.hpp"
#include "rt/http_server.hpp"
#include "rt/probe_race.hpp"
#include "rt/relay_daemon.hpp"

namespace idr::core {
namespace {

using Log = std::vector<std::string>;

std::string describe(const Attempt& a) {
  static const char* const kKinds[] = {"probe", "remainder",
                                       "direct_remainder", "fallback",
                                       "pinned"};
  std::string s = std::string(kKinds[static_cast<int>(a.kind)]) + " " +
                  std::to_string(a.lane);
  if (a.retry > 0) s += "#" + std::to_string(a.retry);
  return s;
}

/// Records every command the machine issues, in order.
class FakeDriver final : public RaceDriver {
 public:
  Log log;
  std::optional<RaceVerdict> verdict;

  void start_attempt(const Attempt& a) override {
    log.push_back("start " + describe(a));
  }
  void cancel_lane(std::size_t lane) override {
    log.push_back("cancel " + std::to_string(lane));
  }
  void arm_timer(double delay) override {
    char buf[32];
    std::snprintf(buf, sizeof buf, "arm %g", delay);
    log.push_back(buf);
  }
  void cancel_timer() override { log.push_back("disarm"); }
  util::Rng& backoff_rng() override {
    log.push_back("rng");
    return rng_;
  }
  std::int64_t relay_id(std::size_t lane) const override {
    return 100 + static_cast<std::int64_t>(lane);
  }
  void finish(const RaceVerdict& v) override {
    log.push_back(v.ok ? "finish ok" : "finish error");
    verdict = v;
  }

 private:
  util::Rng rng_{7};
};

constexpr RaceStack kTestStack{"test", {1e-3, 1e3, 4}, {1e-1, 1e5, 4}};

AttemptResult ok_at(double now) {
  AttemptResult r;
  r.ok = true;
  r.now = now;
  return r;
}

AttemptResult failed_at(double now, bool overloaded = false,
                        double retry_after = 0.0) {
  AttemptResult r;
  r.now = now;
  r.overloaded = overloaded;
  r.retry_after = retry_after;
  r.error = overloaded ? "503" : "reset";
  return r;
}

Attempt probe(std::size_t lane) { return {AttemptKind::Probe, lane, 0}; }

/// Two candidate relays (lanes 1, 2), a 1000-byte file, 100-byte probes,
/// jitter-free backoff so every delay is exact. The race starts at t=10.
struct Harness {
  obs::Registry registry;
  obs::FlightRecorder flights;
  FakeDriver driver;
  RaceConfig config;
  std::optional<RaceMachine> machine;

  Harness() {
    config.stack = &kTestStack;
    config.relays = 2;
    config.file_bytes = 1000;
    config.probe_bytes = 100;
    config.retry.jitter_frac = 0.0;
    config.metrics = &registry;
    config.flights = &flights;
    config.flight_peer = "/f";
  }

  RaceMachine& start() {
    machine.emplace(config, driver, 10.0);
    machine->start();
    return *machine;
  }

  std::uint64_t counter(const std::string& name) const {
    const obs::Snapshot snap = registry.snapshot();
    const obs::MetricValue* v = snap.find(name);
    return v == nullptr ? 0 : v->count;
  }
};

const Log kThreeProbes = {"start probe 0", "start probe 1", "start probe 2"};

Log concat(Log a, const Log& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

TEST(RaceMachine, CleanWinCancelsLosersAndFetchesTheRemainder) {
  Harness h;
  h.config.probe_timeout = 2.0;
  RaceMachine& m = h.start();
  EXPECT_EQ(m.range(probe(1)), http::range_first_bytes(100));
  m.on_attempt_done(probe(2), ok_at(11.5));
  const Attempt rest{AttemptKind::Remainder, 2, 0};
  EXPECT_EQ(m.range(rest), http::range_from_offset(100));
  AttemptResult tail = ok_at(14.0);
  tail.bytes = 900.0;
  tail.elapsed = 2.5;
  m.on_attempt_done(rest, tail);

  EXPECT_EQ(h.driver.log,
            concat(kThreeProbes, {"arm 2", "disarm", "cancel 0", "cancel 1",
                                  "start remainder 2", "finish ok"}));
  const RaceVerdict& v = *h.driver.verdict;
  EXPECT_TRUE(v.ok && v.chose_indirect && v.body_verified);
  EXPECT_EQ(v.lane, 2u);
  EXPECT_DOUBLE_EQ(v.probe_elapsed, 1.5);
  EXPECT_DOUBLE_EQ(v.total_elapsed, 4.0);
  EXPECT_EQ(v.tail_bytes, 900.0);
  EXPECT_EQ(v.tail_elapsed, 2.5);
  EXPECT_EQ(v.probe_failures + v.retries + v.overload_rejections, 0u);
  EXPECT_FALSE(v.fell_back_direct || v.race_skipped);
  EXPECT_EQ(h.counter("test.race.races_started"), 1u);
  EXPECT_EQ(h.counter("test.race.races_won_indirect"), 1u);
  EXPECT_EQ(h.counter("test.select.races_run"), 1u);
  EXPECT_EQ(h.counter("test.select.probe_bytes"), 200u);
  ASSERT_EQ(h.flights.size(), 1u);
  const obs::FlightRecord rec = h.flights.last()[0];
  EXPECT_EQ(rec.source, "test.race");
  EXPECT_EQ(rec.relay_index, 102);
  EXPECT_EQ(rec.start_time, 10.0);
  EXPECT_EQ(rec.bytes_total, 1000u);
  EXPECT_EQ(rec.bytes_probe, 200u);
}

TEST(RaceMachine, AllLanesFailFallsBackDirect) {
  Harness h;
  RaceMachine& m = h.start();
  m.on_attempt_done(probe(1), failed_at(10.1));
  m.on_attempt_done(probe(0), failed_at(10.2));
  m.on_attempt_done(probe(2), failed_at(10.3, /*overloaded=*/true));
  const Attempt fallback{AttemptKind::Fallback, 0, 0};
  EXPECT_EQ(m.range(fallback), std::nullopt);
  m.on_attempt_done(fallback, ok_at(12.0));

  EXPECT_EQ(h.driver.log,
            concat(kThreeProbes, {"start fallback 0", "finish ok"}));
  const RaceVerdict& v = *h.driver.verdict;
  EXPECT_TRUE(v.ok);
  EXPECT_FALSE(v.chose_indirect);
  EXPECT_EQ(v.probe_failures, 3u);
  EXPECT_EQ(v.overload_rejections, 1u);
  EXPECT_EQ(v.retries, 0u);
  EXPECT_TRUE(v.fell_back_direct);
  EXPECT_EQ(v.probe_elapsed, 0.0);
  EXPECT_DOUBLE_EQ(v.total_elapsed, 2.0);
  EXPECT_EQ(v.failed_relays, std::vector<std::int64_t>{101});
  EXPECT_EQ(v.overloaded_relays, std::vector<std::int64_t>{102});
  EXPECT_EQ(h.counter("test.race.races_won_direct"), 1u);
  EXPECT_EQ(h.counter("test.race.probe_failures"), 3u);
  EXPECT_EQ(h.counter("test.race.fallbacks_direct"), 1u);
}

TEST(RaceMachine, WinnerDyingMidRemainderRetriesThenGoesDirect) {
  Harness h;
  RaceMachine& m = h.start();
  m.on_attempt_done(probe(1), ok_at(11.0));
  m.on_attempt_done({AttemptKind::Remainder, 1, 0}, failed_at(12.0));
  m.on_timer();
  m.on_attempt_done({AttemptKind::Remainder, 1, 1}, failed_at(12.5));
  m.on_attempt_done({AttemptKind::DirectRemainder, 0, 0}, ok_at(15.0));

  EXPECT_EQ(h.driver.log,
            concat(kThreeProbes,
                   {"cancel 0", "cancel 2", "start remainder 1", "rng",
                    "arm 0.2", "start remainder 1#1",
                    "start direct_remainder 0", "finish ok"}));
  const RaceVerdict& v = *h.driver.verdict;
  EXPECT_TRUE(v.ok && v.chose_indirect);  // the selection stands...
  EXPECT_EQ(v.lane, 1u);
  EXPECT_TRUE(v.fell_back_direct);        // ...the bytes came direct
  EXPECT_EQ(v.retries, 1u);
  EXPECT_EQ(v.probe_failures, 0u);
  EXPECT_EQ(v.failed_relays, std::vector<std::int64_t>{101});
  EXPECT_DOUBLE_EQ(v.total_elapsed, 5.0);
}

TEST(RaceMachine, OverloadStormWaitsAtLeastRetryAfter) {
  Harness h;
  h.config.retry.max_retries = 2;
  RaceMachine& m = h.start();
  m.on_attempt_done(probe(1), ok_at(11.0));
  // The peer's Retry-After (3 s) beats the 0.2 s backoff; a tiny hint
  // loses to the doubled backoff (0.4 s).
  m.on_attempt_done({AttemptKind::Remainder, 1, 0}, failed_at(12.0, true, 3.0));
  m.on_timer();
  m.on_attempt_done({AttemptKind::Remainder, 1, 1},
                    failed_at(15.5, true, 0.01));
  m.on_timer();
  m.on_attempt_done({AttemptKind::Remainder, 1, 2}, failed_at(16.0, true, 1));
  m.on_attempt_done({AttemptKind::DirectRemainder, 0, 0}, ok_at(18.0));

  EXPECT_EQ(h.driver.log,
            concat(kThreeProbes,
                   {"cancel 0", "cancel 2", "start remainder 1", "rng",
                    "arm 3", "start remainder 1#1", "rng", "arm 0.4",
                    "start remainder 1#2", "start direct_remainder 0",
                    "finish ok"}));
  const RaceVerdict& v = *h.driver.verdict;
  EXPECT_TRUE(v.ok && v.fell_back_direct);
  EXPECT_EQ(v.retries, 2u);
  EXPECT_EQ(v.overload_rejections, 3u);
  EXPECT_TRUE(v.failed_relays.empty());  // shed, not crashed
  EXPECT_EQ(v.overloaded_relays, std::vector<std::int64_t>{101});
  EXPECT_EQ(h.counter("test.race.overload_rejections"), 3u);
  EXPECT_EQ(h.counter("test.race.retries"), 2u);
}

TEST(RaceMachine, FailedPinLaunchesTheFullRace) {
  Harness h;
  h.config.pinned_lane = 3;  // a pin outside the candidate set
  h.config.pinned_estimate_age = 30.0;
  RaceMachine& m = h.start();
  const Attempt pin{AttemptKind::Pinned, 3, 0};
  EXPECT_EQ(m.range(pin), std::nullopt);
  m.on_attempt_done(pin, failed_at(12.0));
  m.on_attempt_done(probe(0), ok_at(13.0));
  m.on_attempt_done({AttemptKind::Remainder, 0, 0}, ok_at(15.0));

  EXPECT_EQ(h.driver.log,
            concat(concat({"start pinned 3"}, kThreeProbes),
                   {"cancel 1", "cancel 2", "start remainder 0",
                    "finish ok"}));
  const RaceVerdict& v = *h.driver.verdict;
  EXPECT_TRUE(v.ok);
  EXPECT_FALSE(v.chose_indirect || v.race_skipped);
  EXPECT_EQ(v.probe_failures, 0u);  // the pin is not a probe lane
  EXPECT_EQ(v.failed_relays, std::vector<std::int64_t>{103});
  EXPECT_DOUBLE_EQ(v.probe_elapsed, 1.0);  // from the race's launch
  EXPECT_DOUBLE_EQ(v.total_elapsed, 5.0);  // from the call: pin included
  EXPECT_EQ(h.counter("test.select.races_skipped"), 1u);
  EXPECT_EQ(h.counter("test.select.pinned_fallbacks"), 1u);
  EXPECT_EQ(h.counter("test.select.races_run"), 1u);
}

TEST(RaceMachine, ProbeTimeoutFailsStuckLanes) {
  Harness h;
  h.config.probe_timeout = 2.0;
  RaceMachine& m = h.start();
  m.on_attempt_done(probe(0), failed_at(10.5));
  m.on_timer();
  m.on_attempt_done({AttemptKind::Fallback, 0, 0}, ok_at(14.0));

  EXPECT_EQ(h.driver.log,
            concat(kThreeProbes, {"arm 2", "cancel 1", "cancel 2",
                                  "start fallback 0", "finish ok"}));
  const RaceVerdict& v = *h.driver.verdict;
  EXPECT_TRUE(v.ok && v.fell_back_direct);
  EXPECT_EQ(v.probe_failures, 3u);
  EXPECT_EQ(v.failed_relays, (std::vector<std::int64_t>{101, 102}));
  EXPECT_EQ(v.retries, 0u);
}

// --- Cross-stack: the same scenario through both drivers ---------------

enum class Scenario { CleanWin, AllLanesFail, WinnerDiesMidRemainder,
                      PinFails };

struct Summary {
  bool ok = false;
  bool chose_indirect = false;
  std::size_t probe_failures = 0;
  std::size_t retries = 0;
  bool fell_back_direct = false;
  bool race_skipped = false;

  bool operator==(const Summary&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Summary& s) {
  return os << "{ok " << s.ok << ", indirect " << s.chose_indirect
            << ", probe_failures " << s.probe_failures << ", retries "
            << s.retries << ", fell_back_direct " << s.fell_back_direct
            << ", race_skipped " << s.race_skipped << "}";
}

template <class Result>
Summary summarize(const Result& r) {
  return {r.ok,      r.chose_indirect,     r.probe_failures,
          r.retries, r.fell_back_direct,   r.race_skipped};
}

/// Simulated star world: a slow direct path and one fast relay.
struct SimWorld {
  sim::Simulator sim;
  net::Topology topo;
  std::optional<flow::FlowSimulator> fsim;
  std::optional<overlay::WebServerModel> server;
  std::optional<overlay::TransferEngine> engine;
  net::NodeId client = 0, relay = 0;

  SimWorld() {
    const net::NodeId origin = topo.add_node("server");
    const net::NodeId gw = topo.add_node("gw");
    client = topo.add_node("client");
    relay = topo.add_node("relay");
    topo.add_link(origin, gw, util::mbps(0.8), util::milliseconds(90));
    topo.add_link(gw, client, util::mbps(50), util::milliseconds(5));
    topo.add_link(origin, relay, util::mbps(40), util::milliseconds(20));
    topo.add_link(relay, gw, util::mbps(8), util::milliseconds(85));
    fsim.emplace(sim, topo, util::Rng(9));
    server.emplace(origin, "server");
    server->add_resource("/f", 2.0e6);
    engine.emplace(*fsim);
  }

  RaceOutcome race(const std::optional<net::NodeId>& pinned = {}) {
    RaceSpec spec;
    spec.client = client;
    spec.server = &*server;
    spec.resource = "/f";
    spec.candidate_relays = {relay};
    spec.pinned_relay = pinned;
    std::optional<RaceOutcome> outcome;
    start_probe_race(*engine, spec,
                     [&](const RaceOutcome& o) { outcome = o; });
    sim.run();
    EXPECT_TRUE(outcome.has_value());
    return outcome.value_or(RaceOutcome{});
  }
};

Summary run_sim(Scenario scenario) {
  SimWorld w;
  switch (scenario) {
    case Scenario::CleanWin:
      break;
    case Scenario::AllLanesFail:
      // Both probes die in their setup phase; a fresh direct connection
      // then succeeds.
      w.sim.schedule_at(0.01, [&w] {
        w.engine->inject_reset(net::kInvalidNode);
        w.engine->set_relay_down(w.relay, true);
      });
      break;
    case Scenario::WinnerDiesMidRemainder: {
      SimWorld clean;
      const RaceOutcome o = clean.race();
      // Crash mid-remainder and stay down, so the retry dies too.
      const double crash = 0.5 * (o.probe_elapsed + o.total_elapsed);
      w.sim.schedule_at(crash,
                        [&w] { w.engine->set_relay_down(w.relay, true); });
      break;
    }
    case Scenario::PinFails:
      w.engine->set_relay_down(w.relay, true);
      return summarize(w.race(w.relay));
  }
  return summarize(w.race());
}

void spin_until(rt::Reactor& reactor, double deadline_s,
                const std::function<bool()>& done) {
  const double deadline = reactor.now() + deadline_s;
  while (!done() && reactor.now() < deadline) reactor.poll(0.02);
  ASSERT_TRUE(done()) << "condition not reached within deadline";
}

Summary run_rt(Scenario scenario) {
  rt::FaultShim::instance().clear();
  rt::Reactor reactor;
  rt::HttpOriginServer origin{reactor, 0};
  rt::RelayDaemon relay{reactor, 0};
  origin.add_resource("/blob", 400000);
  // Direct is throttled, relayed traffic is not: the relay lane wins.
  origin.set_shaping_policy([](const http::Request& r) {
    return r.headers.has("Via") ? 0.0 : 200000.0;
  });
  rt::RaceSpec spec;
  spec.origin.port = origin.port();
  spec.path = "/blob";
  spec.resource_size = 400000;
  spec.probe_bytes = 100000;
  spec.timeout_s = 10.0;
  spec.relays = {rt::Endpoint{"127.0.0.1", relay.port()}};

  rt::FaultRule refuse;
  refuse.kind = rt::FaultKind::kDropOnConnect;
  rt::FaultShim& shim = rt::FaultShim::instance();
  switch (scenario) {
    case Scenario::CleanWin:
      break;
    case Scenario::AllLanesFail:
      // One refused dial per lane; the fallback's direct dial succeeds.
      shim.arm(origin.port(), refuse);
      shim.arm(relay.port(), refuse);
      break;
    case Scenario::WinnerDiesMidRemainder: {
      // Per-port FIFO: the probe passes, the remainder is reset
      // mid-stream, the retry is refused.
      rt::FaultRule pass;
      pass.kind = rt::FaultKind::kMidStreamReset;
      pass.after_bytes = 1ull << 30;
      rt::FaultRule reset;
      reset.kind = rt::FaultKind::kMidStreamReset;
      reset.after_bytes = 50000;
      shim.arm(relay.port(), pass);
      shim.arm(relay.port(), reset);
      shim.arm(relay.port(), refuse);
      break;
    }
    case Scenario::PinFails:
      // The pinned relay is down: a closed port.
      spec.relays = {rt::Endpoint{"127.0.0.1", 1}};
      spec.pinned_relay = 0;
      break;
  }
  std::optional<rt::RaceResult> result;
  rt::start_probe_race(reactor, spec,
                       [&](const rt::RaceResult& r) { result = r; });
  spin_until(reactor, 30.0, [&] { return result.has_value(); });
  shim.clear();
  return result ? summarize(*result) : Summary{};
}

TEST(RaceMachineCrossStack, BothDriversReachTheSameVerdict) {
  const struct {
    Scenario scenario;
    const char* name;
    Summary expected;
  } cases[] = {
      {Scenario::CleanWin, "clean win", {true, true, 0, 0, false, false}},
      {Scenario::AllLanesFail, "all lanes fail",
       {true, false, 2, 0, true, false}},
      {Scenario::WinnerDiesMidRemainder, "winner dies mid-remainder",
       {true, true, 0, 1, true, false}},
      {Scenario::PinFails, "pin fails", {true, false, 1, 0, false, false}},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(run_sim(c.scenario), c.expected) << "sim: " << c.name;
    EXPECT_EQ(run_rt(c.scenario), c.expected) << "rt: " << c.name;
  }
}

}  // namespace
}  // namespace idr::core
