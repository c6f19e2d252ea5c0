// End-to-end loopback tests of the relay daemon and the real probe race —
// the full indirect-routing pipeline on actual sockets.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <optional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rt/http_client.hpp"
#include "rt/http_server.hpp"
#include "rt/probe_race.hpp"
#include "rt/relay_daemon.hpp"
#include "rt/selection.hpp"
#include "util/rng.hpp"

namespace idr::rt {
namespace {

void spin_until(Reactor& reactor, double deadline_s,
                const std::function<bool()>& done) {
  const double deadline = reactor.now() + deadline_s;
  while (!done() && reactor.now() < deadline) {
    reactor.poll(0.02);
  }
  ASSERT_TRUE(done()) << "condition not reached within deadline";
}

struct Fixture {
  Reactor reactor;
  HttpOriginServer origin{reactor, 0};
  RelayDaemon relay{reactor, 0};

  explicit Fixture(std::uint64_t resource = 400000) {
    origin.add_resource("/blob", resource);
  }

  /// Shapes direct requests to `direct_rate` and relayed ones (Via
  /// header) to `relayed_rate` — the loopback stand-in for asymmetric
  /// wide-area paths. 0 = unthrottled.
  void shape(double direct_rate, double relayed_rate) {
    origin.set_shaping_policy(
        [direct_rate, relayed_rate](const http::Request& r) {
          return r.headers.has("Via") ? relayed_rate : direct_rate;
        });
  }
};

TEST(RtRelay, ForwardsVerbatimBody) {
  Fixture fx;
  FetchRequest req;
  req.origin.port = fx.origin.port();
  req.path = "/blob";
  req.proxy = Endpoint{"127.0.0.1", fx.relay.port()};
  std::optional<FetchResult> result;
  fetch(fx.reactor, req, [&](const FetchResult& r) { result = r; });
  spin_until(fx.reactor, 10.0, [&] { return result.has_value(); });
  ASSERT_TRUE(result->ok) << result->error;
  EXPECT_EQ(result->status, 200);
  EXPECT_EQ(result->body_bytes, 400000u);
  EXPECT_TRUE(result->body_verified);
  EXPECT_EQ(fx.relay.transfers_forwarded(), 1u);
  EXPECT_GT(fx.relay.bytes_forwarded(), 400000u);  // body + headers
}

TEST(RtRelay, ForwardsRangeRequests) {
  Fixture fx;
  FetchRequest req;
  req.origin.port = fx.origin.port();
  req.path = "/blob";
  req.range = http::range_first_bytes(100000);
  req.proxy = Endpoint{"127.0.0.1", fx.relay.port()};
  std::optional<FetchResult> result;
  fetch(fx.reactor, req, [&](const FetchResult& r) { result = r; });
  spin_until(fx.reactor, 10.0, [&] { return result.has_value(); });
  ASSERT_TRUE(result->ok) << result->error;
  EXPECT_EQ(result->status, 206);
  EXPECT_EQ(result->body_bytes, 100000u);
  EXPECT_TRUE(result->body_verified);
}

TEST(RtRelay, BadGatewayOnDeadOrigin) {
  Fixture fx;
  FetchRequest req;
  req.origin.host = "127.0.0.1";
  req.origin.port = 1;  // closed
  req.path = "/blob";
  req.proxy = Endpoint{"127.0.0.1", fx.relay.port()};
  req.timeout_s = 5.0;
  std::optional<FetchResult> result;
  fetch(fx.reactor, req, [&](const FetchResult& r) { result = r; });
  spin_until(fx.reactor, 10.0, [&] { return result.has_value(); });
  EXPECT_FALSE(result->ok);
  EXPECT_TRUE(result->status == 502 || result->status == 504)
      << result->status << " " << result->error;
}

TEST(RtRelay, NonProxyRequestRejected) {
  Fixture fx;
  // Talk to the relay as if it were an origin (origin-form target).
  FetchRequest req;
  req.origin.port = fx.relay.port();
  req.path = "/blob";
  req.timeout_s = 5.0;
  std::optional<FetchResult> result;
  fetch(fx.reactor, req, [&](const FetchResult& r) { result = r; });
  spin_until(fx.reactor, 10.0, [&] { return result.has_value(); });
  EXPECT_FALSE(result->ok);
  EXPECT_EQ(result->status, 400);
}

TEST(RtRace, PicksRelayWhenDirectIsSlow) {
  Fixture fx;
  fx.shape(/*direct=*/60000.0, /*relayed=*/0.0);
  RaceSpec spec;
  spec.origin.port = fx.origin.port();
  spec.path = "/blob";
  spec.resource_size = 400000;
  spec.probe_bytes = 100000;
  spec.relays = {Endpoint{"127.0.0.1", fx.relay.port()}};
  std::optional<RaceResult> result;
  start_probe_race(fx.reactor, spec,
                   [&](const RaceResult& r) { result = r; });
  spin_until(fx.reactor, 30.0, [&] { return result.has_value(); });
  ASSERT_TRUE(result->ok) << result->error;
  EXPECT_TRUE(result->chose_indirect);
  EXPECT_EQ(result->relay_index, 0u);
  EXPECT_EQ(result->total_bytes, 400000u);
  EXPECT_TRUE(result->body_verified);
  EXPECT_GE(result->total_elapsed, result->probe_elapsed);
}

TEST(RtRace, PicksDirectWhenRelayIsSlow) {
  Fixture fx;
  fx.shape(/*direct=*/0.0, /*relayed=*/60000.0);
  RaceSpec spec;
  spec.origin.port = fx.origin.port();
  spec.path = "/blob";
  spec.resource_size = 400000;
  spec.probe_bytes = 100000;
  spec.relays = {Endpoint{"127.0.0.1", fx.relay.port()}};
  std::optional<RaceResult> result;
  start_probe_race(fx.reactor, spec,
                   [&](const RaceResult& r) { result = r; });
  spin_until(fx.reactor, 30.0, [&] { return result.has_value(); });
  ASSERT_TRUE(result->ok) << result->error;
  EXPECT_FALSE(result->chose_indirect);
  EXPECT_TRUE(result->body_verified);
}

TEST(RtRace, BestOfTwoRelaysWins) {
  Fixture fx;
  RelayDaemon relay2{fx.reactor, 0};
  // Direct slow; relayed fast — both relays see the same origin policy,
  // so the race between the two relays is decided by readiness; either
  // is a correct indirect choice.
  fx.shape(/*direct=*/40000.0, /*relayed=*/0.0);
  RaceSpec spec;
  spec.origin.port = fx.origin.port();
  spec.path = "/blob";
  spec.resource_size = 400000;
  spec.probe_bytes = 80000;
  spec.relays = {Endpoint{"127.0.0.1", fx.relay.port()},
                 Endpoint{"127.0.0.1", relay2.port()}};
  std::optional<RaceResult> result;
  start_probe_race(fx.reactor, spec,
                   [&](const RaceResult& r) { result = r; });
  spin_until(fx.reactor, 30.0, [&] { return result.has_value(); });
  ASSERT_TRUE(result->ok) << result->error;
  EXPECT_TRUE(result->chose_indirect);
  EXPECT_LT(result->relay_index, 2u);
  EXPECT_TRUE(result->body_verified);
}

TEST(RtRace, ProbeCoveringFileSkipsRemainder) {
  Fixture fx(50000);
  RaceSpec spec;
  spec.origin.port = fx.origin.port();
  spec.path = "/blob";
  spec.resource_size = 50000;
  spec.probe_bytes = 100000;  // > file
  spec.relays = {Endpoint{"127.0.0.1", fx.relay.port()}};
  std::optional<RaceResult> result;
  start_probe_race(fx.reactor, spec,
                   [&](const RaceResult& r) { result = r; });
  spin_until(fx.reactor, 10.0, [&] { return result.has_value(); });
  ASSERT_TRUE(result->ok) << result->error;
  EXPECT_DOUBLE_EQ(result->total_elapsed, result->probe_elapsed);
}

std::uint64_t counter_of(const obs::Registry& registry, const char* name) {
  const obs::Snapshot snapshot = registry.snapshot();
  const obs::MetricValue* m = snapshot.find(name);
  return m != nullptr ? m->count : 0;
}

TEST(RtSelect, FreshEstimateSkipsRaceWithZeroProbeConnections) {
  Fixture fx;
  fx.shape(/*direct=*/60000.0, /*relayed=*/0.0);
  obs::Registry registry;
  PassiveSelectorConfig config;
  config.staleness_threshold_s = 300.0;
  PassiveSelector selector(1, config);

  RaceSpec spec;
  spec.origin.port = fx.origin.port();
  spec.path = "/blob";
  spec.resource_size = 400000;
  spec.probe_bytes = 100000;
  spec.relays = {Endpoint{"127.0.0.1", fx.relay.port()}};
  spec.metrics = &registry;

  // Race 1: a real race. The relay wins (direct is shaped slow) and its
  // observed throughput becomes a race-validated estimate.
  ASSERT_FALSE(selector.prepare(spec, fx.reactor.now()).has_value());
  std::optional<RaceResult> first;
  start_probe_race(fx.reactor, spec, [&](const RaceResult& r) { first = r; });
  spin_until(fx.reactor, 30.0, [&] { return first.has_value(); });
  ASSERT_TRUE(first->ok) << first->error;
  ASSERT_TRUE(first->chose_indirect);
  EXPECT_FALSE(first->race_skipped);
  selector.observe(*first, fx.reactor.now());
  EXPECT_EQ(counter_of(registry, "rt.select.races_run"), 1u);

  // Race 2: the estimate is seconds old — prepare() pins, and the whole
  // transfer rides the relay in a single request: no probe connections
  // at all (the first race cost three origin requests: two probe lanes
  // plus the winner's remainder).
  const std::size_t origin_before = fx.origin.requests_served();
  const std::size_t forwarded_before = fx.relay.transfers_forwarded();
  const auto pinned = selector.prepare(spec, fx.reactor.now());
  ASSERT_TRUE(pinned.has_value());
  EXPECT_EQ(*pinned, 0u);
  std::optional<RaceResult> second;
  start_probe_race(fx.reactor, spec,
                   [&](const RaceResult& r) { second = r; });
  spin_until(fx.reactor, 30.0, [&] { return second.has_value(); });
  ASSERT_TRUE(second->ok) << second->error;
  EXPECT_TRUE(second->race_skipped);
  EXPECT_TRUE(second->chose_indirect);
  EXPECT_EQ(second->relay_index, 0u);
  EXPECT_EQ(second->total_bytes, 400000u);
  EXPECT_TRUE(second->body_verified);
  EXPECT_DOUBLE_EQ(second->probe_elapsed, 0.0);
  EXPECT_EQ(fx.origin.requests_served() - origin_before, 1u);
  EXPECT_EQ(fx.relay.transfers_forwarded() - forwarded_before, 1u);
  EXPECT_EQ(counter_of(registry, "rt.select.races_skipped"), 1u);
  EXPECT_EQ(counter_of(registry, "rt.select.races_run"), 1u);
  EXPECT_EQ(counter_of(registry, "rt.select.pinned_fallbacks"), 0u);
  selector.observe(*second, fx.reactor.now());
  // The skipped race's sample refines the estimate passively but must
  // not re-validate freshness: only real races renew the pin.
  EXPECT_EQ(selector.stats().record(0).validated_samples, 1u);
  EXPECT_EQ(selector.stats().record(0).estimate_samples, 2u);
}

TEST(RtSelect, DeadPinnedRelayFallsBackToFullRace) {
  Fixture fx;
  obs::Registry registry;
  RaceSpec spec;
  spec.origin.port = fx.origin.port();
  spec.path = "/blob";
  spec.resource_size = 400000;
  spec.probe_bytes = 100000;
  // Pin points at a crashed relay (closed port); the live relay and the
  // direct path remain as the fallback race.
  spec.relays = {Endpoint{"127.0.0.1", 1},
                 Endpoint{"127.0.0.1", fx.relay.port()}};
  spec.metrics = &registry;
  spec.timeout_s = 10.0;
  spec.pinned_relay = 0;
  spec.pinned_estimate_age_s = 1.0;

  std::optional<RaceResult> result;
  start_probe_race(fx.reactor, spec,
                   [&](const RaceResult& r) { result = r; });
  spin_until(fx.reactor, 30.0, [&] { return result.has_value(); });
  // The transfer must still succeed — via the full race, not the pin.
  ASSERT_TRUE(result->ok) << result->error;
  EXPECT_FALSE(result->race_skipped);
  EXPECT_EQ(result->total_bytes, 400000u);
  EXPECT_TRUE(result->body_verified);
  EXPECT_EQ(counter_of(registry, "rt.select.races_skipped"), 1u);
  EXPECT_EQ(counter_of(registry, "rt.select.pinned_fallbacks"), 1u);
  EXPECT_EQ(counter_of(registry, "rt.select.races_run"), 1u);
}

TEST(RtRelay, AppendsToExistingViaChainWithReceivedProtocol) {
  Fixture fx;
  // Capture the Via header as the origin sees it; the shaping policy is
  // the one hook that reads the forwarded request's headers.
  std::string via_at_origin;
  fx.origin.set_shaping_policy([&](const http::Request& r) {
    if (const auto via = r.headers.get("Via")) via_at_origin = *via;
    return 0.0;
  });

  // A raw absolute-form request already carrying a Via chain — two
  // headers, as an earlier multi-hop proxy path would leave them. RFC
  // 7230 §5.7.1: the relay must append its own token to the collapsed
  // chain, not add a duplicate header, and the token carries the
  // protocol version the request actually arrived with.
  FdHandle sock = connect_nonblocking("127.0.0.1", fx.relay.port());
  const std::string wire =
      "GET http://127.0.0.1:" + std::to_string(fx.origin.port()) +
      "/blob HTTP/1.1\r\n"
      "Host: 127.0.0.1\r\n"
      "Via: 1.0 edge-cache\r\n"
      "Via: 1.1 corp-proxy\r\n"
      "\r\n";
  std::size_t sent = 0;
  spin_until(fx.reactor, 10.0, [&] {
    if (sent < wire.size()) {
      const ssize_t n = ::send(sock.get(), wire.data() + sent,
                               wire.size() - sent, MSG_NOSIGNAL);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    return !via_at_origin.empty();
  });
  EXPECT_EQ(via_at_origin, "1.0 edge-cache, 1.1 corp-proxy, "
                           "1.1 indiroute-relay");
}

TEST(RtTrace, MergedTraceLinksClientRelayAndOriginSpans) {
  Fixture fx;
  fx.shape(/*direct=*/60000.0, /*relayed=*/0.0);  // the relay wins
  obs::Tracer tracer;
  tracer.set_enabled(true);
  fx.relay.set_tracer(&tracer, /*pid=*/10, /*track=*/0);
  fx.origin.set_tracer(&tracer, /*pid=*/2, /*track=*/0);

  util::Rng rng(7);
  RaceSpec spec;
  spec.origin.port = fx.origin.port();
  spec.path = "/blob";
  spec.resource_size = 400000;
  spec.probe_bytes = 100000;
  spec.relays = {Endpoint{"127.0.0.1", fx.relay.port()}};
  spec.tracer = &tracer;
  spec.trace = obs::make_trace_context(rng);
  spec.trace_pid = 1;
  std::optional<RaceResult> result;
  start_probe_race(fx.reactor, spec,
                   [&](const RaceResult& r) { result = r; });
  spin_until(fx.reactor, 30.0, [&] { return result.has_value(); });
  ASSERT_TRUE(result->ok) << result->error;
  ASSERT_TRUE(result->chose_indirect);

  // One causally linked trace: the client's race span plus both hops'
  // server spans all carry the caller's trace id, and the flow binds use
  // it as the flow id so the viewer draws one arrowed chain.
  bool client_race = false, relay_parse = false, relay_stream = false;
  bool origin_parse = false, origin_stream = false;
  bool flow_start = false, flow_step = false, flow_finish = false;
  for (const auto& ev : tracer.events()) {
    if (ev.phase == 's') flow_start |= ev.flow_id == spec.trace.trace_id;
    if (ev.phase == 't') flow_step |= ev.flow_id == spec.trace.trace_id;
    if (ev.phase == 'f') flow_finish |= ev.flow_id == spec.trace.trace_id;
    if (ev.phase != 'X') continue;
    // Every span of this run belongs to the one trace — nothing orphaned,
    // nothing cross-linked.
    EXPECT_EQ(ev.trace_id, spec.trace.trace_id) << ev.name;
    EXPECT_NE(ev.span_id, 0u) << ev.name;
    if (ev.name == "probe_race") {
      client_race = true;
      EXPECT_EQ(ev.pid, 1u);
      EXPECT_EQ(ev.span_id, spec.trace.span_id);
    } else if (ev.name == "relay.parse") {
      relay_parse = true;
      EXPECT_EQ(ev.pid, 10u);
      EXPECT_NE(ev.parent_span, 0u);
    } else if (ev.name == "relay.stream") {
      relay_stream = true;
    } else if (ev.name == "origin.parse") {
      origin_parse = true;
      EXPECT_EQ(ev.pid, 2u);
      EXPECT_NE(ev.parent_span, 0u);
    } else if (ev.name == "origin.stream") {
      origin_stream = true;
    }
  }
  EXPECT_TRUE(client_race);
  EXPECT_TRUE(relay_parse);
  EXPECT_TRUE(relay_stream);
  EXPECT_TRUE(origin_parse);
  EXPECT_TRUE(origin_stream);
  EXPECT_TRUE(flow_start);
  EXPECT_TRUE(flow_step);
  EXPECT_TRUE(flow_finish);

  // A context-free transfer through the same traced daemons emits no
  // server spans at all: requests without a traceparent stay invisible,
  // so a merged fleet trace can never contain orphan server spans.
  const std::size_t before = tracer.size();
  std::optional<FetchResult> plain;
  FetchRequest req;
  req.origin.port = fx.origin.port();
  req.path = "/blob";
  req.proxy = Endpoint{"127.0.0.1", fx.relay.port()};
  fetch(fx.reactor, req, [&](const FetchResult& r) { plain = r; });
  spin_until(fx.reactor, 30.0, [&] { return plain.has_value(); });
  ASSERT_TRUE(plain->ok) << plain->error;
  EXPECT_EQ(tracer.size(), before);
}

TEST(RtRace, AllLanesFailingReportsError) {
  Reactor reactor;
  RaceSpec spec;
  spec.origin.port = 1;  // closed port, no relays
  spec.path = "/blob";
  spec.resource_size = 1000;
  spec.probe_bytes = 100;
  spec.timeout_s = 5.0;
  std::optional<RaceResult> result;
  start_probe_race(reactor, spec,
                   [&](const RaceResult& r) { result = r; });
  spin_until(reactor, 10.0, [&] { return result.has_value(); });
  EXPECT_FALSE(result->ok);
  EXPECT_FALSE(result->error.empty());
}

}  // namespace
}  // namespace idr::rt
