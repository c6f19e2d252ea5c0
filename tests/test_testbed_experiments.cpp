// Integration tests over the experiment drivers (scaled-down runs).
#include <algorithm>
#include <gtest/gtest.h>

#include "obs/trace.hpp"
#include "testbed/section2.hpp"
#include "testbed/section4.hpp"
#include "testbed/session.hpp"
#include "util/error.hpp"

namespace idr::testbed {
namespace {

Section2Config small_section2() {
  Section2Config config;
  config.seed = 99;
  config.clients = {"Italy", "Canada", "France"};
  config.relays_per_client = 3;
  config.transfers_per_session = 12;
  config.interval = util::minutes(3);
  config.threads = 2;
  return config;
}

// Forwards to a real process and counts its next() calls.
class CountingProcess final : public net::CapacityProcess {
 public:
  CountingProcess(std::unique_ptr<net::CapacityProcess> inner,
                  std::size_t* calls)
      : inner_(std::move(inner)), calls_(calls) {}
  util::Rate initial(util::Rng& rng) override { return inner_->initial(rng); }
  net::CapacityChange next(util::Rng& rng) override {
    ++*calls_;
    return inner_->next(rng);
  }

 private:
  std::unique_ptr<net::CapacityProcess> inner_;
  std::size_t* calls_;
};

TEST(Session, WorldBReadsTheSamplePathsWorldADrew) {
  const ScenarioGenerator gen(5, {});
  SessionSpec spec;
  spec.params = gen.make_world(find_site("Italy"), {&find_site("NYU")},
                               find_site("eBay"));
  spec.params.access.cv = 0.2;  // give the access link a process too
  spec.transfers = 8;
  spec.interval = util::minutes(2);
  spec.client_seed = 77;

  std::size_t direct_calls = 0;
  std::size_t access_calls = 0;
  MirroredPaths mirrored;
  mirrored.direct = std::make_shared<net::CapacityPathMemo>(
      std::make_unique<CountingProcess>(
          make_capacity_process(spec.params.direct_wan), &direct_calls));
  mirrored.access = std::make_shared<net::CapacityPathMemo>(
      std::make_unique<CountingProcess>(
          make_capacity_process(spec.params.access), &access_calls));

  // The policy factory runs once world B is built, after world A ran.
  std::size_t direct_after_a = 0;
  std::size_t access_after_a = 0;
  long readers = 0;
  spec.policy_factory = [&](ClientWorld& world) {
    direct_after_a = direct_calls;
    access_after_a = access_calls;
    readers = mirrored.direct.use_count() - 1;  // minus this test's copy
    return std::make_unique<core::StaticRelayPolicy>(world.relay_node(0));
  };
  const SessionOutput shared = run_session(spec, mirrored);

  EXPECT_EQ(readers, 2);  // world A and world B each attach a reader
  EXPECT_GT(direct_after_a, 0u);
  EXPECT_GT(access_after_a, 0u);
  // World B makes zero next() calls on the mirrored links, and every
  // change is drawn exactly once.
  EXPECT_EQ(direct_calls, direct_after_a);
  EXPECT_EQ(access_calls, access_after_a);
  EXPECT_EQ(direct_calls, mirrored.direct->size());
  EXPECT_EQ(access_calls, mirrored.access->size());

  // Sharing changes no observation: a run on fresh memos agrees exactly.
  spec.policy_factory = [](ClientWorld& world) {
    return std::make_unique<core::StaticRelayPolicy>(world.relay_node(0));
  };
  const SessionOutput fresh = run_session(spec);
  ASSERT_EQ(shared.result.transfers.size(), fresh.result.transfers.size());
  for (std::size_t k = 0; k < fresh.result.transfers.size(); ++k) {
    const TransferObservation& a = shared.result.transfers[k];
    const TransferObservation& b = fresh.result.transfers[k];
    EXPECT_TRUE(a.ok) << k;
    EXPECT_EQ(a.direct_rate, b.direct_rate) << k;
    EXPECT_EQ(a.selected_rate, b.selected_rate) << k;
    EXPECT_EQ(a.chose_indirect, b.chose_indirect) << k;
  }
}

TEST(Session, ProducesJoinedObservations) {
  const ScenarioGenerator gen(5, {});
  SessionSpec spec;
  spec.params = gen.make_world(find_site("Italy"), {&find_site("NYU")},
                               find_site("eBay"));
  spec.transfers = 8;
  spec.interval = util::minutes(2);
  spec.client_seed = 77;
  spec.session_relay_label = "NYU";
  spec.policy_factory = [](ClientWorld& world) {
    return std::make_unique<core::StaticRelayPolicy>(world.relay_node(0));
  };
  const SessionOutput out = run_session(spec);
  ASSERT_EQ(out.result.transfers.size(), 8u);
  for (std::size_t k = 0; k < 8; ++k) {
    const auto& t = out.result.transfers[k];
    EXPECT_TRUE(t.ok) << k;
    EXPECT_GT(t.selected_rate, 0.0);
    EXPECT_GT(t.direct_rate, 0.0);
    EXPECT_DOUBLE_EQ(t.start_time, 1.0 + 120.0 * static_cast<double>(k));
    EXPECT_EQ(t.session_relay, "NYU");
    if (t.chose_indirect) {
      EXPECT_EQ(t.chosen_relay, "NYU");
    } else {
      EXPECT_TRUE(t.chosen_relay.empty());
    }
    // Improvement consistency with the recorded rates.
    EXPECT_NEAR(t.improvement_pct,
                core::improvement_pct(t.selected_rate, t.direct_rate),
                1e-9);
  }
  EXPECT_EQ(out.result.direct_rate_stats.count(), 8u);
  EXPECT_EQ(out.relay_stats.record(
                out.relay_stats.records().front().relay).appearances,
            8u);
}

TEST(Session, DeterministicAcrossRuns) {
  const ScenarioGenerator gen(6, {});
  SessionSpec spec;
  spec.params = gen.make_world(find_site("Greece"), {&find_site("Upenn")},
                               find_site("eBay"));
  spec.transfers = 6;
  spec.interval = util::minutes(2);
  spec.client_seed = 13;
  spec.session_relay_label = "Upenn";
  spec.policy_factory = [](ClientWorld& world) {
    return std::make_unique<core::StaticRelayPolicy>(world.relay_node(0));
  };
  const SessionOutput a = run_session(spec);
  const SessionOutput b = run_session(spec);
  for (std::size_t k = 0; k < 6; ++k) {
    EXPECT_DOUBLE_EQ(a.result.transfers[k].selected_rate,
                     b.result.transfers[k].selected_rate);
    EXPECT_DOUBLE_EQ(a.result.transfers[k].direct_rate,
                     b.result.transfers[k].direct_rate);
    EXPECT_EQ(a.result.transfers[k].chose_indirect,
              b.result.transfers[k].chose_indirect);
  }
}

TEST(Section2, RunsAllSessions) {
  const Section2Result result = run_section2(small_section2());
  EXPECT_EQ(result.sessions.size(), 9u);  // 3 clients x 3 relays
  for (const auto& s : result.sessions) {
    EXPECT_EQ(s.transfers.size(), 12u);
    EXPECT_FALSE(s.session_relay.empty());
    EXPECT_EQ(s.direct_rate_stats.count(), 12u);
  }
}

TEST(Section2, ThreadCountDoesNotChangeResults) {
  Section2Config config = small_section2();
  config.clients = {"Italy", "Canada"};
  config.relays_per_client = 2;
  config.transfers_per_session = 6;
  obs::Tracer serial_trace;
  serial_trace.set_enabled(true);
  config.tracer = &serial_trace;
  config.threads = 1;
  const Section2Result serial = run_section2(config);
  obs::Tracer parallel_trace;
  parallel_trace.set_enabled(true);
  config.tracer = &parallel_trace;
  config.threads = 4;
  const Section2Result parallel = run_section2(config);
  EXPECT_EQ(serial.summary.transfers, 4u * 6u);
  // The span dump is ordered by track and start, not worker completion.
  EXPECT_GT(serial_trace.count_spans("probe_race"), 0u);
  EXPECT_EQ(parallel_trace.to_chrome_json(), serial_trace.to_chrome_json());
  EXPECT_EQ(parallel.summary.digest, serial.summary.digest);
  EXPECT_EQ(parallel.metrics.to_json(), serial.metrics.to_json());
  ASSERT_EQ(serial.sessions.size(), parallel.sessions.size());
  for (std::size_t i = 0; i < serial.sessions.size(); ++i) {
    ASSERT_EQ(serial.sessions[i].client, parallel.sessions[i].client);
    ASSERT_EQ(serial.sessions[i].session_relay,
              parallel.sessions[i].session_relay);
    for (std::size_t k = 0; k < serial.sessions[i].transfers.size(); ++k) {
      EXPECT_DOUBLE_EQ(serial.sessions[i].transfers[k].improvement_pct,
                       parallel.sessions[i].transfers[k].improvement_pct);
    }
  }
}

TEST(Section2, AggregationsAreConsistent) {
  const Section2Result result = run_section2(small_section2());
  const auto improvements = indirect_improvements(result.sessions);
  const auto pairs = indirect_rate_pairs(result.sessions);
  EXPECT_EQ(improvements.size(), pairs.size());

  std::size_t indirect_total = 0;
  for (const auto& s : result.sessions) indirect_total += s.indirect_count();
  EXPECT_EQ(improvements.size(), indirect_total);

  const double util = overall_utilization(result.sessions);
  EXPECT_GE(util, 0.0);
  EXPECT_LE(util, 1.0);
  EXPECT_NEAR(util,
              static_cast<double>(indirect_total) / (9.0 * 12.0), 1e-12);

  // Per-relay summary covers exactly the relays that appeared.
  const auto summary = relay_utilization_summary(result.sessions);
  std::size_t total_sessions = 0;
  for (const auto& row : summary) {
    EXPECT_GE(row.average, 0.0);
    EXPECT_LE(row.average, 1.0);
    EXPECT_GE(row.rms, row.average * 0.999 - 1e-9);  // RMS >= mean
    total_sessions += row.sessions;
  }
  EXPECT_EQ(total_sessions, result.sessions.size());

  // Top-relays table has one entry per client, sorted descending.
  const auto tops = top_relays_per_client(result.sessions, 3);
  EXPECT_EQ(tops.size(), 3u);
  for (const auto& t : tops) {
    for (std::size_t i = 1; i < t.top.size(); ++i) {
      EXPECT_GE(t.top[i - 1].utilization, t.top[i].utilization);
    }
  }
}

TEST(Section2, LowThroughputClientsUseIndirectMoreThanHigh) {
  // The paper's central claim: Low/Medium-throughput clients route
  // through the indirect path far more often than High-throughput
  // clients. Use the paper's own setup (a good static relay per client).
  Section2Config config;
  config.seed = 99;
  config.assignment = RelayAssignment::AprioriGood;
  config.transfers_per_session = 30;
  config.interval = util::minutes(3);
  config.threads = 2;
  const Section2Result result = run_section2(config);
  util::OnlineStats low_util, high_util;
  for (const auto& s : result.sessions) {
    if (s.category() == core::ThroughputCategory::High) {
      high_util.add(s.utilization());
    } else if (s.category() == core::ThroughputCategory::Low) {
      low_util.add(s.utilization());
    }
  }
  ASSERT_GT(low_util.count(), 3u);
  ASSERT_GT(high_util.count(), 0u);
  EXPECT_GT(low_util.mean(), high_util.mean() + 0.1);
}

Section4Config small_section4() {
  Section4Config config;
  config.seed = 17;
  config.clients = {"Duke", "Italy"};
  config.client_inbound_mbps = {2.4, 1.2};
  config.set_sizes = {1, 4, 10};
  config.relay_count = 12;
  config.transfers = 15;
  config.interval = util::seconds(40);
  config.threads = 2;
  return config;
}

TEST(Section4, RosterExcludesClients) {
  Section4Config config = small_section4();
  const auto roster = section4_relays(config, "Duke", 12);
  EXPECT_EQ(roster.size(), 12u);
  for (const auto* site : roster) {
    EXPECT_NE(site->name, "Duke");
    EXPECT_NE(site->name, "Italy");
  }
}

TEST(Section4, SweepProducesAllCells) {
  const Section4Result result = run_section4(small_section4());
  EXPECT_EQ(result.cells.size(), 6u);  // 2 clients x 3 sizes
  const auto& cell = result.cell("Duke", 4);
  EXPECT_EQ(cell.session.transfers.size(), 15u);
  EXPECT_GE(cell.utilization, 0.0);
  EXPECT_LE(cell.utilization, 1.0);
  EXPECT_THROW(result.cell("Duke", 999), util::Error);
}

TEST(Section4, AppearancesMatchSetSizeBudget) {
  const Section4Result result = run_section4(small_section4());
  const auto& cell = result.cell("Italy", 4);
  std::size_t appearances = 0, selections = 0;
  for (const auto& r : cell.relay_stats.records()) {
    appearances += r.appearances;
    selections += r.selections;
  }
  // Every transfer put exactly 4 relays in the random set.
  EXPECT_EQ(appearances, 15u * 4u);
  EXPECT_LE(selections, 15u);
  EXPECT_EQ(selections, cell.session.indirect_count());
}

TEST(Section4, LargerSetsDoNotHurtMuch) {
  // The n=10 average improvement should comfortably exceed n=1 (more
  // choice can only help modulo probe noise).
  const Section4Result result = run_section4(small_section4());
  for (const auto* client : {"Duke", "Italy"}) {
    const double small = result.cell(client, 1).avg_improvement_pct;
    const double large = result.cell(client, 10).avg_improvement_pct;
    EXPECT_GE(large, small - 10.0) << client;
  }
}

TEST(Section4, ThreadCountDoesNotChangeResults) {
  Section4Config config = small_section4();
  config.threads = 1;
  const Section4Result serial = run_section4(config);
  config.threads = 4;
  const Section4Result parallel = run_section4(config);
  EXPECT_EQ(serial.summary.transfers, 6u * 15u);
  EXPECT_EQ(parallel.summary.digest, serial.summary.digest);
  EXPECT_EQ(parallel.metrics.to_json(), serial.metrics.to_json());
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].client, parallel.cells[i].client);
    EXPECT_EQ(serial.cells[i].set_size, parallel.cells[i].set_size);
    EXPECT_EQ(serial.cells[i].avg_improvement_pct,
              parallel.cells[i].avg_improvement_pct);
  }
}

TEST(Section4, WeightedPolicyRuns) {
  Section4Config config = small_section4();
  config.clients = {"Italy"};
  config.client_inbound_mbps = {1.2};
  config.set_sizes = {4};
  config.policy.kind = PolicyKind::Weighted;
  const Section4Result result = run_section4(config);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].session.transfers.size(), 15u);
}

TEST(Section4, MismatchedOverridesThrow) {
  Section4Config config = small_section4();
  config.client_inbound_mbps = {2.4};  // but two clients
  EXPECT_THROW(run_section4(config), util::Error);
}

}  // namespace
}  // namespace idr::testbed
