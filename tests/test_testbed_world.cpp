#include <algorithm>
#include <gtest/gtest.h>
#include <optional>

#include "testbed/scenario.hpp"
#include "testbed/sites.hpp"
#include "testbed/world.hpp"
#include "util/error.hpp"

namespace idr::testbed {
namespace {

TEST(Sites, TablesMatchThePaper) {
  EXPECT_EQ(client_sites().size(), 22u);  // Table IV
  EXPECT_EQ(relay_sites().size(), 21u);   // Table V
  EXPECT_EQ(server_sites().size(), 4u);   // eBay, Google, MSN, Yahoo
  EXPECT_EQ(find_site("Canada").domain, "planetlab1.enel.ucalgary.ca");
  EXPECT_EQ(find_site("Princeton").domain, "planetlab-1.cs.princeton.edu");
  EXPECT_TRUE(find_site("eBay").usa);
  EXPECT_THROW(find_site("Atlantis"), util::Error);
}

TEST(Sites, ClientCategoriesSpanTheBands) {
  // The calibrated population must contain Low, Medium and High clients
  // (Section 2.2's categorization).
  int low = 0, med = 0, high = 0;
  for (const auto& c : client_sites()) {
    if (c.inbound_mbps <= 1.5) {
      ++low;
    } else if (c.inbound_mbps <= 3.0) {
      ++med;
    } else {
      ++high;
    }
  }
  EXPECT_GT(low, 5);
  EXPECT_GT(med, 2);
  EXPECT_GT(high, 2);
  EXPECT_EQ(low + med + high, 22);
}

TEST(Sites, HighThroughputClientsAreJumpy) {
  // The penalty analysis (Table I) requires High clients with variable
  // direct paths.
  for (const auto& c : client_sites()) {
    if (c.jumpy) {
      EXPECT_GT(c.inbound_mbps, 3.0) << c.name;
    }
  }
}

TEST(Fnv, StableKnownValues) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(fnv1a("Duke"), fnv1a("duke"));
}

TEST(Scenario, DeterministicWorldParams) {
  const ScenarioGenerator gen(7, {});
  const auto& client = find_site("Italy");
  const auto& relay = find_site("NYU");
  const auto& server = find_site("eBay");
  const WorldParams a = gen.make_world(client, {&relay}, server);
  const WorldParams b = gen.make_world(client, {&relay}, server);
  EXPECT_EQ(a.process_seed, b.process_seed);
  EXPECT_DOUBLE_EQ(a.direct_wan.mean, b.direct_wan.mean);
  EXPECT_DOUBLE_EQ(a.relay_wan[0].mean, b.relay_wan[0].mean);
  EXPECT_DOUBLE_EQ(a.relay_wan[0].delay, b.relay_wan[0].delay);
}

TEST(Scenario, SeedChangesIdiosyncrasies) {
  const auto& client = find_site("Italy");
  const auto& relay = find_site("NYU");
  const auto& server = find_site("eBay");
  const WorldParams a = ScenarioGenerator(7).make_world(client, {&relay},
                                                        server);
  const WorldParams b = ScenarioGenerator(8).make_world(client, {&relay},
                                                        server);
  EXPECT_NE(a.relay_wan[0].mean, b.relay_wan[0].mean);
}

TEST(Scenario, RelayParamsIndependentOfRoster) {
  // NYU's leg to Italy must be identical whether it is probed alone or
  // alongside others — otherwise Section 4's sweep would compare
  // different networks.
  const ScenarioGenerator gen(7, {});
  const auto& client = find_site("Italy");
  const auto& nyu = find_site("NYU");
  const auto& texas = find_site("Texas");
  const auto& server = find_site("eBay");
  const WorldParams solo = gen.make_world(client, {&nyu}, server);
  const WorldParams duo = gen.make_world(client, {&texas, &nyu}, server);
  EXPECT_DOUBLE_EQ(solo.relay_wan[0].mean, duo.relay_wan[1].mean);
  EXPECT_DOUBLE_EQ(solo.relay_wan[0].loss, duo.relay_wan[1].loss);
}

TEST(Scenario, InboundOverrideApplies) {
  const ScenarioGenerator gen(7, {});
  const auto& duke = find_site("Duke");
  const auto& relay = find_site("NYU");
  const auto& server = find_site("eBay");
  const WorldParams params = gen.make_world(duke, {&relay}, server, 2.4);
  EXPECT_DOUBLE_EQ(params.direct_wan.mean, util::mbps(2.4));
}

TEST(Scenario, GoodnessOrdersExpectedLegQuality) {
  // Averaged over many seeds, a high-goodness relay must get better legs
  // than a low-goodness one to the same client.
  const auto& client = find_site("Canada");
  const auto& nyu = find_site("NYU");    // goodness 1.5
  const auto& ucsd = find_site("UCSD");  // goodness 0.6
  const auto& server = find_site("eBay");
  double nyu_mean = 0.0, ucsd_mean = 0.0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const ScenarioGenerator gen(seed, {});
    const WorldParams p = gen.make_world(client, {&nyu, &ucsd}, server);
    nyu_mean += p.relay_wan[0].mean;
    ucsd_mean += p.relay_wan[1].mean;
  }
  EXPECT_GT(nyu_mean, ucsd_mean * 1.5);
}

TEST(Scenario, DelaysRespectGeography) {
  const ScenarioGenerator gen(7, {});
  const auto& client = find_site("Italy");
  const auto& relay = find_site("NYU");
  const auto& server = find_site("eBay");
  const WorldParams p = gen.make_world(client, {&relay}, server);
  // US server -> intl client: intercontinental.
  EXPECT_GE(p.direct_wan.delay, 0.040);
  EXPECT_LE(p.direct_wan.delay, 0.110);
  // US server -> US relay: continental.
  EXPECT_GE(p.server_relay[0].delay, 0.015);
  EXPECT_LE(p.server_relay[0].delay, 0.045);
  // US relay -> intl client: rides the client's intercontinental segment,
  // so it is tightly correlated with the direct-path delay.
  EXPECT_GE(p.relay_wan[0].delay,
            std::max(0.035, p.direct_wan.delay - 0.015));
  EXPECT_LE(p.relay_wan[0].delay, p.direct_wan.delay + 0.030);
}

TEST(World, BuildsExpectedTopology) {
  const ScenarioGenerator gen(7, {});
  const auto& client = find_site("Italy");
  const auto& nyu = find_site("NYU");
  const auto& texas = find_site("Texas");
  const auto& server = find_site("eBay");
  const WorldParams params =
      gen.make_world(client, {&nyu, &texas}, server);
  ClientWorld world(params, /*attach_relay_processes=*/true);
  EXPECT_EQ(world.relay_nodes().size(), 2u);
  EXPECT_EQ(world.relay_name(0), "NYU");
  EXPECT_EQ(world.relay_name_of(world.relay_node(1)), "Texas");
  EXPECT_TRUE(
      world.server().resource_size(ClientWorld::kResource).has_value());
  EXPECT_THROW(world.relay_node(5), util::Error);
  EXPECT_THROW(world.relay_name_of(world.client_node()), util::Error);
}

TEST(World, MirroredWorldsSeeIdenticalDirectTransfers) {
  // The mirroring contract: the plain world (no relay processes) and the
  // full world must produce identical direct-path transfer timings.
  const ScenarioGenerator gen(11, {});
  const auto& client = find_site("France");
  const auto& nyu = find_site("NYU");
  const auto& server = find_site("eBay");
  const WorldParams params = gen.make_world(client, {&nyu}, server);

  auto run_direct = [&](bool attach_relays) {
    ClientWorld world(params, attach_relays);
    std::vector<double> rates;
    for (int k = 0; k < 5; ++k) {
      world.simulator().schedule_at(1.0 + 300.0 * k, [&world, &rates] {
        world.begin_direct_download(
            [&rates](const overlay::TransferResult& r) {
              rates.push_back(r.throughput());
            });
      });
    }
    while (rates.size() < 5) {
      IDR_REQUIRE(world.simulator().step(), "drained");
    }
    return rates;
  };

  const auto plain = run_direct(false);
  const auto full = run_direct(true);
  ASSERT_EQ(plain.size(), full.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_DOUBLE_EQ(plain[i], full[i]) << i;
  }
}

TEST(World, SharedSamplePathsMatchPrivateOnes) {
  // A mirrored pair reading one memo per shared link sees the transfers
  // a pair drawing its own processes sees, bit for bit.
  const ScenarioGenerator gen(11, {});
  WorldParams params = gen.make_world(find_site("France"),
                                      {&find_site("NYU")}, find_site("eBay"));
  params.access.cv = 0.3;  // the access link gets a process as well

  auto run_direct = [&](bool attach_relays, const MirroredPaths& mirrored) {
    ClientWorld world(params, attach_relays, mirrored);
    std::vector<double> rates;
    for (int k = 0; k < 5; ++k) {
      world.simulator().schedule_at(1.0 + 300.0 * k, [&world, &rates] {
        world.begin_direct_download(
            [&rates](const overlay::TransferResult& r) {
              rates.push_back(r.throughput());
            });
      });
    }
    while (rates.size() < 5) {
      IDR_REQUIRE(world.simulator().step(), "drained");
    }
    return rates;
  };

  const MirroredPaths mirrored = MirroredPaths::make(params);
  ASSERT_NE(mirrored.access, nullptr);
  const auto shared_a = run_direct(false, mirrored);
  const auto shared_b = run_direct(true, mirrored);
  const auto own_a = run_direct(false, {});
  const auto own_b = run_direct(true, {});
  ASSERT_EQ(shared_b.size(), own_b.size());
  for (std::size_t i = 0; i < own_b.size(); ++i) {
    EXPECT_EQ(shared_a[i], own_a[i]) << i;
    EXPECT_EQ(shared_b[i], own_b[i]) << i;
    EXPECT_EQ(shared_b[i], shared_a[i]) << i;
  }
}

TEST(World, DirectThroughputLandsNearProfile) {
  // Average direct throughput should be in the neighbourhood of the
  // profile's inbound mean (TCP ceilings can shave it).
  const ScenarioGenerator gen(3, {});
  const auto& client = find_site("Sweden");  // 1.8 Mbps profile
  const auto& relay = find_site("NYU");
  const auto& server = find_site("eBay");
  const WorldParams params = gen.make_world(client, {&relay}, server);
  ClientWorld world(params, false);
  util::OnlineStats rates;
  std::size_t pending = 20;
  for (int k = 0; k < 20; ++k) {
    world.simulator().schedule_at(1.0 + 360.0 * k, [&] {
      world.begin_direct_download([&](const overlay::TransferResult& r) {
        rates.add(util::to_mbps(r.throughput()));
        --pending;
      });
    });
  }
  while (pending > 0) {
    IDR_REQUIRE(world.simulator().step(), "drained");
  }
  EXPECT_GT(rates.mean(), 0.4);
  EXPECT_LT(rates.mean(), 3.0);
}

}  // namespace
}  // namespace idr::testbed
