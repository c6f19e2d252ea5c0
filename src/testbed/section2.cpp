#include "testbed/section2.hpp"

#include <algorithm>

#include "testbed/session.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace idr::testbed {

namespace {

std::vector<const SiteProfile*> pick_relays(const SiteProfile& client,
                                            std::size_t count,
                                            std::uint64_t seed) {
  const auto& all = relay_sites();
  if (count == 0 || count >= all.size()) {
    std::vector<const SiteProfile*> out;
    for (const auto& r : all) out.push_back(&r);
    return out;
  }
  // Deterministic per-client sample so every relay shows up across enough
  // clients for the Fig. 5 aggregation.
  util::Rng rng{util::child_stream(seed, fnv1a(client.name))};
  const auto picks = rng.sample_without_replacement(all.size(), count);
  std::vector<const SiteProfile*> out;
  for (std::size_t i : picks) out.push_back(&all[i]);
  return out;
}

// The "a priori good" relay of the paper: rank the full relay set by the
// expected bandwidth of the relay->client leg (what an operator measuring
// overlay links ahead of time would know) and take the rank-th best.
const SiteProfile* apriori_good_relay(const ScenarioGenerator& generator,
                                      const SiteProfile& client,
                                      const SiteProfile& server,
                                      std::size_t rank) {
  const auto& all = relay_sites();
  std::vector<const SiteProfile*> roster;
  for (const auto& r : all) roster.push_back(&r);
  const WorldParams probe = generator.make_world(client, roster, server);
  std::vector<std::size_t> order(roster.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return probe.relay_wan[a].mean > probe.relay_wan[b].mean;
                   });
  return roster[order[std::min(rank, order.size() - 1)]];
}

}  // namespace

Section2Result run_section2(const Section2Config& config) {
  const SiteProfile& server = find_site(config.server);

  std::vector<const SiteProfile*> clients;
  if (config.clients.empty()) {
    for (const auto& c : client_sites()) clients.push_back(&c);
  } else {
    for (const auto& name : config.clients) {
      clients.push_back(&find_site(name));
    }
  }

  const ScenarioGenerator generator(config.seed, config.knobs);

  // One session per (client, relay) pair, traced on its task index.
  std::vector<SessionSpec> specs;
  auto add_session = [&](const SiteProfile& client,
                         const SiteProfile& relay) {
    SessionSpec spec;
    spec.params = generator.make_world(client, {&relay}, server);
    // Distinct bandwidth sample paths per session: mix the relay into the
    // process seed (make_world already folds the roster in, but keep the
    // transfer cadence seed distinct too).
    spec.client_seed = util::child_stream(
        config.seed, fnv1a(client.name) ^ (fnv1a(relay.name) * 17));
    spec.transfers = config.transfers_per_session;
    spec.interval = config.interval;
    spec.session_relay_label = std::string(relay.name);
    spec.tracer = config.tracer;
    spec.trace_track = static_cast<std::uint32_t>(specs.size());
    spec.flights = config.flights;
    spec.sample_period = config.sample_period;
    spec.sample_capacity = config.sample_capacity;
    spec.policy_factory = [](ClientWorld& world) {
      return std::make_unique<core::StaticRelayPolicy>(world.relay_node(0));
    };
    specs.push_back(std::move(spec));
  };
  for (const SiteProfile* client : clients) {
    if (config.assignment == RelayAssignment::AprioriGood) {
      add_session(*client, *apriori_good_relay(generator, *client, server,
                                               config.good_rank));
    } else {
      for (const SiteProfile* relay :
           pick_relays(*client, config.relays_per_client, config.seed)) {
        add_session(*client, *relay);
      }
    }
  }

  ShardRunResult run =
      run_sharded(plan_shards(std::move(specs), 1), config.threads);
  Section2Result result;
  result.sessions.reserve(run.outputs.size());
  for (SessionOutput& output : run.outputs) {
    result.sessions.push_back(std::move(output.result));
  }
  result.metrics = std::move(run.metrics);
  result.work = run.work;
  result.summary = run.summary;
  return result;
}

}  // namespace idr::testbed
