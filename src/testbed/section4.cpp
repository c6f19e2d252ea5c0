#include "testbed/section4.hpp"

#include <algorithm>

#include "testbed/session.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace idr::testbed {

const Section4Cell& Section4Result::cell(const std::string& client,
                                         std::size_t set_size) const {
  for (const auto& c : cells) {
    if (c.client == client && c.set_size == set_size) return c;
  }
  ::idr::util::fail("Section4Result: no cell for " + client + "/n=" +
                    std::to_string(set_size));
}

std::vector<const SiteProfile*> section4_relays(
    const Section4Config& config, const std::string& client,
    std::size_t count) {
  std::vector<const SiteProfile*> roster;
  auto excluded = [&](std::string_view name) {
    if (name == client) return true;
    return std::find(config.clients.begin(), config.clients.end(),
                     std::string(name)) != config.clients.end();
  };
  for (const auto& r : relay_sites()) {
    if (!excluded(r.name) && roster.size() < count) roster.push_back(&r);
  }
  for (const auto& c : client_sites()) {
    if (!excluded(c.name) && roster.size() < count) roster.push_back(&c);
  }
  IDR_REQUIRE(roster.size() == count,
              "section4_relays: not enough sites for requested roster");
  return roster;
}

Section4Result run_section4(const Section4Config& config) {
  IDR_REQUIRE(config.client_inbound_mbps.size() == config.clients.size(),
              "Section4Config: inbound overrides must parallel clients");
  const SiteProfile& server = find_site(config.server);
  const ScenarioGenerator generator(config.seed, config.knobs);

  // One session per (client, set size) cell, traced on its task index.
  std::vector<SessionSpec> specs;
  Section4Result result;
  for (std::size_t c = 0; c < config.clients.size(); ++c) {
    const std::string& client_name = config.clients[c];
    const SiteProfile& client = find_site(client_name);
    const WorldParams world = generator.make_world(
        client, section4_relays(config, client_name, config.relay_count),
        server, config.client_inbound_mbps[c]);
    for (std::size_t n : config.set_sizes) {
      SessionSpec spec;
      spec.params = world;
      spec.transfers = config.transfers;
      spec.interval = config.interval;
      spec.tracer = config.tracer;
      spec.trace_track = static_cast<std::uint32_t>(specs.size());
      spec.client_seed = util::child_stream(
          config.seed, fnv1a(client_name) ^ (n * 1000003ULL));
      PolicyParams params = config.policy;
      params.subset_size = n;
      spec.policy_factory =
          [params](ClientWorld&) -> std::unique_ptr<core::SelectionPolicy> {
        return make_policy(params);
      };
      specs.push_back(std::move(spec));
      Section4Cell& cell = result.cells.emplace_back();
      cell.client = client_name;
      cell.set_size = n;
    }
  }

  ShardRunResult run =
      run_sharded(plan_shards(std::move(specs), 1), config.threads);
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    Section4Cell& cell = result.cells[i];
    SessionOutput& output = run.outputs[i];
    cell.utilization = output.result.utilization();
    util::OnlineStats improvements;
    for (const auto& t : output.result.transfers) {
      // Section 4's metric is the steady-phase throughput of the selected
      // path: with up to 35 concurrent probes, charging the race to the
      // transfer would plot probing cost, not path quality.
      if (t.ok) improvements.add(t.improvement_steady_pct);
    }
    cell.avg_improvement_pct = improvements.mean();
    cell.session = std::move(output.result);
    cell.relay_stats = std::move(output.relay_stats);
  }
  result.metrics = std::move(run.metrics);
  result.work = run.work;
  result.summary = run.summary;
  return result;
}

}  // namespace idr::testbed
