#include "testbed/shard.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>

#include "core/selection_policy.hpp"
#include "testbed/parallel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace idr::testbed {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

inline std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  // FNV-1a over the eight bytes of x, keeping the digest byte-order
  // independent of host endianness concerns by hashing the value bytes in
  // little-endian order.
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t mix(std::uint64_t h, double x) {
  return mix(h, std::bit_cast<std::uint64_t>(x));
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

void ShardSummary::absorb(const SessionResult& session) {
  digest = mix(digest, fnv1a(session.client));
  digest = mix(digest, fnv1a(session.session_relay));
  for (const TransferObservation& t : session.transfers) {
    ++transfers;
    if (t.ok) {
      ++ok;
      improvement_sum += t.improvement_steady_pct;
    } else {
      ++failed;
    }
    if (t.chose_indirect) ++indirect;
    std::uint64_t flags = 0;
    flags |= t.ok ? 1u : 0u;
    flags |= t.chose_indirect ? 2u : 0u;
    flags |= t.fell_back_direct ? 4u : 0u;
    // Bit 3 is always clear under the default always-race policies, so
    // pre-existing digests are unchanged.
    flags |= t.race_skipped ? 8u : 0u;
    digest = mix(digest, flags);
    digest = mix(digest, t.start_time);
    digest = mix(digest, t.selected_rate);
    digest = mix(digest, t.selected_steady_rate);
    digest = mix(digest, t.direct_rate);
    digest = mix(digest, t.improvement_pct);
    digest = mix(digest, t.improvement_steady_pct);
    digest = mix(digest, static_cast<std::uint64_t>(t.probe_failures));
    digest = mix(digest, static_cast<std::uint64_t>(t.retries));
    digest = mix(digest,
                 static_cast<std::uint64_t>(t.overload_rejections));
    digest = mix(digest, fnv1a(t.chosen_relay));
  }
}

void ShardSummary::combine(const ShardSummary& other) {
  transfers += other.transfers;
  ok += other.ok;
  indirect += other.indirect;
  failed += other.failed;
  improvement_sum += other.improvement_sum;
  digest = mix(digest, other.digest);
}

ShardResult run_shard(const ShardSpec& spec) {
  const auto t0 = std::chrono::steady_clock::now();
  ShardResult result;
  result.shard_id = spec.shard_id;
  result.sessions.reserve(spec.sessions.size());

  // The shard's own registry: run-structure series that no per-world
  // registry can see. Merged last so a shard snapshot carries both the
  // simulation series and the execution-shape series.
  obs::Registry registry;
  const obs::Counter shards_run = registry.counter("testbed.shard.shards_run");
  const obs::Counter sessions_run = registry.counter("testbed.shard.sessions");
  const obs::Counter transfers_run =
      registry.counter("testbed.shard.transfers");

  for (const SessionSpec& session_spec : spec.sessions) {
    SessionOutput output = run_session(session_spec);
    result.work += output.result.sim_work;
    result.summary.absorb(output.result);
    sessions_run.inc();
    transfers_run.inc(output.result.transfers.size());
    result.metrics.merge(output.result.metrics);
    result.sessions.push_back(std::move(output));
  }
  shards_run.inc();
  result.metrics.merge(registry.snapshot());
  result.busy_seconds = seconds_since(t0);
  return result;
}

ShardRunResult run_sharded(
    std::vector<ShardSpec> shards, unsigned threads,
    const std::function<void(ShardResult&)>& per_shard) {
  const auto t0 = std::chrono::steady_clock::now();

  // Fork: shards execute in any order on the pool; each result lands in
  // its own slot. The optional reducer runs on the worker so drivers can
  // shed per-transfer memory before the join.
  std::vector<ShardResult> results = parallel_map<ShardResult>(
      shards.size(), threads, [&](std::size_t i) {
        ShardResult r = run_shard(shards[i]);
        if (per_shard) per_shard(r);
        return r;
      });

  // Join: a serial, shard-index-ordered merge. Snapshot merging and
  // digest chaining are order-sensitive, so this loop — not completion
  // order — defines the result, making it independent of thread count.
  ShardRunResult run;
  run.shard_count = results.size();
  for (ShardResult& r : results) {
    run.summary.combine(r.summary);
    run.work += r.work;
    run.busy_seconds += r.busy_seconds;
    run.metrics.merge(r.metrics);
    for (SessionOutput& s : r.sessions) {
      run.outputs.push_back(std::move(s));
    }
  }
  run.wall_seconds = seconds_since(t0);
  return run;
}

std::vector<ShardSpec> plan_shards(std::vector<SessionSpec> sessions,
                                   std::size_t sessions_per_shard) {
  IDR_REQUIRE(sessions_per_shard > 0, "plan_shards: empty shard size");
  std::vector<ShardSpec> shards;
  for (std::size_t begin = 0; begin < sessions.size();
       begin += sessions_per_shard) {
    const std::size_t end =
        std::min(begin + sessions_per_shard, sessions.size());
    ShardSpec shard;
    shard.shard_id = shards.size();
    shard.sessions.assign(std::move_iterator(sessions.begin() + begin),
                          std::move_iterator(sessions.begin() + end));
    shards.push_back(std::move(shard));
  }
  return shards;
}

// --- Planet-scale fleets ----------------------------------------------------

namespace {

/// A synthesized variant of a calibrated base profile. All perturbations
/// draw from child_stream(seed, fnv1a(name)): the variant is a pure
/// function of (seed, name).
SiteProfile synthesize_site(const SiteProfile& base, std::string_view name,
                            std::uint64_t seed) {
  util::Rng rng{util::child_stream(seed, fnv1a(name))};
  SiteProfile site = base;
  site.name = name;
  site.inbound_mbps =
      std::max(0.2, base.inbound_mbps * rng.lognormal_mean_cv(1.0, 0.25));
  site.variability_cv = std::clamp(
      base.variability_cv * rng.lognormal_mean_cv(1.0, 0.15), 0.05, 0.80);
  site.access_mbps =
      std::max(1.0, base.access_mbps * rng.lognormal_mean_cv(1.0, 0.10));
  site.relay_goodness = std::max(
      0.1, base.relay_goodness * rng.lognormal_mean_cv(1.0, 0.15));
  site.base_loss =
      std::clamp(base.base_loss * rng.lognormal_mean_cv(1.0, 0.30), 1e-4,
                 0.02);
  // Jumpy direct paths stay mostly jumpy; stable ones occasionally pick
  // up episodes, keeping the population's High-penalty tail alive at any
  // fleet size.
  site.jumpy = rng.bernoulli(base.jumpy ? 0.75 : 0.05);
  return site;
}

}  // namespace

SyntheticFleet::SyntheticFleet(const FleetSpec& spec)
    : server_(find_site(spec.server)) {
  IDR_REQUIRE(spec.clients > 0, "SyntheticFleet: no clients");
  IDR_REQUIRE(spec.relay_pool > 0, "SyntheticFleet: empty relay pool");
  const auto& client_bases = client_sites();
  const auto& relay_bases = relay_sites();

  clients_.reserve(spec.clients);
  for (std::size_t i = 0; i < spec.clients; ++i) {
    const SiteProfile& base = client_bases[i % client_bases.size()];
    names_.push_back(std::string(base.name) + "#" + std::to_string(i));
    clients_.push_back(synthesize_site(base, names_.back(), spec.seed));
  }
  relays_.reserve(spec.relay_pool);
  for (std::size_t i = 0; i < spec.relay_pool; ++i) {
    const SiteProfile& base = relay_bases[i % relay_bases.size()];
    names_.push_back(std::string(base.name) + "#" + std::to_string(i));
    relays_.push_back(synthesize_site(base, names_.back(), spec.seed));
  }
}

std::vector<ShardSpec> plan_fleet_shards(const FleetSpec& spec,
                                         const SyntheticFleet& fleet) {
  IDR_REQUIRE(spec.clients_per_shard > 0,
              "plan_fleet_shards: empty shard size");
  IDR_REQUIRE(spec.relays_per_client > 0 &&
                  spec.relays_per_client <= fleet.relays().size(),
              "plan_fleet_shards: relays_per_client out of range");
  IDR_REQUIRE(spec.probe_set > 0, "plan_fleet_shards: empty probe set");
  IDR_REQUIRE(spec.transfers_per_client > 0,
              "plan_fleet_shards: no transfers");

  const ScenarioGenerator generator(spec.seed, spec.knobs);
  PolicyParams params = spec.policy;
  params.subset_size = std::min(spec.probe_set, spec.relays_per_client);

  std::vector<ShardSpec> shards;
  for (std::size_t begin = 0; begin < fleet.clients().size();
       begin += spec.clients_per_shard) {
    const std::size_t end =
        std::min(begin + spec.clients_per_shard, fleet.clients().size());
    ShardSpec shard;
    shard.shard_id = shards.size();
    // Every stream under this shard is keyed by (root seed, shard id,
    // client name): stable across thread counts AND across re-planning,
    // since client-to-shard assignment is itself a pure function of the
    // spec.
    const std::uint64_t shard_seed =
        util::child_stream(spec.seed, shard.shard_id);

    for (std::size_t c = begin; c < end; ++c) {
      const SiteProfile& client = fleet.clients()[c];
      util::Rng roster_rng{
          util::child_stream(shard_seed, fnv1a(client.name))};
      const std::vector<std::size_t> picks =
          roster_rng.sample_without_replacement(fleet.relays().size(),
                                                spec.relays_per_client);
      std::vector<const SiteProfile*> roster;
      roster.reserve(picks.size());
      for (std::size_t p : picks) roster.push_back(&fleet.relays()[p]);

      SessionSpec session;
      session.params = generator.make_world(client, roster, fleet.server());
      session.transfers = spec.transfers_per_client;
      session.interval = spec.interval;
      session.client_seed =
          util::child_stream(shard_seed, fnv1a(client.name) * 29);
      session.policy_factory =
          [params](ClientWorld&) -> std::unique_ptr<core::SelectionPolicy> {
        return make_policy(params);
      };
      shard.sessions.push_back(std::move(session));
    }
    shards.push_back(std::move(shard));
  }
  return shards;
}

}  // namespace idr::testbed
