#include "testbed/world.hpp"

#include "util/error.hpp"

namespace idr::testbed {

namespace {

std::unique_ptr<net::CapacityProcess> make_process(const LinkSpec& spec) {
  IDR_REQUIRE(spec.mean > 0.0, "LinkSpec: non-positive mean capacity");
  std::unique_ptr<net::CapacityProcess> carrier;
  if (spec.cv > 0.0) {
    net::LognormalArCapacity::Params p;
    p.mean = spec.mean;
    p.cv = spec.cv;
    p.rho = spec.rho;
    p.step = spec.step;
    carrier = std::make_unique<net::LognormalArCapacity>(p);
  } else {
    carrier = std::make_unique<net::ConstantCapacity>(spec.mean);
  }
  if (!spec.jumps) return carrier;
  net::MarkovJumpCapacity::Params j;
  j.base = 1.0;  // pure multiplier stream, normalized by modulator_base = 1
  j.degraded_multiplier = spec.jump_multiplier;
  j.mean_normal_dwell = spec.normal_dwell;
  j.mean_degraded_dwell = spec.degraded_dwell;
  return std::make_unique<net::ModulatedCapacity>(
      std::move(carrier), std::make_unique<net::MarkovJumpCapacity>(j),
      /*modulator_base=*/1.0);
}

}  // namespace

ClientWorld::ClientWorld(const WorldParams& params,
                         bool attach_relay_processes)
    : params_(params) {
  IDR_REQUIRE(params_.relay_wan.size() == params_.relay_names.size() &&
                  params_.server_relay.size() == params_.relay_names.size(),
              "WorldParams: relay spec counts mismatch");

  // Node and link creation order is part of the mirroring contract:
  // capacity-process streams are derived from link ids, so both mirrors
  // must build identical topologies.
  server_node_ = topo_.add_node(params_.server_name, /*transit=*/false);
  gateway_ = topo_.add_node(params_.client_name + " gw");
  client_ = topo_.add_node(params_.client_name, /*transit=*/false);
  for (const std::string& name : params_.relay_names) {
    // Relays forward at the application layer only (split TCP); they are
    // not IP transit, so the "direct" route can never sneak through them.
    relays_.push_back(topo_.add_node(name, /*transit=*/false));
  }

  const net::LinkId direct_link =
      topo_.add_link(server_node_, gateway_, params_.direct_wan.mean,
                     params_.direct_wan.delay, params_.direct_wan.loss);
  const net::LinkId access_link =
      topo_.add_link(gateway_, client_, params_.access.mean,
                     params_.access.delay, params_.access.loss);
  std::vector<net::LinkId> relay_links;
  std::vector<net::LinkId> server_relay_links;
  for (std::size_t i = 0; i < relays_.size(); ++i) {
    server_relay_links.push_back(topo_.add_link(
        server_node_, relays_[i], params_.server_relay[i].mean,
        params_.server_relay[i].delay, params_.server_relay[i].loss));
    relay_links.push_back(topo_.add_link(
        relays_[i], gateway_, params_.relay_wan[i].mean,
        params_.relay_wan[i].delay, params_.relay_wan[i].loss));
  }

  fsim_ = std::make_unique<flow::FlowSimulator>(
      sim_, topo_, util::Rng(params_.process_seed));
  fsim_->attach_capacity_process(direct_link,
                                 make_process(params_.direct_wan));
  if (params_.access.cv > 0.0 || params_.access.jumps) {
    fsim_->attach_capacity_process(access_link,
                                   make_process(params_.access));
  }
  if (attach_relay_processes) {
    for (std::size_t i = 0; i < relays_.size(); ++i) {
      fsim_->attach_capacity_process(relay_links[i],
                                     make_process(params_.relay_wan[i]));
      if (params_.server_relay[i].cv > 0.0) {
        fsim_->attach_capacity_process(
            server_relay_links[i], make_process(params_.server_relay[i]));
      }
    }
  }

  server_ = std::make_unique<overlay::WebServerModel>(
      server_node_, params_.server_name);
  server_->add_resource(kResource, params_.file_size);

  engine_ = std::make_unique<overlay::TransferEngine>(*fsim_);
  engine_->set_setup_jitter(params_.setup_jitter_max);
  for (net::NodeId relay : relays_) {
    engine_->set_relay_params(relay, params_.relay_params);
  }

  // Faults hit only the selecting mirror (attach_relay_processes == true):
  // the plain mirror is the paper's concurrent reference measurement and
  // must keep seeing the undisturbed network.
  if (params_.fault.enabled && attach_relay_processes) {
    schedule_ = fault::FaultSchedule::generate(params_.fault, relays_.size(),
                                               params_.process_seed);
    for (const fault::FaultWindow& window : schedule_.windows) {
      const net::NodeId node = window.target == fault::kDirectPath
                                   ? net::kInvalidNode
                                   : relays_.at(window.target);
      sim_.schedule_at(window.start, [this, node] {
        if (node == net::kInvalidNode) {
          engine_->set_direct_down(true);
        } else {
          engine_->set_relay_down(node, true);
        }
      }, sim::EventKind::kFault);
      sim_.schedule_at(window.end, [this, node] {
        if (node == net::kInvalidNode) {
          engine_->set_direct_down(false);
        } else {
          engine_->set_relay_down(node, false);
        }
      }, sim::EventKind::kFault);
    }
    for (const fault::FaultReset& reset : schedule_.resets) {
      const net::NodeId node = reset.target == fault::kDirectPath
                                   ? net::kInvalidNode
                                   : relays_.at(reset.target);
      sim_.schedule_at(
          reset.time, [this, node] { engine_->inject_reset(node); },
          sim::EventKind::kFault);
    }
  }
}

net::NodeId ClientWorld::relay_node(std::size_t index) const {
  IDR_REQUIRE(index < relays_.size(), "relay_node: index out of range");
  return relays_[index];
}

const std::string& ClientWorld::relay_name(std::size_t index) const {
  IDR_REQUIRE(index < params_.relay_names.size(),
              "relay_name: index out of range");
  return params_.relay_names[index];
}

const std::string& ClientWorld::relay_name_of(net::NodeId node) const {
  for (std::size_t i = 0; i < relays_.size(); ++i) {
    if (relays_[i] == node) return params_.relay_names[i];
  }
  ::idr::util::fail("relay_name_of: node is not a relay");
}

std::unique_ptr<core::IndirectRoutingClient> ClientWorld::make_client(
    std::unique_ptr<core::SelectionPolicy> policy, util::Rng rng,
    obs::FlightRecorder* flights) {
  core::ClientConfig config;
  config.client_node = client_;
  config.server = server_.get();
  config.resource = kResource;
  config.probe_bytes = params_.probe_bytes;
  config.tcp = params_.tcp;
  config.probe_timeout = params_.probe_timeout;
  config.retry = params_.retry;
  config.estimate_half_life = params_.estimate_half_life;
  config.flights = flights;
  auto client = std::make_unique<core::IndirectRoutingClient>(
      *engine_, config, std::move(policy), rng);
  for (std::size_t i = 0; i < relays_.size(); ++i) {
    client->register_relay(relays_[i], params_.relay_names[i]);
  }
  return client;
}

overlay::TransferHandle ClientWorld::begin_direct_download(
    overlay::TransferCallback on_done) {
  overlay::TransferRequest req;
  req.client = client_;
  req.server = server_.get();
  req.resource = kResource;
  req.tcp = params_.tcp;
  return engine_->begin(req, std::move(on_done));
}

}  // namespace idr::testbed
