// Shared option handling for the figure/table reproduction binaries.
//
// Each binary runs at a scaled-down default (finishing in seconds) and
// accepts --paper for the full-fidelity parameters of the study
// (100 transfers x 6 min for Section 2, 720 x 30 s for Section 4) plus
// --seed=N and --threads=N. Scaled runs preserve the qualitative shape of
// every result; EXPERIMENTS.md records numbers from both.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "obs/sink.hpp"
#include "testbed/section2.hpp"
#include "testbed/section4.hpp"

namespace idr::bench {

struct Options {
  bool paper_scale = false;
  std::uint64_t seed = 2007;
  unsigned threads = 0;
};

inline Options parse_options(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--paper") {
      opts.paper_scale = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      opts.seed = std::strtoull(arg.data() + 7, nullptr, 10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      opts.threads =
          static_cast<unsigned>(std::strtoul(arg.data() + 10, nullptr, 10));
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s [--paper] [--seed=N] [--threads=N]\n", argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", std::string(arg).c_str());
      std::exit(2);
    }
  }
  return opts;
}

/// Section 2 configuration with the paper's "a priori good" static relay
/// per client — the dataset behind Figs. 1-4 and Table I.
inline testbed::Section2Config section2_good_relay_config(
    const Options& opts) {
  testbed::Section2Config config;
  config.seed = opts.seed;
  config.threads = opts.threads;
  config.assignment = testbed::RelayAssignment::AprioriGood;
  if (opts.paper_scale) {
    config.transfers_per_session = 100;
    config.interval = util::minutes(6);
  } else {
    config.transfers_per_session = 60;
    config.interval = util::minutes(3);
  }
  return config;
}

/// Section 2 configuration rotating each client across sampled relays —
/// the dataset behind the utilization analyses (Table II, Fig. 5).
inline testbed::Section2Config section2_rotation_config(
    const Options& opts) {
  testbed::Section2Config config;
  config.seed = opts.seed;
  config.threads = opts.threads;
  config.assignment = testbed::RelayAssignment::RotateSampled;
  if (opts.paper_scale) {
    config.relays_per_client = 0;  // all 21 relays per client
    config.transfers_per_session = 100;
    config.interval = util::minutes(6);
  } else {
    config.relays_per_client = 6;
    config.transfers_per_session = 40;
    config.interval = util::minutes(3);
  }
  return config;
}

/// Section 4 configuration: scaled (default) or paper fidelity.
inline testbed::Section4Config section4_config(const Options& opts) {
  testbed::Section4Config config;
  config.seed = opts.seed;
  config.threads = opts.threads;
  if (opts.paper_scale) {
    config.transfers = 720;
    config.interval = util::seconds(30);
    config.set_sizes = {1, 2, 3, 5, 7, 10, 15, 20, 25, 30, 35};
  } else {
    config.transfers = 120;
    config.interval = util::seconds(45);
    config.set_sizes = {1, 2, 3, 5, 7, 10, 15, 25, 35};
  }
  return config;
}

inline void print_header(const char* artifact, const char* paper_claim,
                         const Options& opts) {
  std::printf("== %s ==\n", artifact);
  std::printf("paper reports: %s\n", paper_claim);
  std::printf("run: %s scale, seed %llu\n\n",
              opts.paper_scale ? "paper" : "scaled",
              static_cast<unsigned long long>(opts.seed));
}

/// A SchedulerWork tally rendered as the `sim.core.*` registry series —
/// the bridge for drivers that accumulate event-core counters outside the
/// session runner.
inline obs::Snapshot scheduler_snapshot(const testbed::SchedulerWork& work) {
  obs::Registry registry;
  registry.counter("sim.core.events_executed").inc(work.executed);
  registry.counter("sim.core.events_cancelled").inc(work.cancellations);
  registry.counter("sim.core.events_rescheduled").inc(work.reschedules);
  return registry.snapshot();
}

/// Prints the event-core work behind a result set, read from the merged
/// registry snapshot's `sim.core.*` series. Goes to stderr: stdout
/// carries the figure/table data and must stay byte-stable across
/// performance work, while this line is allowed to move with scheduler
/// internals.
inline void print_scheduler_work(const obs::Snapshot& snapshot) {
  auto series = [&](const char* name) -> unsigned long long {
    const obs::MetricValue* m = snapshot.find(name);
    return m != nullptr ? static_cast<unsigned long long>(m->count) : 0ULL;
  };
  std::fprintf(stderr,
               "[scheduler] events executed=%llu cancelled=%llu "
               "rescheduled=%llu\n",
               series("sim.core.events_executed"),
               series("sim.core.events_cancelled"),
               series("sim.core.events_rescheduled"));
}

inline void print_scheduler_work(const testbed::SchedulerWork& work) {
  print_scheduler_work(scheduler_snapshot(work));
}

/// Bench epilogue: the scheduler-work line plus IDR_OBS_OUT artifacts
/// (metrics JSON + prometheus text, and the Chrome trace when `tracer`
/// captured spans). A no-op sink keeps default runs byte-identical.
inline void finish_run(const char* run_name, const obs::Snapshot& snapshot,
                       const obs::Tracer* tracer = nullptr) {
  print_scheduler_work(snapshot);
  obs::dump_run(run_name, snapshot, tracer);
}

}  // namespace idr::bench
