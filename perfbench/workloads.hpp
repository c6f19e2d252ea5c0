// The three workloads. Each fills `report` with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run, Options::trace)
// and records every correctness-gate violation as an error.
#pragma once

#include "common.hpp"

namespace perfbench {

/// sim_sparse, sim_dense.
void run_sim_workload(const Options& options, Report& report);
/// rt_race.
void run_rt_workload(const Options& options, Report& report);

}  // namespace perfbench
