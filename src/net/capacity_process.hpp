// Time-varying link capacity processes.
//
// Packet-level simulation of cross-traffic is far more detail than the
// paper's phenomena need; what matters is that *available* path throughput
// varies over time, with category-dependent mean and variability, and that
// occasional jumps occur (the paper attributes its penalties to exactly
// these: path load and statistical multiplexing changing mid-transfer,
// citing He et al.). A CapacityProcess produces a piecewise-constant
// capacity sample path; the flow simulator applies each change to its link
// and reallocates rates.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace idr::net {

using util::Duration;
using util::Rate;

/// One change of a piecewise-constant capacity sample path: the current
/// value holds for `dwell`, then becomes `capacity`.
struct CapacityChange {
  Duration dwell = 0.0;
  Rate capacity = 0.0;
};

class CapacityProcess {
 public:
  virtual ~CapacityProcess() = default;

  /// Capacity at time zero. Called once, first.
  virtual Rate initial(util::Rng& rng) = 0;

  /// Next change after the current one; dwell == infinity means the
  /// capacity never changes again.
  virtual CapacityChange next(util::Rng& rng) = 0;
};

/// Fixed capacity forever.
class ConstantCapacity final : public CapacityProcess {
 public:
  explicit ConstantCapacity(Rate rate);
  Rate initial(util::Rng& rng) override;
  CapacityChange next(util::Rng& rng) override;

 private:
  Rate rate_;
};

/// Lognormal AR(1) fluctuation around a mean: every `step` seconds the
/// available capacity is resampled as mean * exp(z - sigma^2/2) where z
/// follows an AR(1) with per-step persistence `rho` and stationary standard
/// deviation `sigma` chosen so the capacity's coefficient of variation is
/// `cv`. Models smooth load variation from statistical multiplexing.
class LognormalArCapacity final : public CapacityProcess {
 public:
  struct Params {
    Rate mean = 0.0;
    double cv = 0.3;       // stationary coefficient of variation
    double rho = 0.9;      // per-step AR(1) persistence, in [0, 1)
    Duration step = 30.0;  // resample period
    Rate floor = 0.0;      // capacities are clamped to be >= floor (> 0)
  };
  explicit LognormalArCapacity(const Params& params);
  Rate initial(util::Rng& rng) override;
  CapacityChange next(util::Rng& rng) override;

 private:
  Rate sample() const;
  Params p_;
  double sigma_ = 0.0;          // stationary stddev of the log process
  double innovation_sd_ = 0.0;  // sigma_ * sqrt(1 - rho^2)
  double z_ = 0.0;              // current AR(1) state
};

/// Two-state Markov-modulated multiplier on a base rate: mostly "normal"
/// (multiplier 1), occasionally "degraded" (multiplier < 1) with
/// exponential dwell times. Models the abrupt throughput jumps the paper
/// observes on direct paths of high-variability clients.
class MarkovJumpCapacity final : public CapacityProcess {
 public:
  struct Params {
    Rate base = 0.0;
    double degraded_multiplier = 0.25;  // capacity while degraded
    Duration mean_normal_dwell = 20.0 * 60.0;
    Duration mean_degraded_dwell = 3.0 * 60.0;
  };
  explicit MarkovJumpCapacity(const Params& params);
  Rate initial(util::Rng& rng) override;
  CapacityChange next(util::Rng& rng) override;

 private:
  Params p_;
  bool degraded_ = false;
};

/// Product of two processes: capacity = first * (second / second_base).
/// Used to overlay jump degradation on an AR(1) fluctuation. The composite
/// emits a change whenever either component changes.
class ModulatedCapacity final : public CapacityProcess {
 public:
  /// `carrier` provides the absolute capacity; `modulator_base` normalizes
  /// the modulator so a modulator emitting `modulator_base` leaves the
  /// carrier unscaled.
  ModulatedCapacity(std::unique_ptr<CapacityProcess> carrier,
                    std::unique_ptr<CapacityProcess> modulator,
                    Rate modulator_base);
  Rate initial(util::Rng& rng) override;
  CapacityChange next(util::Rng& rng) override;

 private:
  std::unique_ptr<CapacityProcess> carrier_;
  std::unique_ptr<CapacityProcess> modulator_;
  Rate modulator_base_;
  Rate carrier_value_ = 0.0;
  Rate modulator_value_ = 0.0;
  Duration carrier_next_ = 0.0;    // time-to-change remaining, relative
  Duration modulator_next_ = 0.0;
  CapacityChange carrier_pending_{};
  CapacityChange modulator_pending_{};
};

/// One capacity sample path, drawn once and read by several processes.
///
/// The mirrored worlds of a session attach a process to the same link
/// from the same stream, so their sample paths are equal by construction;
/// sharing a memo makes the second world read the first world's draws
/// instead of repeating them. The memo holds the inner process, the stream
/// it draws from (copied from the first reader's initial() call), the
/// initial value and every change drawn so far.
class CapacityPathMemo {
 public:
  explicit CapacityPathMemo(std::unique_ptr<CapacityProcess> inner);

  /// Changes drawn so far, over all readers.
  std::size_t size() const { return changes_.size(); }

 private:
  friend class SharedCapacityProcess;
  std::unique_ptr<CapacityProcess> inner_;
  std::optional<util::Rng> rng_;   // set by the first initial() call
  std::uint64_t fingerprint_ = 0;  // of the stream initial() was given
  Rate initial_ = 0.0;
  std::vector<CapacityChange> changes_;
};

/// A reader of a shared sample path. It keeps its own cursor, returns the
/// memoized changes in order and extends the memo from the shared stream
/// when it runs past the end, so every reader sees exactly the path a
/// private inner process on the same stream would. The stream a reader is
/// handed must be the one the memo was started from (checked by
/// fingerprint); the reader never draws from it.
class SharedCapacityProcess final : public CapacityProcess {
 public:
  explicit SharedCapacityProcess(std::shared_ptr<CapacityPathMemo> memo);
  Rate initial(util::Rng& rng) override;
  CapacityChange next(util::Rng& rng) override;

 private:
  std::shared_ptr<CapacityPathMemo> memo_;
  std::size_t cursor_ = 0;
};

}  // namespace idr::net
