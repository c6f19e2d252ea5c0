#include "net/capacity_process.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace idr::net {

namespace {
constexpr Duration kNever = std::numeric_limits<Duration>::infinity();
}

ConstantCapacity::ConstantCapacity(Rate rate) : rate_(rate) {
  IDR_REQUIRE(rate_ > 0.0, "ConstantCapacity: non-positive rate");
}

Rate ConstantCapacity::initial(util::Rng&) { return rate_; }

CapacityChange ConstantCapacity::next(util::Rng&) {
  return {kNever, rate_};
}

LognormalArCapacity::LognormalArCapacity(const Params& params) : p_(params) {
  IDR_REQUIRE(p_.mean > 0.0, "LognormalArCapacity: non-positive mean");
  IDR_REQUIRE(p_.cv >= 0.0, "LognormalArCapacity: negative cv");
  IDR_REQUIRE(p_.rho >= 0.0 && p_.rho < 1.0,
              "LognormalArCapacity: rho outside [0,1)");
  IDR_REQUIRE(p_.step > 0.0, "LognormalArCapacity: non-positive step");
  if (p_.floor <= 0.0) p_.floor = p_.mean * 1e-3;
  sigma_ = std::sqrt(std::log1p(p_.cv * p_.cv));
  innovation_sd_ = sigma_ * std::sqrt(std::max(0.0, 1.0 - p_.rho * p_.rho));
}

Rate LognormalArCapacity::sample() const {
  // exp(z - sigma^2/2) has mean 1 when z ~ N(0, sigma^2), so the capacity
  // has mean p_.mean in stationarity.
  return std::max(p_.floor, p_.mean * std::exp(z_ - 0.5 * sigma_ * sigma_));
}

Rate LognormalArCapacity::initial(util::Rng& rng) {
  z_ = rng.normal(0.0, sigma_);  // draw from the stationary distribution
  return sample();
}

CapacityChange LognormalArCapacity::next(util::Rng& rng) {
  if (sigma_ == 0.0) return {kNever, sample()};
  z_ = p_.rho * z_ + rng.normal(0.0, innovation_sd_);
  return {p_.step, sample()};
}

MarkovJumpCapacity::MarkovJumpCapacity(const Params& params) : p_(params) {
  IDR_REQUIRE(p_.base > 0.0, "MarkovJumpCapacity: non-positive base");
  IDR_REQUIRE(p_.degraded_multiplier > 0.0 && p_.degraded_multiplier <= 1.0,
              "MarkovJumpCapacity: multiplier outside (0,1]");
  IDR_REQUIRE(p_.mean_normal_dwell > 0.0 && p_.mean_degraded_dwell > 0.0,
              "MarkovJumpCapacity: non-positive dwell");
}

Rate MarkovJumpCapacity::initial(util::Rng&) {
  degraded_ = false;
  return p_.base;
}

CapacityChange MarkovJumpCapacity::next(util::Rng& rng) {
  const Duration dwell = rng.exponential(
      degraded_ ? p_.mean_degraded_dwell : p_.mean_normal_dwell);
  degraded_ = !degraded_;
  const Rate cap =
      degraded_ ? p_.base * p_.degraded_multiplier : p_.base;
  return {dwell, cap};
}

ModulatedCapacity::ModulatedCapacity(
    std::unique_ptr<CapacityProcess> carrier,
    std::unique_ptr<CapacityProcess> modulator, Rate modulator_base)
    : carrier_(std::move(carrier)),
      modulator_(std::move(modulator)),
      modulator_base_(modulator_base) {
  IDR_REQUIRE(carrier_ != nullptr && modulator_ != nullptr,
              "ModulatedCapacity: null component");
  IDR_REQUIRE(modulator_base_ > 0.0,
              "ModulatedCapacity: non-positive modulator base");
}

Rate ModulatedCapacity::initial(util::Rng& rng) {
  carrier_value_ = carrier_->initial(rng);
  modulator_value_ = modulator_->initial(rng);
  carrier_pending_ = carrier_->next(rng);
  modulator_pending_ = modulator_->next(rng);
  carrier_next_ = carrier_pending_.dwell;
  modulator_next_ = modulator_pending_.dwell;
  return carrier_value_ * (modulator_value_ / modulator_base_);
}

CapacityChange ModulatedCapacity::next(util::Rng& rng) {
  const Duration dt = std::min(carrier_next_, modulator_next_);
  if (std::isinf(dt)) {
    return {kNever, carrier_value_ * (modulator_value_ / modulator_base_)};
  }
  carrier_next_ -= dt;
  modulator_next_ -= dt;
  if (carrier_next_ <= 0.0) {
    carrier_value_ = carrier_pending_.capacity;
    carrier_pending_ = carrier_->next(rng);
    carrier_next_ = carrier_pending_.dwell;
  }
  if (modulator_next_ <= 0.0) {
    modulator_value_ = modulator_pending_.capacity;
    modulator_pending_ = modulator_->next(rng);
    modulator_next_ = modulator_pending_.dwell;
  }
  return {dt, carrier_value_ * (modulator_value_ / modulator_base_)};
}

CapacityPathMemo::CapacityPathMemo(std::unique_ptr<CapacityProcess> inner)
    : inner_(std::move(inner)) {
  IDR_REQUIRE(inner_ != nullptr, "CapacityPathMemo: null process");
}

SharedCapacityProcess::SharedCapacityProcess(
    std::shared_ptr<CapacityPathMemo> memo)
    : memo_(std::move(memo)) {
  IDR_REQUIRE(memo_ != nullptr, "SharedCapacityProcess: null memo");
}

Rate SharedCapacityProcess::initial(util::Rng& rng) {
  CapacityPathMemo& m = *memo_;
  cursor_ = 0;
  if (!m.rng_) {
    m.fingerprint_ = rng.fingerprint();
    m.rng_.emplace(rng);
    m.initial_ = m.inner_->initial(*m.rng_);
  } else {
    IDR_REQUIRE(rng.fingerprint() == m.fingerprint_,
                "SharedCapacityProcess: reader on a different stream");
  }
  return m.initial_;
}

CapacityChange SharedCapacityProcess::next(util::Rng&) {
  CapacityPathMemo& m = *memo_;
  IDR_REQUIRE(m.rng_.has_value(),
              "SharedCapacityProcess: next() before initial()");
  if (cursor_ == m.changes_.size()) {
    m.changes_.push_back(m.inner_->next(*m.rng_));
  }
  return m.changes_[cursor_++];
}

}  // namespace idr::net
