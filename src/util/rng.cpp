#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace idr::util {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t child_stream(std::uint64_t parent, std::uint64_t salt) {
  return splitmix64(parent ^ salt);
}

Mt19937_64::Mt19937_64(result_type seed) {
  // std::mersenne_twister_engine::seed: x[0] = seed,
  // x[i] = f * (x[i-1] ^ (x[i-1] >> (w - 2))) + i.
  state_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    const result_type x = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
  }
}

void Mt19937_64::twist() {
  // The three loops of libstdc++'s _M_gen_rand: each word reads its
  // neighbour and the word kM on, wrapping at the end of the state.
  for (std::size_t k = 0; k < kN - kM; ++k) {
    state_[k] = twist_word(state_[k], state_[k + 1], state_[k + kM]);
  }
  for (std::size_t k = kN - kM; k < kN - 1; ++k) {
    state_[k] = twist_word(state_[k], state_[k + 1], state_[k + kM - kN]);
  }
  state_[kN - 1] = twist_word(state_[kN - 1], state_[0], state_[kM - 1]);
  index_ = 0;
}

Mt19937_64::result_type Mt19937_64::peek() const {
  if (index_ < kN) return temper(state_[index_]);
  // At the end of a block the next word is the twist's first, which reads
  // only words the twist has not yet overwritten.
  return temper(twist_word(state_[0], state_[1], state_[kM]));
}

Rng Rng::child(std::uint64_t salt) const {
  // Hash the salt against a draw-independent fingerprint of this stream's
  // seed state. Using the engine state directly would make child() depend
  // on how many draws preceded it; instead we take the next output word
  // without advancing (what a copy's first draw would return).
  return Rng(EngineSeed{splitmix64(fingerprint() ^ splitmix64(salt))});
}

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::uniform(double lo, double hi) {
  IDR_REQUIRE(lo <= hi, "uniform: lo > hi");
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  IDR_REQUIRE(lo <= hi, "uniform_int: lo > hi");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

bool Rng::bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  return uniform() < p;
}

double Rng::normal() { return polar_normal(engine_, 0.0, 1.0); }

double Rng::normal(double mean, double stddev) {
  IDR_REQUIRE(stddev >= 0.0, "normal: negative stddev");
  return polar_normal(engine_, mean, stddev);
}

double Rng::lognormal_mean_cv(double mean, double cv) {
  IDR_REQUIRE(mean > 0.0, "lognormal_mean_cv: mean must be positive");
  IDR_REQUIRE(cv >= 0.0, "lognormal_mean_cv: negative cv");
  if (cv == 0.0) return mean;
  // For X ~ LogNormal(mu, sigma^2): E[X] = exp(mu + sigma^2/2),
  // CV^2 = exp(sigma^2) - 1. Invert for (mu, sigma).
  const double sigma2 = std::log1p(cv * cv);
  const double mu = std::log(mean) - 0.5 * sigma2;
  // std::lognormal_distribution(mu, sigma): exp(sigma * N(0, 1) + mu).
  return std::exp(std::sqrt(sigma2) * polar_normal(engine_, 0.0, 1.0) + mu);
}

double Rng::exponential(double mean) {
  IDR_REQUIRE(mean > 0.0, "exponential: mean must be positive");
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

double Rng::pareto(double x_m, double alpha) {
  IDR_REQUIRE(x_m > 0.0 && alpha > 0.0, "pareto: parameters must be positive");
  // Inverse-CDF sampling; 1 - U is in (0, 1].
  const double u = 1.0 - uniform();
  return x_m / std::pow(u, 1.0 / alpha);
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  IDR_REQUIRE(k <= n, "sample_without_replacement: k > n");
  // Partial Fisher-Yates: O(n) space, O(k) swaps.
  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(static_cast<std::int64_t>(i),
                    static_cast<std::int64_t>(n) - 1));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  IDR_REQUIRE(!weights.empty(), "weighted_index: empty weights");
  double total = 0.0;
  for (double w : weights) total += std::max(w, 0.0);
  if (total <= 0.0) {
    return static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(weights.size()) - 1));
  }
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= std::max(weights[i], 0.0);
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // floating-point slack on the last bucket
}

}  // namespace idr::util
