// Deterministic random-number generation.
//
// Every stochastic component of the library draws from an explicitly seeded
// Rng. Experiment drivers derive independent child streams from a root seed
// (via splitmix64) so Monte-Carlo trials can run on any number of threads
// and still produce bitwise-identical results.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace idr::util {

/// Mixes a 64-bit value; used to derive decorrelated child seeds.
std::uint64_t splitmix64(std::uint64_t x);

/// THE seed-derivation rule for parallel and sharded execution: the seed
/// of a child stream is `splitmix64(parent ^ salt)`. Every layer that
/// fans a root seed out to independent tasks (sessions, shards, per-site
/// parameter draws) derives through this function with a *stable* salt —
/// an FNV-hashed name, a shard id, a task index — never through draw
/// order, so any number of worker threads replays the identical streams.
/// The rule is pinned by tests (test_util_rng) and must never change:
/// all committed goldens and BENCH baselines depend on it.
std::uint64_t child_stream(std::uint64_t parent, std::uint64_t salt);

/// MT19937-64 with exactly std::mt19937_64's output: the same seeding
/// recurrence, twist and tempering, so every committed golden and digest
/// holds. Written out here for its branch-free twist, about 3.5x cheaper
/// per word than libstdc++'s on the capacity processes' draw-heavy paths.
/// Meets UniformRandomBitGenerator, so the std distributions draw from it
/// exactly as from std::mt19937_64 (they see only min(), max() and the
/// words).
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed);

  result_type operator()() {
    if (index_ >= kN) twist();
    return temper(state_[index_++]);
  }

  /// The word operator() would return next, without advancing.
  result_type peek() const;

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr result_type kMatrixA = 0xb5026f5aa96619e9ULL;
  static constexpr result_type kUpperMask = ~result_type{0} << 31;
  static constexpr result_type kLowerMask = ~kUpperMask;

  /// One word of the twist recurrence: the successor of `x` given its
  /// neighbour `x_next` and the word `x_m` kM places on.
  static result_type twist_word(result_type x, result_type x_next,
                                result_type x_m) {
    const result_type y = (x & kUpperMask) | (x_next & kLowerMask);
    // Branch-free select of kMatrixA on the low bit: the bit is a coin
    // flip, so a conditional jump here mispredicts half the time.
    return x_m ^ (y >> 1) ^ ((result_type{0} - (y & 1)) & kMatrixA);
  }
  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }
  void twist();

  std::array<result_type, kN> state_;
  std::size_t index_ = kN;
};

/// std::generate_canonical<double, 53> on a 64-bit engine, as libstdc++
/// computes it: one word scaled by 2^-64, and a word that rounds up to 1.0
/// clamped to the largest double below 1.
template <typename Engine>
double canonical_double(Engine& engine) {
  static_assert(Engine::min() == 0 && Engine::max() == ~std::uint64_t{0});
  const double u = static_cast<double>(engine()) * 0x1p-64;
  return u < 1.0 ? u : std::nextafter(1.0, 0.0);
}

/// One draw of a freshly constructed std::normal_distribution(mean,
/// stddev) as libstdc++ computes it (Marsaglia's polar method; the second
/// variate of the accepted pair is discarded, as a distribution used once
/// discards it), without building the distribution.
template <typename Engine>
double polar_normal(Engine& engine, double mean, double stddev) {
  double x = 0.0, y = 0.0, r2 = 0.0;
  do {
    x = 2.0 * canonical_double(engine) - 1.0;
    y = 2.0 * canonical_double(engine) - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  return y * std::sqrt(-2.0 * std::log(r2) / r2) * stddev + mean;
}

/// A seeded pseudo-random stream with the distributions the library needs.
///
/// Thin wrapper over Mt19937_64 (std::mt19937_64's stream). Copyable
/// (copies the full state), so a component can snapshot its stream for
/// replay.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(splitmix64(seed)) {}

  /// Derives an independent child stream. Children with distinct salts are
  /// decorrelated from each other and from this stream's future output.
  Rng child(std::uint64_t salt) const;

  /// A draw-free fingerprint of this stream's position: the next engine
  /// word. Two streams with equal fingerprints produce the same output
  /// (up to a 2^-64 collision).
  std::uint64_t fingerprint() const { return engine_.peek(); }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// True with probability p (p clamped to [0, 1]).
  bool bernoulli(double p);

  /// Standard-normal draw.
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Lognormal parameterized by the mean and coefficient of variation of
  /// the *resulting* distribution (not of the underlying normal). This is
  /// the natural parameterization for throughput processes: "mean 2 Mbps,
  /// CV 0.4".
  double lognormal_mean_cv(double mean, double cv);

  /// Exponential with the given mean (= 1/rate).
  double exponential(double mean);

  /// Pareto with scale x_m > 0 and shape alpha > 0 (heavy-tailed sizes).
  double pareto(double x_m, double alpha);

  /// Chooses k distinct indices uniformly from [0, n). Order is random.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Chooses one index in [0, weights.size()) with probability proportional
  /// to weights[i]; non-positive weights are treated as zero. If all weights
  /// are zero the choice is uniform.
  std::size_t weighted_index(const std::vector<double>& weights);

  Mt19937_64& engine() { return engine_; }

 private:
  /// Seeds the engine with `value` itself (no splitmix64 pass).
  struct EngineSeed {
    std::uint64_t value;
  };
  explicit Rng(EngineSeed seed) : engine_(seed.value) {}
  Mt19937_64 engine_;
};

}  // namespace idr::util
