#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <random>
#include <set>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace idr::util {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ChildStreamsAreIndependentOfParentDraws) {
  // child(salt) must not depend on how many numbers the parent drew.
  Rng a(99);
  Rng b(99);
  static_cast<void>(b.uniform());  // advance b only
  // Both children must match because child() works off a copy of the
  // engine state... which differs after a draw; so derive children FIRST.
  Rng a_child = a.child(5);
  // Re-derive from a fresh parent to show same-salt determinism.
  Rng c(99);
  Rng c_child = c.child(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a_child.uniform(), c_child.uniform());
  }
}

TEST(Rng, ChildSaltsDecorrelate) {
  Rng root(7);
  Rng c1 = root.child(1);
  Rng c2 = root.child(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1.uniform() == c2.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(4);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all faces appear
}

TEST(Rng, BernoulliEdges) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(6);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, LognormalMeanCvMoments) {
  Rng rng(8);
  OnlineStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.lognormal_mean_cv(2.5, 0.4));
  EXPECT_NEAR(s.mean(), 2.5, 0.02);
  EXPECT_NEAR(s.cv(), 0.4, 0.02);
}

TEST(Rng, LognormalZeroCvIsDeterministic) {
  Rng rng(9);
  EXPECT_DOUBLE_EQ(rng.lognormal_mean_cv(3.0, 0.0), 3.0);
}

TEST(Rng, LognormalRejectsBadParams) {
  Rng rng(10);
  EXPECT_THROW(rng.lognormal_mean_cv(0.0, 0.5), Error);
  EXPECT_THROW(rng.lognormal_mean_cv(1.0, -0.1), Error);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  OnlineStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.exponential(4.0));
  EXPECT_NEAR(s.mean(), 4.0, 0.08);
}

TEST(Rng, ParetoSupport) {
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
  }
}

TEST(Rng, SampleWithoutReplacementIsASubset) {
  Rng rng(13);
  const auto picks = rng.sample_without_replacement(10, 4);
  EXPECT_EQ(picks.size(), 4u);
  std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 4u);
  for (std::size_t p : picks) EXPECT_LT(p, 10u);
}

TEST(Rng, SampleFullSetIsPermutation) {
  Rng rng(14);
  auto picks = rng.sample_without_replacement(6, 6);
  std::sort(picks.begin(), picks.end());
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(picks[i], i);
}

TEST(Rng, SampleKGreaterThanNThrows) {
  Rng rng(15);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), Error);
}

TEST(Rng, SampleIsUniform) {
  // Each of 5 items should appear in a 2-subset with probability 2/5.
  Rng rng(16);
  std::vector<int> counts(5, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (std::size_t p : rng.sample_without_replacement(5, 2)) {
      ++counts[p];
    }
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.4, 0.02);
  }
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int trials = 50000;
  for (int t = 0; t < trials; ++t) ++counts[rng.weighted_index(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(trials), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(trials), 0.3, 0.02);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(trials), 0.6, 0.02);
}

TEST(Rng, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(18);
  std::vector<double> weights = {0.0, 0.0, 0.0};
  std::vector<int> counts(3, 0);
  for (int t = 0; t < 30000; ++t) ++counts[rng.weighted_index(weights)];
  for (int c : counts) {
    EXPECT_NEAR(c / 30000.0, 1.0 / 3.0, 0.02);
  }
}

TEST(Rng, WeightedIndexNegativeTreatedAsZero) {
  Rng rng(19);
  std::vector<double> weights = {-5.0, 1.0};
  for (int t = 0; t < 100; ++t) {
    EXPECT_EQ(rng.weighted_index(weights), 1u);
  }
}

TEST(ChildStream, PinnedDerivedSeeds) {
  // child_stream is THE seed-derivation rule for sharded and parallel
  // execution: every client, shard and capacity stream keys off it, so
  // these exact values are load-bearing — changing them silently reseeds
  // every golden run. If this test fails, the derivation changed; fix the
  // derivation, do not re-pin.
  EXPECT_EQ(child_stream(0, 0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(child_stream(2026, 0), 0xdb9c559891948d23ULL);
  EXPECT_EQ(child_stream(2026, 1), 0x5924737f701295a0ULL);
  EXPECT_EQ(child_stream(2026, 0xABCDEF), 0xeda41ac3b198ca1cULL);
  EXPECT_EQ(child_stream(0xDEADBEEFCAFEF00DULL, 0x9E3779B97F4A7C15ULL),
            0xdce65c9145b41db8ULL);
}

TEST(ChildStream, IsSplitmixOfParentXorSalt) {
  // The definition the ad-hoc call sites were migrated from — kept as an
  // executable statement of the rule.
  const std::uint64_t parents[] = {0, 1, 2026, 0xDEADBEEFULL};
  const std::uint64_t salts[] = {0, 7, 0xABCDEF, 0x100000001b3ULL};
  for (std::uint64_t p : parents) {
    for (std::uint64_t s : salts) {
      EXPECT_EQ(child_stream(p, s), splitmix64(p ^ s));
    }
  }
}

TEST(ChildStream, SaltsDecorrelate) {
  // Sibling streams (same parent, adjacent salts) must not be shifted
  // copies of each other.
  Rng a{child_stream(99, 1)};
  Rng b{child_stream(99, 2)};
  int agree = 0;
  constexpr int kDraws = 256;
  for (int t = 0; t < kDraws; ++t) {
    const bool bit_a = a.uniform(0.0, 1.0) < 0.5;
    const bool bit_b = b.uniform(0.0, 1.0) < 0.5;
    if (bit_a == bit_b) ++agree;
  }
  // Independent streams agree ~half the time; identical or inverted
  // streams agree always/never.
  EXPECT_GT(agree, kDraws / 4);
  EXPECT_LT(agree, 3 * kDraws / 4);
}

// --- The in-repo engine is std::mt19937_64's stream -----------------------
//
// Every golden and digest was produced with std::mt19937_64 and the std
// distributions; Rng keeps them by matching the engine word for word. The
// reference side of these tests is the std engine itself, seeded the way
// Rng seeds (splitmix64 of the seed; child streams from the next word).

static_assert(std::uniform_random_bit_generator<Mt19937_64>);

constexpr std::uint64_t kEngineSeeds[] = {
    0, 1, 5489, 0x9e3779b97f4a7c15ULL, 0x8000000000000000ULL,
    ~std::uint64_t{0}};

TEST(Mt19937_64, MatchesStdEngineOverSeveralTwistBlocks) {
  for (const std::uint64_t seed : kEngineSeeds) {
    std::mt19937_64 ref(seed);
    Mt19937_64 engine(seed);
    for (int i = 0; i < 4 * 312 + 5; ++i) {
      ASSERT_EQ(engine(), ref()) << "seed " << seed << " word " << i;
    }
  }
}

TEST(Mt19937_64, PeekIsTheNextWordAtEveryPosition) {
  // Covers the block boundary, where the next word comes from the twist.
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{2026}}) {
    Mt19937_64 engine(seed);
    for (int i = 0; i < 3 * 312 + 2; ++i) {
      const std::uint64_t peeked = engine.peek();
      ASSERT_EQ(engine.peek(), peeked);
      ASSERT_EQ(engine(), peeked) << "seed " << seed << " word " << i;
    }
  }
}

TEST(Rng, ChildAndFingerprintMatchStdEngineReference) {
  for (const std::uint64_t seed : kEngineSeeds) {
    Rng rng(seed);
    std::mt19937_64 ref(splitmix64(seed));
    // Derive at stream positions on both sides of block boundaries.
    int drawn = 0;
    for (const int position : {0, 1, 311, 312, 313, 624, 937}) {
      for (; drawn < position; ++drawn) ASSERT_EQ(rng.engine()(), ref());
      std::mt19937_64 copy = ref;
      const std::uint64_t fingerprint = copy();
      ASSERT_EQ(rng.fingerprint(), fingerprint) << seed << " @" << position;
      for (const std::uint64_t salt :
           {std::uint64_t{0}, std::uint64_t{0x9000 + 3}, ~std::uint64_t{0}}) {
        Rng child = rng.child(salt);
        std::mt19937_64 ref_child(
            splitmix64(fingerprint ^ splitmix64(salt)));
        for (int i = 0; i < 320; ++i) {
          ASSERT_EQ(child.engine()(), ref_child())
              << seed << " @" << position << " salt " << salt << " " << i;
        }
      }
    }
  }
}

TEST(Rng, DistributionsMatchStdEngineReference) {
  for (const std::uint64_t seed : kEngineSeeds) {
    Rng rng(seed);
    std::mt19937_64 ref(splitmix64(seed));
    // Interleaved, so rejection loops and block boundaries fall at varied
    // offsets; every comparison is exact.
    for (int i = 0; i < 700; ++i) {
      ASSERT_EQ(rng.normal(),
                std::normal_distribution<double>(0.0, 1.0)(ref));
      ASSERT_EQ(rng.normal(3.0, 0.25),
                std::normal_distribution<double>(3.0, 0.25)(ref));
      ASSERT_EQ(rng.exponential(4.0),
                std::exponential_distribution<double>(0.25)(ref));
      ASSERT_EQ(rng.uniform_int(-5, 17),
                std::uniform_int_distribution<std::int64_t>(-5, 17)(ref));
      ASSERT_EQ(rng.uniform_int(0, std::numeric_limits<std::int64_t>::max()),
                std::uniform_int_distribution<std::int64_t>(
                    0, std::numeric_limits<std::int64_t>::max())(ref));
      ASSERT_EQ(rng.uniform(),
                std::uniform_real_distribution<double>(0.0, 1.0)(ref));
      ASSERT_EQ(rng.uniform(2.0, 9.5),
                std::uniform_real_distribution<double>(2.0, 9.5)(ref));
      const double sigma2 = std::log1p(0.4 * 0.4);
      const double mu = std::log(2.0e6) - 0.5 * sigma2;
      ASSERT_EQ(rng.lognormal_mean_cv(2.0e6, 0.4),
                std::lognormal_distribution<double>(mu, std::sqrt(sigma2))(
                    ref))
          << "seed " << seed << " draw " << i;
    }
  }
}

// A scripted 64-bit engine, to steer the polar method into its edge cases.
class StubEngine {
 public:
  using result_type = std::uint64_t;
  explicit StubEngine(std::vector<std::uint64_t> words)
      : words_(std::move(words)) {}
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return words_.at(next_++); }
  std::size_t used() const { return next_; }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t next_ = 0;
};

TEST(Rng, PolarNormalMatchesStdOnEdgeWords) {
  constexpr std::uint64_t kTop = ~std::uint64_t{0};  // rounds to 1.0
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  // A word that rounds up to 2^64 gives the largest double below 1.
  StubEngine top({kTop});
  EXPECT_EQ(canonical_double(top), std::nextafter(1.0, 0.0));

  const std::vector<std::vector<std::uint64_t>> scripts = {
      // (1, 1) lies outside the unit disc; (0, 0) is its centre, where the
      // polar transform is undefined: both are rejected. Then x = 1 - 2^-52
      // from the clamped word, y = 2^-33, just inside the disc.
      {kTop, kTop, kHalf, kHalf, kTop, kHalf + (std::uint64_t{1} << 30)},
      // The clamped word as y, with x = 0.
      {kHalf, kTop},
      // The clamped word on both axes is rejected; then a plain pair.
      {kTop, kTop, std::uint64_t{1} << 62, kHalf + (kHalf >> 1)},
  };
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    for (const auto& [mean, sd] : {std::pair{0.0, 1.0}, std::pair{3.0, 0.25}}) {
      StubEngine ours(scripts[i]);
      StubEngine ref(scripts[i]);
      EXPECT_EQ(polar_normal(ours, mean, sd),
                std::normal_distribution<double>(mean, sd)(ref))
          << "script " << i;
      EXPECT_EQ(ours.used(), scripts[i].size()) << "script " << i;
      EXPECT_EQ(ref.used(), scripts[i].size()) << "script " << i;
    }
  }
}

TEST(Rng, NormalRejectsNegativeStddev) {
  Rng rng(1);
  EXPECT_THROW(rng.normal(0.0, -1.0), Error);
  EXPECT_EQ(rng.normal(2.0, 0.0), 2.0);
}

TEST(Splitmix, AvalanchesNearbySeeds) {
  // Adjacent inputs should produce very different outputs.
  const auto a = splitmix64(1);
  const auto b = splitmix64(2);
  int differing_bits = std::popcount(a ^ b);
  EXPECT_GT(differing_bits, 16);
}

}  // namespace
}  // namespace idr::util
