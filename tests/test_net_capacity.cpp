#include <cmath>
#include <gtest/gtest.h>
#include <vector>

#include "net/capacity_process.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace idr::net {
namespace {

TEST(ConstantCapacity, NeverChanges) {
  util::Rng rng(1);
  ConstantCapacity p(5e6);
  EXPECT_DOUBLE_EQ(p.initial(rng), 5e6);
  const auto change = p.next(rng);
  EXPECT_TRUE(std::isinf(change.dwell));
  EXPECT_DOUBLE_EQ(change.capacity, 5e6);
}

TEST(ConstantCapacity, RejectsNonPositive) {
  EXPECT_THROW(ConstantCapacity(0.0), util::Error);
}

TEST(LognormalAr, StationaryMomentsMatch) {
  util::Rng rng(2);
  LognormalArCapacity::Params params;
  params.mean = 2e6;
  params.cv = 0.3;
  params.rho = 0.9;
  params.step = 10.0;
  LognormalArCapacity p(params);
  util::OnlineStats stats;
  stats.add(p.initial(rng));
  for (int i = 0; i < 200000; ++i) stats.add(p.next(rng).capacity);
  EXPECT_NEAR(stats.mean() / 2e6, 1.0, 0.03);
  EXPECT_NEAR(stats.cv(), 0.3, 0.03);
}

TEST(LognormalAr, DwellIsStep) {
  util::Rng rng(3);
  LognormalArCapacity::Params params;
  params.mean = 1e6;
  params.cv = 0.2;
  params.step = 30.0;
  LognormalArCapacity p(params);
  p.initial(rng);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(p.next(rng).dwell, 30.0);
  }
}

TEST(LognormalAr, ZeroCvIsConstant) {
  util::Rng rng(4);
  LognormalArCapacity::Params params;
  params.mean = 1e6;
  params.cv = 0.0;
  LognormalArCapacity p(params);
  EXPECT_DOUBLE_EQ(p.initial(rng), 1e6);
  const auto change = p.next(rng);
  EXPECT_TRUE(std::isinf(change.dwell));
}

TEST(LognormalAr, FloorRespected) {
  util::Rng rng(5);
  LognormalArCapacity::Params params;
  params.mean = 1e6;
  params.cv = 2.0;  // wild swings
  params.rho = 0.0;
  params.floor = 1e5;
  LognormalArCapacity p(params);
  double min_seen = p.initial(rng);
  for (int i = 0; i < 50000; ++i) {
    min_seen = std::min(min_seen, p.next(rng).capacity);
  }
  EXPECT_GE(min_seen, 1e5);
}

TEST(LognormalAr, HighRhoIsPersistent) {
  // Consecutive samples under rho=0.99 should be far more correlated than
  // under rho=0.
  auto lag1_corr = [](double rho, std::uint64_t seed) {
    util::Rng rng(seed);
    LognormalArCapacity::Params params;
    params.mean = 1e6;
    params.cv = 0.4;
    params.rho = rho;
    LognormalArCapacity p(params);
    std::vector<double> a, b;
    double prev = p.initial(rng);
    for (int i = 0; i < 20000; ++i) {
      const double cur = p.next(rng).capacity;
      a.push_back(prev);
      b.push_back(cur);
      prev = cur;
    }
    return util::pearson_correlation(a, b);
  };
  EXPECT_GT(lag1_corr(0.99, 6), 0.9);
  EXPECT_LT(std::abs(lag1_corr(0.0, 7)), 0.05);
}

TEST(MarkovJump, AlternatesStates) {
  util::Rng rng(8);
  MarkovJumpCapacity::Params params;
  params.base = 4e6;
  params.degraded_multiplier = 0.25;
  params.mean_normal_dwell = 100.0;
  params.mean_degraded_dwell = 10.0;
  MarkovJumpCapacity p(params);
  EXPECT_DOUBLE_EQ(p.initial(rng), 4e6);
  // States must strictly alternate: degraded, normal, degraded, ...
  for (int i = 0; i < 20; ++i) {
    const auto down = p.next(rng);
    EXPECT_DOUBLE_EQ(down.capacity, 1e6);
    const auto up = p.next(rng);
    EXPECT_DOUBLE_EQ(up.capacity, 4e6);
  }
}

TEST(MarkovJump, DutyCycleMatchesDwells) {
  util::Rng rng(9);
  MarkovJumpCapacity::Params params;
  params.base = 1.0;
  params.degraded_multiplier = 0.5;
  params.mean_normal_dwell = 90.0;
  params.mean_degraded_dwell = 10.0;
  MarkovJumpCapacity p(params);
  p.initial(rng);
  double normal_time = 0.0, degraded_time = 0.0;
  bool degraded_next = true;
  for (int i = 0; i < 100000; ++i) {
    const auto change = p.next(rng);
    // The dwell belongs to the state we were in BEFORE the change.
    (degraded_next ? normal_time : degraded_time) += change.dwell;
    degraded_next = !degraded_next;
  }
  EXPECT_NEAR(degraded_time / (normal_time + degraded_time), 0.1, 0.01);
}

TEST(Modulated, CombinesCarrierAndJumps) {
  util::Rng rng(10);
  auto carrier = std::make_unique<ConstantCapacity>(8e6);
  MarkovJumpCapacity::Params j;
  j.base = 1.0;
  j.degraded_multiplier = 0.25;
  j.mean_normal_dwell = 50.0;
  j.mean_degraded_dwell = 5.0;
  ModulatedCapacity p(std::move(carrier),
                      std::make_unique<MarkovJumpCapacity>(j), 1.0);
  EXPECT_DOUBLE_EQ(p.initial(rng), 8e6);
  // Every emitted capacity is either full or quartered.
  for (int i = 0; i < 200; ++i) {
    const auto change = p.next(rng);
    EXPECT_TRUE(change.capacity == 8e6 || change.capacity == 2e6)
        << change.capacity;
    EXPECT_GT(change.dwell, 0.0);
  }
}

TEST(Modulated, BothConstantGoesQuiescent) {
  util::Rng rng(11);
  ModulatedCapacity p(std::make_unique<ConstantCapacity>(1e6),
                      std::make_unique<ConstantCapacity>(2.0), 2.0);
  EXPECT_DOUBLE_EQ(p.initial(rng), 1e6);
  EXPECT_TRUE(std::isinf(p.next(rng).dwell));
}

TEST(Modulated, EventTimesInterleave) {
  // Carrier steps every 10 s; modulator jumps at exponential times. The
  // merged stream must emit the carrier changes at cumulative times that
  // are multiples of 10.
  util::Rng rng(12);
  LognormalArCapacity::Params c;
  c.mean = 1e6;
  c.cv = 0.3;
  c.step = 10.0;
  MarkovJumpCapacity::Params j;
  j.base = 1.0;
  j.degraded_multiplier = 0.5;
  j.mean_normal_dwell = 37.0;
  j.mean_degraded_dwell = 3.0;
  ModulatedCapacity p(std::make_unique<LognormalArCapacity>(c),
                      std::make_unique<MarkovJumpCapacity>(j), 1.0);
  p.initial(rng);
  double t = 0.0;
  int carrier_changes = 0;
  for (int i = 0; i < 500; ++i) {
    const auto change = p.next(rng);
    t += change.dwell;
    const double mod10 = std::fmod(t, 10.0);
    if (mod10 < 1e-6 || mod10 > 10.0 - 1e-6) ++carrier_changes;
  }
  // The carrier contributes one event every 10 s (rate 0.1/s); jump
  // transitions add roughly 0.05/s, so about two thirds of the merged
  // events land on the 10-second grid.
  EXPECT_GT(carrier_changes, 250);
  EXPECT_LT(carrier_changes, 450);
}

// --- Shared sample paths ---------------------------------------------------

// The process a jumpy world link runs: AR(1) carrier, Markov modulator.
std::unique_ptr<CapacityProcess> jumpy_process() {
  LognormalArCapacity::Params c;
  c.mean = 1e6;
  c.cv = 0.4;
  c.step = 30.0;
  MarkovJumpCapacity::Params j;
  j.base = 1.0;
  j.degraded_multiplier = 0.25;
  j.mean_normal_dwell = 300.0;
  j.mean_degraded_dwell = 60.0;
  return std::make_unique<ModulatedCapacity>(
      std::make_unique<LognormalArCapacity>(c),
      std::make_unique<MarkovJumpCapacity>(j), 1.0);
}

void expect_same(const CapacityChange& got, const CapacityChange& want,
                 std::size_t i) {
  EXPECT_EQ(got.dwell, want.dwell) << "change " << i;
  EXPECT_EQ(got.capacity, want.capacity) << "change " << i;
}

TEST(SharedCapacityPath, ReadersSeeThePrivatePath) {
  // A link's stream, derived the way the flow simulator derives it.
  const util::Rng stream = util::Rng(17).child(0x9000 + 3);
  util::Rng private_rng = stream;
  auto reference = jumpy_process();
  const Rate initial = reference->initial(private_rng);
  std::vector<CapacityChange> path;
  for (int i = 0; i < 160; ++i) path.push_back(reference->next(private_rng));

  auto memo = std::make_shared<CapacityPathMemo>(jumpy_process());
  SharedCapacityProcess first(memo);
  SharedCapacityProcess second(memo);
  util::Rng first_rng = stream;
  util::Rng second_rng = stream;

  // The first reader draws 40 changes.
  EXPECT_EQ(first.initial(first_rng), initial);
  for (std::size_t i = 0; i < 40; ++i) {
    expect_same(first.next(first_rng), path[i], i);
  }
  EXPECT_EQ(memo->size(), 40u);

  // The second reads those, then runs past the first reader's end and
  // extends the memo from the shared stream.
  EXPECT_EQ(second.initial(second_rng), initial);
  for (std::size_t i = 0; i < 100; ++i) {
    expect_same(second.next(second_rng), path[i], i);
  }
  EXPECT_EQ(memo->size(), 100u);

  // The first reader resumes over what the second drew, then both extend
  // in turn.
  for (std::size_t i = 40; i < 130; ++i) {
    expect_same(first.next(first_rng), path[i], i);
  }
  for (std::size_t i = 100; i < 160; ++i) {
    expect_same(second.next(second_rng), path[i], i);
    if (i + 30 < 160) {
      expect_same(first.next(first_rng), path[i + 30], i + 30);
    }
  }
  EXPECT_EQ(memo->size(), 160u);

  // Readers never draw from the streams they are handed.
  EXPECT_EQ(first_rng.fingerprint(), stream.fingerprint());
  EXPECT_EQ(second_rng.fingerprint(), stream.fingerprint());
}

TEST(SharedCapacityPath, RejectsAReaderOnAnotherStream) {
  auto memo = std::make_shared<CapacityPathMemo>(jumpy_process());
  SharedCapacityProcess first(memo);
  SharedCapacityProcess second(memo);
  util::Rng stream = util::Rng(17).child(0x9000 + 3);
  util::Rng other = util::Rng(17).child(0x9000 + 4);
  first.initial(stream);
  EXPECT_THROW(second.initial(other), util::Error);
}

TEST(SharedCapacityPath, NextBeforeInitialThrows) {
  SharedCapacityProcess reader(
      std::make_shared<CapacityPathMemo>(jumpy_process()));
  util::Rng rng(1);
  EXPECT_THROW(reader.next(rng), util::Error);
}

}  // namespace
}  // namespace idr::net
