#include "expert/stats/distributions.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <vector>

#include "expert/util/assert.hpp"

namespace expert::stats {
namespace {

TEST(TruncatedLognormal, SamplesRespectBounds) {
  const auto dist = TruncatedLognormal::from_stats(1597.0, 1019.0, 3558.0);
  util::Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    const double x = dist.sample(rng);
    ASSERT_GE(x, 1019.0);
    ASSERT_LE(x, 3558.0);
  }
}

TEST(TruncatedLognormal, CalibratedMeanMatches) {
  const auto dist = TruncatedLognormal::from_stats(1597.0, 1019.0, 3558.0);
  util::Rng rng(2);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += dist.sample(rng);
  EXPECT_NEAR(sum / kN, 1597.0, 1597.0 * 0.02);
}

// Calibration works across the whole Table III range of shapes.
struct StatTriple {
  double mean, lo, hi;
};

class TruncatedLognormalSweep : public ::testing::TestWithParam<StatTriple> {};

TEST_P(TruncatedLognormalSweep, MeanWithinTwoPercent) {
  const auto [mean, lo, hi] = GetParam();
  const auto dist = TruncatedLognormal::from_stats(mean, lo, hi);
  util::Rng rng(3);
  double sum = 0.0;
  constexpr int kN = 60000;
  for (int i = 0; i < kN; ++i) sum += dist.sample(rng);
  EXPECT_NEAR(sum / kN, mean, mean * 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    TableIII, TruncatedLognormalSweep,
    ::testing::Values(StatTriple{1597.0, 1019.0, 3558.0},
                      StatTriple{1911.0, 1484.0, 6435.0},
                      StatTriple{2232.0, 1643.0, 4517.0},
                      StatTriple{1571.0, 878.0, 4947.0},
                      StatTriple{1512.0, 729.0, 3534.0},
                      StatTriple{1542.0, 987.0, 3250.0},
                      StatTriple{2066.0, 500.0, 6000.0}));

TEST(TruncatedLognormal, RejectsInvalidRanges) {
  EXPECT_THROW(TruncatedLognormal::from_stats(10.0, 0.0, 20.0),
               util::ContractViolation);
  EXPECT_THROW(TruncatedLognormal::from_stats(10.0, 20.0, 5.0),
               util::ContractViolation);
  EXPECT_THROW(TruncatedLognormal::from_stats(-1.0, 1.0, 5.0),
               util::ContractViolation);
}

TEST(TruncatedLognormal, ScaledIsExactRescaling) {
  const auto unit = TruncatedLognormal::from_stats(1.0, 0.4, 2.5);
  const auto big = unit.scaled(1000.0);
  EXPECT_DOUBLE_EQ(big.lo(), 400.0);
  EXPECT_DOUBLE_EQ(big.hi(), 2500.0);
  EXPECT_DOUBLE_EQ(big.sigma(), unit.sigma());
  // Identical RNG stream: each draw is exactly 1000x the unit draw.
  util::Rng a(5);
  util::Rng b(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NEAR(big.sample(a), 1000.0 * unit.sample(b), 1e-9);
  }
  EXPECT_NEAR(big.approximate_mean(), 1000.0, 15.0);
}

TEST(TruncatedLognormal, ScaledRejectsNonPositiveFactor) {
  const auto unit = TruncatedLognormal::from_stats(1.0, 0.4, 2.5);
  EXPECT_THROW(unit.scaled(0.0), util::ContractViolation);
}

TEST(TruncatedLognormal, ApproximateMeanAgreesWithSampling) {
  const auto dist = TruncatedLognormal::from_stats(1000.0, 200.0, 4000.0);
  EXPECT_NEAR(dist.approximate_mean(), 1000.0, 20.0);
}

// Calibration outputs pinned bit for bit (hexfloats). The expected values
// come from re-drawing the fixed-seed Monte-Carlo stream on every bisection
// step; the shared draw prefix and the memo must reproduce them exactly, or
// every generated BoT would change.
struct GoldenCalibration {
  double mean, lo, hi;
  double mu, sigma, approximate_mean;
};

constexpr GoldenCalibration kGolden[] = {
    // Table III rows.
    {1597.0, 1019.0, 3558.0, 0x1.d0e0b57016014p+2, 0x1.4018b23e039cep-2,
     0x1.8f3ffffffffffp+10},
    {1911.0, 1484.0, 6435.0, 0x1.c7300458ae9ccp+2, 0x1.778e035380ce6p-2,
     0x1.ddbffffffffffp+10},
    {2232.0, 1643.0, 4517.0, 0x1.e6100891e9c4cp+2, 0x1.02e624d851ba1p-2,
     0x1.1700000000006p+11},
    {1571.0, 878.0, 4947.0, 0x1.ca0fb085c52f4p+2, 0x1.ba988943f0e88p-2,
     0x1.88c0000000001p+10},
    {1512.0, 729.0, 3534.0, 0x1.ce66bf6d493c8p+2, 0x1.94195b747cacfp-2,
     0x1.79fffffffffffp+10},
    {1542.0, 987.0, 3250.0, 0x1.cfa8b0241e1p+2, 0x1.3115e35a79e66p-2,
     0x1.818p+10},
    {2066.0, 500.0, 6000.0, 0x1.dfe07c920898ep+2, 0x1.3e116bcd39e7dp-1,
     0x1.0240000000004p+11},
    // The unit-mean shape BotStream calibrates, and a wide shape.
    {1.0, 0.4, 2.5, -0x1.ad137fc21c12ap-4, 0x1.d5240f0e0e078p-2, 0x1p+0},
    {1000.0, 200.0, 4000.0, 0x1.aa5ad2689b5dp+2, 0x1.7f7427b73e391p-1,
     0x1.f3ffffffffff4p+9},
    // Narrow: most bisection steps accept too few draws to stay inside the
    // shared prefix and continue on the generator past it.
    {10.0, 9.9, 10.1, 0x1.26bb6ee41bafcp+1, 0x1.47b0e059d057dp-8,
     0x1.3ffffffffffffp+3},
};

TEST(TruncatedLognormal, FromStatsMatchesGoldenBits) {
  for (const auto& g : kGolden) {
    const auto dist = TruncatedLognormal::from_stats(g.mean, g.lo, g.hi);
    EXPECT_EQ(dist.mu(), g.mu) << g.mean << " in [" << g.lo << ", " << g.hi
                               << "]";
    EXPECT_EQ(dist.sigma(), g.sigma) << g.mean;
    EXPECT_EQ(dist.lo(), g.lo);
    EXPECT_EQ(dist.hi(), g.hi);
  }
}

TEST(TruncatedLognormal, ApproximateMeanMatchesGoldenBits) {
  for (const auto& g : kGolden) {
    const TruncatedLognormal dist(g.mu, g.sigma, g.lo, g.hi);
    EXPECT_EQ(dist.approximate_mean(), g.approximate_mean) << g.mean;
  }
}

TEST(TruncatedLognormal, MemoHitEqualsColdCompute) {
  const auto& g = kGolden[0];
  const auto cold = TruncatedLognormal::from_stats(g.mean, g.lo, g.hi);
  const auto hit = TruncatedLognormal::from_stats(g.mean, g.lo, g.hi);
  EXPECT_EQ(cold.mu(), g.mu);
  EXPECT_EQ(hit.mu(), cold.mu());
  EXPECT_EQ(hit.sigma(), cold.sigma());
  EXPECT_EQ(hit.lo(), cold.lo());
  EXPECT_EQ(hit.hi(), cold.hi());
  // The key is the exact input triple: a neighbouring mean is a new
  // calibration, not a hit on the cached one.
  const auto near = TruncatedLognormal::from_stats(g.mean + 1.0, g.lo, g.hi);
  EXPECT_GT(near.mu(), cold.mu());
}

TEST(TruncatedLognormal, ConcurrentCalibrationEqualsSerial) {
  // Eight threads calibrate four shapes in rotated orders, so the same
  // triple misses on several threads at once and later calls hit the memo.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kShapes = 4;
  const GoldenCalibration* shapes[kShapes] = {&kGolden[0], &kGolden[7],
                                              &kGolden[8], &kGolden[2]};
  std::vector<std::vector<double>> mus(kThreads,
                                       std::vector<double>(kShapes, 0.0));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < kShapes; ++k) {
        const std::size_t s = (t + k) % kShapes;
        const auto& g = *shapes[s];
        mus[t][s] = TruncatedLognormal::from_stats(g.mean, g.lo, g.hi).mu();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t s = 0; s < kShapes; ++s) {
    const auto& g = *shapes[s];
    const double serial =
        TruncatedLognormal::from_stats(g.mean, g.lo, g.hi).mu();
    EXPECT_EQ(serial, g.mu);
    for (std::size_t t = 0; t < kThreads; ++t)
      EXPECT_EQ(mus[t][s], serial) << "thread " << t << " shape " << s;
  }
}

TEST(AvailabilityModel, LongRunAvailability) {
  const auto model = AvailabilityModel::from_availability(0.8, 8000.0);
  EXPECT_NEAR(model.long_run_availability(), 0.8, 1e-12);
  EXPECT_DOUBLE_EQ(model.mean_up_seconds, 8000.0);
  EXPECT_NEAR(model.mean_down_seconds, 2000.0, 1e-9);
}

TEST(AvailabilityModel, WeibullUpScalePreservesMean) {
  for (double shape : {0.5, 0.7, 1.0, 2.0}) {
    auto model = AvailabilityModel::from_availability(0.8, 5000.0, shape);
    util::Rng rng(3);
    double sum = 0.0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i) sum += model.sample_up(rng);
    EXPECT_NEAR(sum / kN, 5000.0, 5000.0 * 0.03) << "shape " << shape;
  }
}

TEST(AvailabilityModel, ExponentialShapeMatchesPlainExponential) {
  AvailabilityModel model{1000.0, 100.0, 1.0};
  util::Rng a(9);
  util::Rng b(9);
  // shape 1 takes the exponential fast path and must be distributionally
  // identical to a direct exponential draw.
  EXPECT_DOUBLE_EQ(model.sample_up(a), b.exponential(1.0 / 1000.0));
}

TEST(AvailabilityModel, HeavyTailedShapeHasMoreShortUps) {
  // Shape < 1: more mass below the mean (burstier failures).
  util::Rng rng(4);
  AvailabilityModel heavy{1000.0, 100.0, 0.5};
  AvailabilityModel expo{1000.0, 100.0, 1.0};
  int heavy_short = 0, expo_short = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    if (heavy.sample_up(rng) < 200.0) ++heavy_short;
    if (expo.sample_up(rng) < 200.0) ++expo_short;
  }
  EXPECT_GT(heavy_short, expo_short);
}

TEST(AvailabilityModel, SampleDownZeroWhenNoDowntime) {
  AvailabilityModel model{1000.0, 0.0, 1.0};
  util::Rng rng(5);
  EXPECT_DOUBLE_EQ(model.sample_down(rng), 0.0);
}

TEST(AvailabilityModel, RejectsDegenerateAvailability) {
  EXPECT_THROW(AvailabilityModel::from_availability(0.0, 100.0),
               util::ContractViolation);
  EXPECT_THROW(AvailabilityModel::from_availability(1.0, 100.0),
               util::ContractViolation);
}

}  // namespace
}  // namespace expert::stats
