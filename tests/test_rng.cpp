#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace pv {
namespace {

TEST(Rng, DeterministicForSeed) {
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
    Rng rng(7);
    OnlineStats stats;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        stats.add(u);
    }
    EXPECT_NEAR(stats.mean(), 0.5, 0.01);
    EXPECT_NEAR(stats.stddev(), std::sqrt(1.0 / 12.0), 0.01);
}

TEST(Rng, UniformBounds) {
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(Rng, UniformBelowCoversAllResidues) {
    Rng rng(11);
    std::vector<int> counts(7, 0);
    for (int i = 0; i < 7000; ++i) ++counts[rng.uniform_below(7)];
    for (const int c : counts) EXPECT_GT(c, 800);
}

TEST(Rng, UniformBelowZeroThrows) {
    Rng rng(1);
    EXPECT_THROW((void)rng.uniform_below(0), SimError);
}

TEST(Rng, GaussianMoments) {
    Rng rng(13);
    OnlineStats stats;
    for (int i = 0; i < 50000; ++i) stats.add(rng.gaussian());
    EXPECT_NEAR(stats.mean(), 0.0, 0.02);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, GaussianShifted) {
    Rng rng(17);
    OnlineStats stats;
    for (int i = 0; i < 20000; ++i) stats.add(rng.gaussian(10.0, 2.0));
    EXPECT_NEAR(stats.mean(), 10.0, 0.1);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, PoissonMean) {
    Rng rng(19);
    OnlineStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(static_cast<double>(rng.poisson(4.0)));
    EXPECT_NEAR(stats.mean(), 4.0, 0.1);
    EXPECT_NEAR(stats.variance(), 4.0, 0.3);
}

TEST(Rng, PoissonZeroLambda) {
    Rng rng(21);
    EXPECT_EQ(rng.poisson(0.0), 0u);
}

struct BinomialCase {
    std::uint64_t n;
    double p;
};

class RngBinomial : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(RngBinomial, MatchesMeanAndStaysInRange) {
    const auto [n, p] = GetParam();
    Rng rng(31 + n);
    OnlineStats stats;
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t k = rng.binomial(n, p);
        ASSERT_LE(k, n);
        stats.add(static_cast<double>(k));
    }
    const double mean = static_cast<double>(n) * p;
    const double sd = std::sqrt(mean * (1.0 - p));
    // Tolerance: 5 standard errors of the sample mean, floor for tiny p.
    const double tol = std::max(5.0 * sd / std::sqrt(4000.0), 0.05 * mean + 0.02);
    EXPECT_NEAR(stats.mean(), mean, tol) << "n=" << n << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(FaultRegimes, RngBinomial,
                         ::testing::Values(BinomialCase{1'000'000, 1e-6},
                                           BinomialCase{1'000'000, 3e-6},
                                           BinomialCase{1'000'000, 1e-4},
                                           BinomialCase{1'000'000, 1e-2},
                                           BinomialCase{100'000, 0.5},
                                           BinomialCase{100, 0.9},
                                           BinomialCase{10, 0.0},
                                           BinomialCase{10, 1.0}));

TEST(Rng, BinomialEdgeCases) {
    Rng rng(37);
    EXPECT_EQ(rng.binomial(0, 0.5), 0u);
    EXPECT_EQ(rng.binomial(100, 0.0), 0u);
    EXPECT_EQ(rng.binomial(100, 1.0), 100u);
    EXPECT_EQ(rng.binomial(100, -0.5), 0u);
    EXPECT_EQ(rng.binomial(100, 1.5), 100u);
}

}  // namespace
}  // namespace pv
