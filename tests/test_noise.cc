/**
 * @file
 * Tests of the coupling-noise statistics: the eq. (2)/(3)
 * distributions and the exact switching-combination enumeration
 * behind Figure 3.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/random.hh"
#include "fault/noise.hh"

using namespace clumsy;
using namespace clumsy::fault;

TEST(NoiseAmplitude, PdfNormalizes)
{
    // Integrate 28.8*exp(-28.8x) over [0, 1): should be ~1.
    double sum = 0;
    const double h = 1e-4;
    for (double x = h / 2; x < 1.0; x += h)
        sum += amplitudePdf(x) * h;
    EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST(NoiseAmplitude, TailMatchesPdf)
{
    EXPECT_NEAR(amplitudeTailProb(0.1),
                std::exp(-kAmplitudeRate * 0.1), 1e-12);
    EXPECT_DOUBLE_EQ(amplitudeTailProb(0.0), 1.0);
    EXPECT_EQ(amplitudePdf(-0.5), 0.0);
}

TEST(NoiseDuration, UniformShape)
{
    EXPECT_DOUBLE_EQ(durationPdf(0.05), 10.0);
    EXPECT_DOUBLE_EQ(durationPdf(0.11), 0.0);
    EXPECT_DOUBLE_EQ(durationPdf(-0.01), 0.0);
}

TEST(NoiseSampling, AmplitudeMeanMatchesExponential)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 50000; ++i)
        sum += sampleAmplitude(rng);
    EXPECT_NEAR(sum / 50000.0, 1.0 / kAmplitudeRate, 0.002);
}

TEST(NoiseSampling, DurationBounded)
{
    Rng rng(12);
    for (int i = 0; i < 1000; ++i) {
        const double d = sampleDuration(rng);
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, kMaxDuration);
    }
}

class SwitchingCounts : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SwitchingCounts, TotalIsFourToTheN)
{
    const unsigned n = GetParam();
    const auto counts = switchingCaseCounts(n);
    ASSERT_EQ(counts.size(), n + 1);
    const auto total =
        std::accumulate(counts.begin(), counts.end(),
                        std::uint64_t{0});
    // Each of n neighbors has 4 states: up, down, hold (2 ways).
    std::uint64_t expect = 1;
    for (unsigned i = 0; i < n; ++i)
        expect *= 4;
    EXPECT_EQ(total, expect);
}

TEST_P(SwitchingCounts, MonotonicallyDecreasingInAmplitude)
{
    // counts[k] = 2*C(2n, n-k) for k >= 1 (the +/- doubling), so the
    // decay holds from k = 1 on; counts[1] can exceed counts[0].
    const auto counts = switchingCaseCounts(GetParam());
    for (std::size_t k = 2; k < counts.size(); ++k)
        EXPECT_LE(counts[k], counts[k - 1]);
    if (counts.size() > 1) {
        EXPECT_LE(counts[1], 2 * counts[0]);
    }
}

TEST_P(SwitchingCounts, WorstCaseIsUniqueUpToSign)
{
    // Exactly two combinations (all up / all down) give |net| = n.
    const auto counts = switchingCaseCounts(GetParam());
    EXPECT_EQ(counts.back(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SwitchingCounts,
                         ::testing::Values(1u, 2u, 4u, 8u, 12u, 16u));

TEST(SwitchingFit, ReasonableExponentialFit)
{
    const auto fit = fitSwitchingDistribution(16);
    EXPECT_GT(fit.k1, 0.0);
    EXPECT_GT(fit.k2, 0.0);
    EXPECT_GT(fit.r2, 0.8); // the tail is near-exponential
}

TEST(SwitchingFit, DecaySharpensWithMoreNeighbors)
{
    EXPECT_GT(fitSwitchingDistribution(16).k2,
              fitSwitchingDistribution(4).k2);
}

TEST(SwitchingDeath, RejectsUnsupportedSizes)
{
    EXPECT_DEATH(switchingCaseCounts(0), "1..16");
    EXPECT_DEATH(switchingCaseCounts(17), "1..16");
}
