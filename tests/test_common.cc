/**
 * @file
 * Unit tests for the common substrate: RNG, statistics, tables and
 * bit utilities.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/bitops.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace clumsy;

TEST(Rng, DeterministicBySeed)
{
    Rng a(42), b(42), c(43);
    bool anyDiff = false;
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, b.next());
        anyDiff |= va != c.next();
    }
    EXPECT_TRUE(anyDiff);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng a(7);
    const auto first = a.next();
    a.next();
    a.reseed(7);
    EXPECT_EQ(first, a.next());
}

TEST(Rng, PeekMatchesNext)
{
    // peek() names the next output without consuming it: a generator
    // that peeks before every draw emits the same stream as one that
    // never peeks.
    Rng a(99), b(99);
    for (int i = 0; i < 1000; ++i) {
        const auto peeked = a.peek();
        EXPECT_EQ(peeked, a.peek());
        EXPECT_EQ(peeked, a.next());
        EXPECT_EQ(peeked, b.next());
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(1);
    double sum = 0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000, 0.5, 0.01);
}

TEST(Rng, BelowIsUnbiased)
{
    Rng rng(2);
    std::uint64_t counts[7] = {};
    for (int i = 0; i < 70000; ++i)
        ++counts[rng.below(7)];
    for (const auto c : counts)
        EXPECT_NEAR(static_cast<double>(c), 10000.0, 400.0);
}

TEST(Rng, BernoulliEdges)
{
    Rng rng(3);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
}

TEST(Rng, BernoulliRate)
{
    Rng rng(4);
    int hits = 0;
    for (int i = 0; i < 50000; ++i)
        hits += rng.bernoulli(0.2);
    EXPECT_NEAR(hits / 50000.0, 0.2, 0.01);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(5);
    double sum = 0;
    for (int i = 0; i < 50000; ++i)
        sum += rng.exponential(4.0);
    EXPECT_NEAR(sum / 50000.0, 0.25, 0.01);
}

TEST(Rng, ZipfRankOneMostPopular)
{
    Rng rng(6);
    const ZipfTable zipf(10, 1.0);
    std::uint64_t counts[10] = {};
    for (int i = 0; i < 50000; ++i)
        ++counts[zipf.sample(rng) - 1];
    for (int k = 1; k < 10; ++k)
        EXPECT_GT(counts[0], counts[k]);
    // Rank 1 should get ~1/H(10) = 34% of the mass at s = 1.
    EXPECT_NEAR(counts[0] / 50000.0, 0.341, 0.02);
}

TEST(Accumulator, Moments)
{
    Accumulator acc;
    for (const double v : {1.0, 2.0, 3.0, 4.0})
        acc.sample(v);
    EXPECT_EQ(acc.count(), 4u);
    EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
    EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
    EXPECT_DOUBLE_EQ(acc.min(), 1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 4.0);
    EXPECT_NEAR(acc.variance(), 1.25, 1e-12);
    EXPECT_NEAR(acc.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Accumulator, EmptyIsSafe)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_EQ(acc.mean(), 0.0);
    EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Histogram, BinningAndOutOfRange)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(-1.0);
    h.sample(0.0);
    h.sample(5.5);
    h.sample(9.999);
    h.sample(10.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(5), 1u);
    EXPECT_EQ(h.binCount(9), 1u);
    EXPECT_DOUBLE_EQ(h.binLo(5), 5.0);
}

TEST(Histogram, MergeFoldsCountsAndMoments)
{
    Histogram a(0.0, 10.0, 10);
    Histogram b(0.0, 10.0, 10);
    a.sample(1.5);
    a.sample(-2.0);
    b.sample(1.7);
    b.sample(8.2);
    b.sample(11.0);
    a.merge(b);
    EXPECT_EQ(a.total(), 5u);
    EXPECT_EQ(a.binCount(1), 2u);
    EXPECT_EQ(a.binCount(8), 1u);
    EXPECT_EQ(a.underflow(), 1u);
    EXPECT_EQ(a.overflow(), 1u);
    // Mean folds the samples, not the histograms' means.
    EXPECT_DOUBLE_EQ(a.mean(), (1.5 - 2.0 + 1.7 + 8.2 + 11.0) / 5.0);
    // b is untouched.
    EXPECT_EQ(b.total(), 3u);
}

TEST(Histogram, MergeEmptyIsIdentity)
{
    Histogram a(0.0, 4.0, 4);
    a.sample(2.5);
    const Histogram empty(0.0, 4.0, 4);
    a.merge(empty);
    EXPECT_EQ(a.total(), 1u);
    EXPECT_EQ(a.binCount(2), 1u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.5);
}

TEST(Histogram, MergeRejectsMismatchedShape)
{
    Histogram a(0.0, 10.0, 10);
    const Histogram wrongBins(0.0, 10.0, 5);
    const Histogram wrongRange(0.0, 20.0, 10);
    EXPECT_DEATH(a.merge(wrongBins), "shape");
    EXPECT_DEATH(a.merge(wrongRange), "shape");
}

TEST(StatGroup, CountersAndDump)
{
    StatGroup g("cache");
    g.inc("hits");
    g.inc("hits", 2);
    g.set("misses", 7);
    EXPECT_EQ(g.get("hits"), 3u);
    EXPECT_EQ(g.get("misses"), 7u);
    EXPECT_EQ(g.get("absent"), 0u);
    const std::string dump = g.dump();
    EXPECT_NE(dump.find("cache.hits = 3"), std::string::npos);
    g.reset();
    EXPECT_EQ(g.get("hits"), 0u);
}

TEST(TextTable, RenderAndCsv)
{
    TextTable t("demo");
    t.header({"a", "b"});
    t.row({"1", "2"});
    const std::string text = t.render();
    EXPECT_NE(text.find("demo"), std::string::npos);
    EXPECT_NE(text.find("1"), std::string::npos);
    EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(TextTable, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::sci(0.000123, 2), "1.23e-04");
}

TEST(Bitops, Parity)
{
    EXPECT_FALSE(oddParity(0));
    EXPECT_TRUE(oddParity(1));
    EXPECT_FALSE(oddParity(3));
    EXPECT_TRUE(oddParity(0x80000001ull ^ 0x2));
}

TEST(Bitops, PowersAndLogs)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(12));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(floorLog2(4097), 12u);
}

TEST(Bitops, FlipAndField)
{
    EXPECT_EQ(flipBit(0, 0), 1u);
    EXPECT_EQ(flipBit(0xff, 7), 0x7fu);
    EXPECT_EQ(bitField(0xabcd1234, 8, 8), 0x12u);
    EXPECT_EQ(bitField(0xabcd1234, 0, 32), 0xabcd1234u);
}

TEST(Types, QuantaConversions)
{
    EXPECT_EQ(cyclesToQuanta(2), 24);
    EXPECT_DOUBLE_EQ(quantaToCycles(18), 1.5);
}
