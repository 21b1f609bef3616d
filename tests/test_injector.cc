/**
 * @file
 * Tests of the per-access fault injector.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/bitops.hh"
#include "fault/injector.hh"

using namespace clumsy;
using namespace clumsy::fault;

namespace
{

FaultInjector
boostedInjector(double scale, std::uint64_t seed = 1)
{
    FaultModelParams params;
    params.scale = scale;
    return FaultInjector(FaultModel(params), seed);
}

} // namespace

TEST(Injector, DisabledIsTransparent)
{
    auto injector = boostedInjector(1e6);
    injector.setEnabled(false);
    for (std::uint32_t v = 0; v < 1000; ++v)
        EXPECT_EQ(injector.corrupt(v, 32), v);
    EXPECT_EQ(injector.faultCount(), 0u);
    EXPECT_EQ(injector.accessCount(), 1000u);
}

TEST(Injector, CleanAtNegligibleRate)
{
    FaultModelParams params;
    params.scale = 0.0;
    FaultInjector injector{FaultModel(params), 2};
    for (std::uint32_t v = 0; v < 1000; ++v)
        EXPECT_EQ(injector.corrupt(v, 32), v);
    EXPECT_EQ(injector.faultCount(), 0u);
}

TEST(Injector, DeterministicBySeed)
{
    auto a = boostedInjector(1e5, 7);
    auto b = boostedInjector(1e5, 7);
    for (std::uint32_t i = 0; i < 5000; ++i)
        EXPECT_EQ(a.corrupt(i, 32), b.corrupt(i, 32));
}

TEST(Injector, FaultRateMatchesModel)
{
    // Boost so that ~32 * p1 * scale = ~3% of accesses fault.
    auto injector = boostedInjector(3600.0, 3);
    const std::uint64_t n = 200000;
    for (std::uint64_t i = 0; i < n; ++i)
        injector.corrupt(static_cast<std::uint32_t>(i), 32);
    const double expected =
        injector.model().bitFaultProb(1.0) * 32.0 * n;
    EXPECT_NEAR(static_cast<double>(injector.faultCount()), expected,
                expected * 0.1);
}

TEST(Injector, CleanThresholdMatchesUniformCompare)
{
    // At the draws around each threshold, the integer test
    // k >= cleanThreshold(T) must agree with uniform() >= T, which
    // compares the double k * 2^-53 against T.
    constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
    const double totals[] = {
        0.0,
        std::numeric_limits<double>::denorm_min(),
        1e-310,                 // subnormal
        0x1.0p-53 * 5,          // T * 2^53 is an integer
        3.7e-6,                 // typical eq. (4) totals
        1.2345678912345e-3,
        0.5,
        std::nextafter(1.0, 0.0),
        1.0,
        2.5,
        std::numeric_limits<double>::infinity(),
    };
    for (const double total : totals) {
        const std::uint64_t from = FaultInjector::cleanThreshold(total);
        EXPECT_LE(from, kDraws) << total;
        for (const std::uint64_t k : {from - 1, from, from + 1}) {
            if (k >= kDraws || (from == 0 && k == from - 1))
                continue; // not a 53-bit draw
            EXPECT_EQ(k >= from,
                      static_cast<double>(k) * 0x1.0p-53 >= total)
                << "T=" << total << " k=" << k;
        }
    }
    EXPECT_EQ(FaultInjector::cleanThreshold(0.0), 0u);
    EXPECT_EQ(FaultInjector::cleanThreshold(1.0), kDraws);
    EXPECT_EQ(FaultInjector::cleanThreshold(std::nan("")), kDraws);
}

TEST(Injector, NextDrawCleanPredictsCorrupt)
{
    // One injector peeks and takes clean draws where it can; its twin
    // always calls corrupt(). They must stay draw for draw in step,
    // across a cycle-time switch and with injection switched off.
    auto peeking = boostedInjector(3e4, 9);
    auto drawing = boostedInjector(3e4, 9);
    std::uint64_t clean = 0;
    for (std::uint32_t i = 0; i < 60000; ++i) {
        if (i == 20000) {
            peeking.setCycleTime(0.25);
            drawing.setCycleTime(0.25);
        }
        if (i == 40000) {
            peeking.setEnabled(false);
            drawing.setEnabled(false);
        }
        FaultEvent ev;
        const std::uint32_t want = drawing.corrupt(i, 32, &ev);
        const bool predicted = peeking.nextDrawClean();
        EXPECT_EQ(predicted, ev.flippedBits == 0) << "access " << i;
        if (predicted) {
            ++clean;
            peeking.takeCleanDraw();
        } else {
            EXPECT_EQ(peeking.corrupt(i, 32), want);
        }
    }
    EXPECT_EQ(peeking.accessCount(), drawing.accessCount());
    EXPECT_EQ(peeking.faultCount(), drawing.faultCount());
    EXPECT_GT(peeking.faultCount(), 100u);
    EXPECT_GT(clean, 30000u);
    EXPECT_EQ(peeking.stats().dump(), drawing.stats().dump());
}

TEST(Injector, RateRisesWithFrequency)
{
    auto slow = boostedInjector(2000.0, 4);
    auto fast = boostedInjector(2000.0, 4);
    fast.setCycleTime(0.25);
    const std::uint64_t n = 100000;
    for (std::uint64_t i = 0; i < n; ++i) {
        slow.corrupt(0, 32);
        fast.corrupt(0, 32);
    }
    // eq. (4): ~9.5x more faults at Cr = 0.25.
    const double ratio =
        static_cast<double>(fast.faultCount()) /
        static_cast<double>(slow.faultCount());
    EXPECT_NEAR(ratio, 9.477, 2.0);
}

TEST(Injector, MaskStaysInsideAccessWidth)
{
    auto injector = boostedInjector(1e6, 5);
    for (const unsigned bits : {1u, 8u, 16u, 24u, 32u}) {
        for (int i = 0; i < 2000; ++i) {
            FaultEvent ev;
            injector.corrupt(0, bits, &ev);
            if (bits < 32) {
                EXPECT_EQ(ev.mask >> bits, 0u)
                    << "mask escaped " << bits << "-bit access";
            }
        }
    }
}

TEST(Injector, MultiBitFaultsFlipAdjacentBits)
{
    FaultModelParams params;
    params.scale = 1e6;
    // Make double faults dominate utterly (zero rates are rejected
    // by the model's validation, so use negligible ones).
    params.baseSingleBit = 1e-30;
    params.baseTripleBit = 1e-30;
    params.baseDoubleBit = 2.59e-6;
    FaultInjector injector{FaultModel(params), 6};
    unsigned seen = 0;
    for (int i = 0; i < 200000 && seen < 50; ++i) {
        FaultEvent ev;
        injector.corrupt(0, 32, &ev);
        if (!ev.flippedBits)
            continue;
        ++seen;
        ASSERT_EQ(ev.flippedBits, 2u);
        ASSERT_EQ(popCount(ev.mask), 2u);
        // Adjacent modulo the access width.
        bool adjacent = false;
        for (unsigned b = 0; b < 32; ++b) {
            const std::uint32_t pair =
                (1u << b) | (1u << ((b + 1) % 32));
            adjacent |= ev.mask == pair;
        }
        EXPECT_TRUE(adjacent) << std::hex << ev.mask;
    }
    EXPECT_GE(seen, 50u);
}

TEST(Injector, EventReportsAppliedMask)
{
    auto injector = boostedInjector(1e6, 8);
    for (int i = 0; i < 5000; ++i) {
        FaultEvent ev;
        const std::uint32_t out = injector.corrupt(0x5a5a5a5a, 32, &ev);
        EXPECT_EQ(out, 0x5a5a5a5a ^ ev.mask);
    }
}

TEST(Injector, StatsBreakdownByMultiplicity)
{
    auto injector = boostedInjector(1e5, 9);
    for (int i = 0; i < 300000; ++i)
        injector.corrupt(0, 32);
    const auto &stats = injector.stats();
    EXPECT_GT(stats.get("single"), stats.get("double"));
    EXPECT_GE(stats.get("double"), stats.get("triple"));
    EXPECT_EQ(stats.get("single") + stats.get("double") +
                  stats.get("triple"),
              injector.faultCount());
}

TEST(Injector, ResetStatsClearsCounters)
{
    auto injector = boostedInjector(1e6, 10);
    for (int i = 0; i < 1000; ++i)
        injector.corrupt(0, 32);
    EXPECT_GT(injector.faultCount(), 0u);
    injector.resetStats();
    EXPECT_EQ(injector.faultCount(), 0u);
    EXPECT_EQ(injector.accessCount(), 0u);
}

TEST(Injector, FaultSequenceIsPinned)
{
    // The first faults of a fixed seed at Cr = 0.25, at the paper's
    // rates: (access index, XOR mask). Any change to the draw order,
    // the threshold expression or the flip placement moves them.
    struct Fault
    {
        std::uint64_t access;
        std::uint32_t mask;
    };
    struct Width
    {
        unsigned bits;
        Fault first[8];
    };
    const Width widths[] = {
        {8,
         {{16654, 0x1}, {125755, 0x1}, {127892, 0x10}, {164657, 0x1},
          {318306, 0x10}, {335339, 0x8}, {354084, 0x1}, {437792, 0x1}}},
        {16,
         {{16654, 0x100}, {87516, 0x200}, {125754, 0x100},
          {127891, 0x10}, {145882, 0x4000}, {164655, 0x100},
          {167580, 0x80}, {175867, 0x8}}},
        {32,
         {{16654, 0x1000000}, {35276, 0x20}, {78318, 0x8000000},
          {86028, 0x10000}, {87513, 0x200}, {90892, 0x800},
          {94015, 0x8000000}, {99505, 0x800000}}},
    };
    for (const Width &w : widths) {
        SCOPED_TRACE(w.bits);
        FaultInjector injector(FaultModel(FaultModelParams{}), 0x1e57);
        injector.setCycleTime(0.25);
        std::uint64_t access = 0;
        for (const Fault &want : w.first) {
            FaultEvent ev;
            std::uint32_t got = 0;
            do {
                got = injector.corrupt(0xa5a5a5a5u, w.bits, &ev);
            } while (ev.flippedBits == 0 && ++access < 1000000);
            EXPECT_EQ(access, want.access);
            EXPECT_EQ(ev.mask, want.mask);
            EXPECT_EQ(got, 0xa5a5a5a5u ^ want.mask);
            ++access;
        }
    }
}

TEST(InjectorDeath, RejectsBadWidth)
{
    auto injector = boostedInjector(1.0);
    EXPECT_DEATH(injector.corrupt(0, 0), "width");
    EXPECT_DEATH(injector.corrupt(0, 33), "width");
}
