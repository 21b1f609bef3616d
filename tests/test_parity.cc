/**
 * @file
 * Tests of the per-word parity codec, including the structural
 * property the whole recovery story rests on: odd-weight flips are
 * detected, even-weight flips escape.
 */

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "common/random.hh"
#include "mem/parity.hh"

using namespace clumsy;
using namespace clumsy::mem;

TEST(Parity, BitMatchesPopcount)
{
    EXPECT_FALSE(parityBit(0));
    EXPECT_TRUE(parityBit(1));
    EXPECT_TRUE(parityBit(0x80000000));
    EXPECT_FALSE(parityBit(0x80000001));
}

TEST(Parity, OddParityMatchesXorFold)
{
    // Reference: fold the word onto itself by shift-and-xor until bit 0
    // holds the xor of all 64 bits.
    const auto fold = [](std::uint64_t v) {
        for (unsigned s = 32; s != 0; s /= 2)
            v ^= v >> s;
        return (v & 1) != 0;
    };
    Rng rng(23);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = rng.next();
        ASSERT_EQ(oddParity(v), fold(v)) << std::hex << v;
        const auto w = static_cast<std::uint32_t>(v);
        ASSERT_EQ(parityBit(w), fold(w)) << std::hex << w;
        ASSERT_EQ(oddParity(v & 0xff), fold(v & 0xff)) << std::hex << v;
    }
    EXPECT_FALSE(oddParity(~std::uint64_t{0}));
    EXPECT_TRUE(oddParity(std::uint64_t{1} << 63));
}

TEST(Parity, CleanWordMatches)
{
    Rng rng(21);
    for (int i = 0; i < 1000; ++i) {
        const auto w = static_cast<std::uint32_t>(rng.next());
        EXPECT_TRUE(parityMatches(w, parityBit(w)));
    }
}

class ParityFlips : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ParityFlips, AdjacentFlipDetectionByWeight)
{
    // k adjacent flipped bits: detected iff k is odd.
    const unsigned k = GetParam();
    Rng rng(22);
    for (unsigned pos = 0; pos < 32; ++pos) {
        const auto w = static_cast<std::uint32_t>(rng.next());
        std::uint32_t mask = 0;
        for (unsigned i = 0; i < k; ++i)
            mask |= std::uint32_t{1} << ((pos + i) % 32);
        const bool detected = !parityMatches(w ^ mask, parityBit(w));
        EXPECT_EQ(detected, k % 2 == 1)
            << "k=" << k << " pos=" << pos;
    }
}

INSTANTIATE_TEST_SUITE_P(Weights, ParityFlips,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(Parity, PackLine)
{
    const std::uint32_t words[4] = {0, 1, 3, 7};
    const std::uint64_t bits = packLineParity(words, 4);
    EXPECT_EQ(bits & 1, 0u);        // parity(0) = 0
    EXPECT_EQ((bits >> 1) & 1, 1u); // parity(1) = 1
    EXPECT_EQ((bits >> 2) & 1, 0u); // parity(3) = 0
    EXPECT_EQ((bits >> 3) & 1, 1u); // parity(7) = 1
}

TEST(ParityDeath, PackLineBounded)
{
    const std::uint32_t word = 0;
    EXPECT_DEATH(packLineParity(&word, 65), "64");
}
