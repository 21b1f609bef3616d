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

TEST(Parity, PopCountMatchesBitLoop)
{
    const auto loop = [](std::uint64_t v) {
        unsigned n = 0;
        for (unsigned b = 0; b < 64; ++b)
            n += static_cast<unsigned>((v >> b) & 1);
        return n;
    };
    const std::uint64_t edges[] = {0,
                                   1,
                                   std::uint64_t{1} << 63,
                                   ~std::uint64_t{0},
                                   0x5555555555555555ull,
                                   0xaaaaaaaaaaaaaaaaull,
                                   0x00000000ffffffffull,
                                   0xffffffff00000000ull,
                                   0x8000000000000001ull,
                                   0x0101010101010101ull,
                                   0xff00ff00ff00ff00ull};
    for (const std::uint64_t v : edges) {
        ASSERT_EQ(popCount(v), loop(v)) << std::hex << v;
        ASSERT_EQ(popCount(~v), 64u - loop(v)) << std::hex << v;
    }
    for (unsigned b = 0; b < 64; ++b)
        ASSERT_EQ(popCount(~std::uint64_t{0} >> b), 64u - b);
    Rng rng(29);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = rng.next();
        ASSERT_EQ(popCount(v), loop(v)) << std::hex << v;
        const auto w = static_cast<std::uint32_t>(v);
        ASSERT_EQ(popCount(w), loop(w)) << std::hex << w;
        // Sparse words: the multiply's byte sum with few bits set.
        ASSERT_EQ(popCount(v & (v >> 7) & (v >> 13)),
                  loop(v & (v >> 7) & (v >> 13)))
            << std::hex << v;
    }
    static_assert(popCount(0xf0f0u) == 8);
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
