/**
 * @file
 * Tests of the simulated DRAM backing store.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "mem/backing_store.hh"

using namespace clumsy;
using namespace clumsy::mem;

TEST(BackingStore, PowerOnStateIsZeroPages)
{
    // SimpleScalar-style lazily-allocated zero pages: see the
    // constructor comment for why this matters to fault behaviour.
    BackingStore store(4096);
    for (SimAddr addr = 0; addr < 4096; ++addr)
        ASSERT_EQ(store.read8(addr), 0);
}

TEST(BackingStore, ByteRoundTrip)
{
    BackingStore store(256);
    store.write8(0, 0xab);
    store.write8(255, 0xcd);
    EXPECT_EQ(store.read8(0), 0xab);
    EXPECT_EQ(store.read8(255), 0xcd);
}

TEST(BackingStore, WordRoundTripLittleEndian)
{
    BackingStore store(256);
    store.write32(8, 0x11223344);
    EXPECT_EQ(store.read32(8), 0x11223344u);
    EXPECT_EQ(store.read8(8), 0x44);
    EXPECT_EQ(store.read8(11), 0x11);
}

TEST(BackingStore, ContainsHandlesOverflow)
{
    BackingStore store(256);
    EXPECT_TRUE(store.contains(0, 256));
    EXPECT_FALSE(store.contains(0, 257));
    EXPECT_FALSE(store.contains(255, 2));
    // A wrapping addr+len must not be accepted.
    EXPECT_FALSE(store.contains(0xffffffff, 2));
}

TEST(BackingStore, BlockOps)
{
    BackingStore store(256);
    const std::uint8_t src[5] = {1, 2, 3, 4, 5};
    store.writeBlock(10, src, 5);
    std::uint8_t dst[5] = {};
    store.readBlock(10, dst, 5);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(dst[i], src[i]);
}

TEST(BackingStore, Fill)
{
    BackingStore store(256);
    store.fill(0, 0x77, 16);
    for (SimAddr a = 0; a < 16; ++a)
        EXPECT_EQ(store.read8(a), 0x77);
}

// --- lazily materialized pages ---------------------------------------

namespace
{

constexpr SimSize kPage = BackingStore::kPageBytes;

/** Pages some write has materialized. */
std::size_t
materializedPages(const BackingStore &store)
{
    std::size_t n = 0;
    for (std::size_t p = 0; p < store.pageCount(); ++p)
        n += store.page(p) != nullptr;
    return n;
}

} // namespace

TEST(BackingStorePages, NeverWrittenReadsZeroAcrossAPageBoundary)
{
    BackingStore store(4 * kPage);
    EXPECT_EQ(store.read32(kPage - 4), 0u);
    EXPECT_EQ(store.read32(kPage), 0u);
    std::uint8_t buf[64];
    std::memset(buf, 0xee, sizeof(buf));
    store.readBlock(kPage - 32, buf, sizeof(buf));
    for (const std::uint8_t b : buf)
        EXPECT_EQ(b, 0);
    // Reads never materialize anything.
    EXPECT_EQ(materializedPages(store), 0u);
}

TEST(BackingStorePages, BlockOpsStraddleAPageBoundary)
{
    BackingStore store(4 * kPage);
    std::uint8_t src[300];
    for (std::size_t i = 0; i < sizeof(src); ++i)
        src[i] = static_cast<std::uint8_t>(i * 7 + 1);
    const SimAddr at = 2 * kPage - 100; // 100 bytes in page 1, rest in 2
    store.writeBlock(at, src, sizeof(src));
    EXPECT_EQ(materializedPages(store), 2u);
    EXPECT_EQ(store.page(0), nullptr);
    EXPECT_EQ(store.page(3), nullptr);

    std::uint8_t dst[302];
    store.readBlock(at - 1, dst, sizeof(dst));
    EXPECT_EQ(dst[0], 0);
    EXPECT_EQ(std::memcmp(dst + 1, src, sizeof(src)), 0);
    EXPECT_EQ(dst[301], 0);
    // The page view agrees with the block reads.
    EXPECT_EQ(store.page(1)[kPage - 100], src[0]);
    EXPECT_EQ(store.page(2)[199], src[299]);

    // fill spanning three pages, touching the untouched page 3.
    store.fill(2 * kPage - 8, 0x5a, kPage + 16);
    EXPECT_EQ(materializedPages(store), 3u);
    EXPECT_EQ(store.read8(2 * kPage - 9), src[91]);
    EXPECT_EQ(store.read8(2 * kPage - 8), 0x5a);
    EXPECT_EQ(store.read8(3 * kPage + 7), 0x5a);
    EXPECT_EQ(store.read8(3 * kPage + 8), 0);
}

TEST(BackingStorePages, FreshStoreHasNoPagesAndOneWriteMaterializesOne)
{
    BackingStore store(8u << 20); // an engine-sized store
    EXPECT_EQ(store.pageCount(), (8u << 20) / kPage);
    EXPECT_EQ(materializedPages(store), 0u);

    store.write8(5 * kPage + 3, 0x42);
    EXPECT_EQ(materializedPages(store), 1u);
    ASSERT_NE(store.page(5), nullptr);
    // The rest of the materialized page is zero-filled.
    for (SimSize off = 0; off < kPage; ++off)
        ASSERT_EQ(store.page(5)[off], off == 3 ? 0x42 : 0);
}

/** What divergence seeding compares an unwritten page as. */
TEST(BackingStorePages, ZeroPageIsAllZeros)
{
    const std::uint8_t *zeros = BackingStore::zeroPage();
    for (SimSize off = 0; off < kPage; ++off)
        ASSERT_EQ(zeros[off], 0);
}

TEST(BackingStorePages, StoreSmallerThanAPage)
{
    BackingStore store(256);
    EXPECT_EQ(store.pageCount(), 1u);
    store.write32(252, 0xdeadbeef);
    EXPECT_EQ(store.read32(252), 0xdeadbeefu);
    EXPECT_FALSE(store.contains(252, 8));
}

TEST(BackingStorePages, CopiesAreDeep)
{
    BackingStore original(4 * kPage);
    original.write32(kPage, 0x11111111);
    BackingStore copy(original);
    copy.write32(kPage, 0x22222222);  // a page both have
    copy.write32(3 * kPage, 0x33333333); // a page only the copy has
    EXPECT_EQ(original.read32(kPage), 0x11111111u);
    EXPECT_EQ(original.read32(3 * kPage), 0u);
    EXPECT_EQ(materializedPages(original), 1u);
    EXPECT_EQ(copy.read32(kPage), 0x22222222u);
    EXPECT_EQ(materializedPages(copy), 2u);
    EXPECT_NE(copy.page(1), original.page(1));

    BackingStore assigned(kPage);
    assigned = original;
    assigned.write8(kPage, 0x99);
    EXPECT_EQ(original.read8(kPage), 0x11);
    EXPECT_EQ(assigned.size(), original.size());

    BackingStore moved(std::move(copy));
    EXPECT_EQ(moved.read32(3 * kPage), 0x33333333u);
}

TEST(BackingStoreDeath, OutOfRangeAccessesPanic)
{
    BackingStore store(256);
    EXPECT_DEATH(store.read8(256), "range");
    EXPECT_DEATH(store.write32(254, 1), "range");
    EXPECT_DEATH(store.read32(2), "misaligned");
}
