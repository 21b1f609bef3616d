/**
 * @file
 * Tests of the generic data-carrying set-associative cache.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <random>
#include <vector>

#include "mem/cache.hh"
#include "mem/parity.hh"

using namespace clumsy;
using namespace clumsy::mem;

namespace
{

std::vector<std::uint8_t>
patternLine(unsigned lineBytes, std::uint8_t seed)
{
    std::vector<std::uint8_t> data(lineBytes);
    for (unsigned i = 0; i < lineBytes; ++i)
        data[i] = static_cast<std::uint8_t>(seed + i);
    return data;
}

} // namespace

TEST(Cache, MissThenHit)
{
    Cache cache("t", CacheGeometry{4096, 1, 32, 22});
    EXPECT_FALSE(cache.lookup(0x100));
    const auto line = patternLine(32, 1);
    cache.fill(0x100, line.data());
    EXPECT_TRUE(cache.lookup(0x100));
    EXPECT_TRUE(cache.lookup(0x11c)); // same line
    EXPECT_FALSE(cache.lookup(0x120)); // next line
    EXPECT_EQ(cache.stats().get("hits"), 2u);
    EXPECT_EQ(cache.stats().get("misses"), 2u);
}

TEST(Cache, FillPreservesData)
{
    Cache cache("t", CacheGeometry{4096, 1, 32, 22});
    const auto line = patternLine(32, 7);
    const std::size_t at = cache.fill(0x200, line.data()).line;
    std::uint8_t out[32];
    cache.readLine(at, out);
    EXPECT_EQ(std::memcmp(out, line.data(), 32), 0);
    std::uint32_t word;
    std::memcpy(&word, &line[8], 4);
    EXPECT_EQ(cache.readWordRaw(at, 0x208), word);
}

TEST(Cache, FillLookupAndFindNameTheSameLine)
{
    Cache cache("t", CacheGeometry{256, 2, 32, 22});
    const auto l = patternLine(32, 12);
    const std::size_t a = cache.fill(0x000, l.data()).line;
    const std::size_t b = cache.fill(0x080, l.data()).line; // same set
    EXPECT_NE(a, b);
    EXPECT_EQ(*cache.find(0x01c), a);
    EXPECT_EQ(*cache.lookup(0x084), b);
    EXPECT_EQ(cache.lineOf(0x080), b);
    EXPECT_FALSE(cache.find(0x100).has_value());
    EXPECT_EQ(cache.stats().get("hits"), 1u); // find() counts nothing
}

TEST(Cache, DirectMappedConflictEvicts)
{
    Cache cache("t", CacheGeometry{4096, 1, 32, 22});
    const auto a = patternLine(32, 1);
    const auto b = patternLine(32, 2);
    cache.fill(0x0, a.data());
    // Same set (stride = cache size), different tag.
    const auto evicted = cache.fill(0x1000, b.data());
    EXPECT_TRUE(evicted.valid);
    EXPECT_FALSE(evicted.dirty);
    EXPECT_EQ(evicted.base, 0x0u);
    EXPECT_FALSE(cache.contains(0x0));
    EXPECT_TRUE(cache.contains(0x1000));
}

TEST(Cache, LruVictimSelection)
{
    Cache cache("t", CacheGeometry{256, 2, 32, 22});
    // Set count = 256/(32*2) = 4; lines 0x000, 0x080, 0x100 share set 0.
    const auto l = patternLine(32, 3);
    cache.fill(0x000, l.data());
    cache.fill(0x080, l.data());
    cache.lookup(0x000); // touch 0x000: 0x080 becomes LRU
    const auto evicted = cache.fill(0x100, l.data());
    EXPECT_TRUE(evicted.valid);
    EXPECT_EQ(evicted.base, 0x080u);
    EXPECT_TRUE(cache.contains(0x000));
}

TEST(Cache, DirtyWritebackCarriesData)
{
    Cache cache("t", CacheGeometry{4096, 1, 32, 22});
    const auto l = patternLine(32, 4);
    const std::size_t at = cache.fill(0x40, l.data()).line;
    cache.writeWordRaw(at, 0x40, 0xdeadbeef,
                       cache.computeCheck(0xdeadbeef));
    cache.setDirty(at);
    EXPECT_TRUE(cache.isDirty(at));
    const auto evicted = cache.fill(0x1040, l.data());
    ASSERT_TRUE(evicted.valid);
    ASSERT_TRUE(evicted.dirty);
    ASSERT_EQ(evicted.data.size(), 32u);
    std::uint32_t word;
    std::memcpy(&word, evicted.data.data(), 4);
    EXPECT_EQ(word, 0xdeadbeefu);
    EXPECT_EQ(cache.stats().get("writebacks"), 1u);
}

TEST(Cache, ExplicitParityCanDisagreeWithData)
{
    // The clumsy essence: a faulty array write stores data whose
    // parity bit reflects the *intended* value.
    Cache cache("t", CacheGeometry{4096, 1, 32, 22});
    const auto l = patternLine(32, 5);
    const std::size_t at = cache.fill(0x80, l.data()).line;
    const std::uint32_t intended = 0x00000000;
    const std::uint32_t corrupted = 0x00000001; // 1-bit write fault
    cache.writeWordRaw(at, 0x80, corrupted, cache.computeCheck(intended));
    EXPECT_EQ(cache.readWordRaw(at, 0x80), corrupted);
    EXPECT_FALSE(parityMatches(cache.readWordRaw(at, 0x80),
                               (cache.wordCheck(at, 0x80) & 1) != 0));
}

TEST(Cache, FillRegeneratesParity)
{
    Cache cache("t", CacheGeometry{4096, 1, 32, 22});
    const auto l = patternLine(32, 6);
    const std::size_t at = cache.fill(0xc0, l.data()).line;
    for (SimAddr off = 0; off < 32; off += 4) {
        EXPECT_TRUE(
            parityMatches(cache.readWordRaw(at, 0xc0 + off),
                          (cache.wordCheck(at, 0xc0 + off) & 1) != 0));
    }
}

TEST(Cache, WriteRangeRegeneratesParity)
{
    Cache cache("t", CacheGeometry{4096, 1, 32, 22});
    const auto l = patternLine(32, 7);
    const std::size_t at = cache.fill(0x100, l.data()).line;
    const std::uint8_t patch[6] = {0xff, 0x01, 0x02, 0x03, 0x04, 0x05};
    cache.writeRange(at, 0x102, patch, 6, true); // spans words 0 and 1
    EXPECT_TRUE(parityMatches(cache.readWordRaw(at, 0x100),
                              (cache.wordCheck(at, 0x100) & 1) != 0));
    EXPECT_TRUE(parityMatches(cache.readWordRaw(at, 0x104),
                              (cache.wordCheck(at, 0x104) & 1) != 0));
    EXPECT_TRUE(cache.isDirty(at));
}

TEST(Cache, InvalidateDropsLine)
{
    Cache cache("t", CacheGeometry{4096, 1, 32, 22});
    const auto l = patternLine(32, 8);
    const std::size_t at = cache.fill(0x140, l.data()).line;
    cache.setDirty(at);
    cache.invalidate(at);
    EXPECT_FALSE(cache.contains(0x140));
    EXPECT_EQ(cache.stats().get("invalidations"), 1u);
}

TEST(Cache, ResetClearsContentsKeepsGeometry)
{
    Cache cache("t", CacheGeometry{4096, 1, 32, 22});
    const auto l = patternLine(32, 9);
    cache.fill(0x180, l.data());
    cache.reset();
    EXPECT_FALSE(cache.contains(0x180));
}

TEST(Cache, MissRate)
{
    Cache cache("t", CacheGeometry{4096, 1, 32, 22});
    const auto l = patternLine(32, 10);
    cache.lookup(0x0); // miss
    cache.fill(0x0, l.data());
    cache.lookup(0x0); // hit
    cache.lookup(0x4); // hit
    EXPECT_NEAR(cache.missRate(), 1.0 / 3.0, 1e-12);
}

TEST(CacheDeath, RawAccessRequiresPresence)
{
    Cache cache("t", CacheGeometry{4096, 1, 32, 22});
    EXPECT_DEATH(cache.lineOf(0x40), "not present");
    EXPECT_DEATH(cache.readWordRaw(2, 0x40), "not present");
    EXPECT_DEATH(cache.invalidate(2), "not present");
}

TEST(CacheDeath, WordAccessMustBeInsideTheGivenLine)
{
    Cache cache("t", CacheGeometry{4096, 1, 32, 22});
    const auto l = patternLine(32, 13);
    const std::size_t at = cache.fill(0x40, l.data()).line;
    EXPECT_DEATH(cache.readWordRaw(at, 0x60), "outside the given line");
    EXPECT_DEATH(cache.writeWordRaw(at, 0x1040, 0, 0),
                 "outside the given line");
    EXPECT_DEATH(cache.wordCheck(at, 0x44 + 0x20),
                 "outside the given line");
}

TEST(CacheDeath, FillRejectsDuplicate)
{
    Cache cache("t", CacheGeometry{4096, 1, 32, 22});
    const auto l = patternLine(32, 11);
    cache.fill(0x40, l.data());
    EXPECT_DEATH(cache.fill(0x48, l.data()), "already-present");
}

// ---------------------------------------------------------------------
// Equivalence of the flat SoA array against a naive per-line model.
//
// The metadata layout (flat valid/dirty/tag/LRU lanes indexed
// set*assoc+way) is a pure representation change; this drives both
// the real cache and a deliberately dumb struct-of-lines reference
// through a long random op sequence and demands identical hits,
// victims, evictions, contents and counters at every step.
// ---------------------------------------------------------------------

namespace
{

/** Straight-line reference: one heap struct per line, linear scans. */
class RefCache
{
  public:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;
        std::uint64_t tick = 0;
        std::vector<std::uint8_t> data;
    };

    struct Evicted
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t base = 0;
    };

    RefCache(unsigned sets, unsigned assoc, unsigned lineBytes)
        : sets_(sets), assoc_(assoc), lineBytes_(lineBytes),
          lines_(std::size_t{sets} * assoc)
    {
        for (auto &l : lines_)
            l.data.assign(lineBytes, 0);
    }

    Line *findLine(std::uint64_t addr)
    {
        const std::uint64_t tag = addr / lineBytes_;
        const std::size_t set = tag % sets_;
        for (unsigned w = 0; w < assoc_; ++w) {
            Line &l = lines_[set * assoc_ + w];
            if (l.valid && l.tag == tag)
                return &l;
        }
        return nullptr;
    }

    bool lookup(std::uint64_t addr)
    {
        Line *l = findLine(addr);
        if (l == nullptr)
            return false;
        l->tick = ++tick_;
        return true;
    }

    Evicted fill(std::uint64_t addr, const std::uint8_t *data)
    {
        const std::uint64_t tag = addr / lineBytes_;
        const std::size_t set = tag % sets_;
        Line *victim = nullptr;
        for (unsigned w = 0; w < assoc_; ++w) {
            Line &l = lines_[set * assoc_ + w];
            if (!l.valid) {
                victim = &l;
                break;
            }
            if (victim == nullptr || l.tick < victim->tick)
                victim = &l;
        }
        Evicted ev;
        if (victim->valid) {
            ev.valid = true;
            ev.dirty = victim->dirty;
            ev.base = victim->tag * lineBytes_;
        }
        victim->valid = true;
        victim->dirty = false;
        victim->tag = tag;
        victim->tick = ++tick_;
        victim->data.assign(data, data + lineBytes_);
        return ev;
    }

    void writeRange(std::uint64_t addr, const std::uint8_t *src,
                    unsigned len, bool markDirty)
    {
        Line *l = findLine(addr);
        ASSERT_NE(l, nullptr);
        const std::uint64_t off = addr % lineBytes_;
        std::memcpy(l->data.data() + off, src, len);
        if (markDirty)
            l->dirty = true;
    }

  private:
    unsigned sets_, assoc_, lineBytes_;
    std::vector<Line> lines_;
    std::uint64_t tick_ = 0;
};

} // namespace

TEST(Cache, SoaMatchesNaiveModelUnderRandomOps)
{
    // 4 sets x 2 ways of 32 B: tiny, so random addresses conflict and
    // evict constantly.
    Cache cache("t", CacheGeometry{256, 2, 32, 22});
    RefCache ref(4, 2, 32);

    std::mt19937_64 rng(0x50a50a);
    std::uint64_t fills = 0, evictions = 0, writebacks = 0;
    std::uint64_t hits = 0, misses = 0;
    for (unsigned op = 0; op < 20000; ++op) {
        // 16 distinct lines over 4 sets.
        const std::uint64_t base = (rng() % 16) * 32;
        switch (rng() % 3) {
        case 0: { // lookup, fill on miss
            const bool hit = cache.lookup(base + rng() % 32).has_value();
            const bool refHit = ref.lookup(base);
            ASSERT_EQ(hit, refHit) << "op " << op;
            (hit ? hits : misses) += 1;
            if (!hit) {
                std::uint8_t data[32];
                for (unsigned i = 0; i < 32; ++i)
                    data[i] = static_cast<std::uint8_t>(rng());
                const Cache::Evicted ev = cache.fill(base, data);
                const RefCache::Evicted rev = ref.fill(base, data);
                ++fills;
                ASSERT_EQ(ev.valid, rev.valid) << "op " << op;
                if (ev.valid) {
                    ++evictions;
                    ASSERT_EQ(ev.dirty, rev.dirty) << "op " << op;
                    ASSERT_EQ(ev.base, rev.base) << "op " << op;
                    if (ev.dirty)
                        ++writebacks;
                }
            }
            break;
        }
        case 1: { // write inside the line when present
            if (!cache.contains(base))
                break;
            std::uint8_t patch[8];
            for (std::uint8_t &b : patch)
                b = static_cast<std::uint8_t>(rng());
            const unsigned off = rng() % 25; // off+8 <= 32
            const bool markDirty = rng() % 2 == 0;
            cache.writeRange(cache.lineOf(base), base + off, patch, 8,
                             markDirty);
            ref.writeRange(base + off, patch, 8, markDirty);
            break;
        }
        default: { // compare the full stored line + dirty bit
            RefCache::Line *l = ref.findLine(base);
            ASSERT_EQ(cache.contains(base), l != nullptr)
                << "op " << op;
            if (l == nullptr)
                break;
            const std::size_t at = cache.lineOf(base);
            std::uint8_t got[32];
            cache.readLine(at, got);
            ASSERT_EQ(std::memcmp(got, l->data.data(), 32), 0)
                << "op " << op;
            ASSERT_EQ(cache.isDirty(at), l->dirty) << "op " << op;
            break;
        }
        }
    }
    EXPECT_GT(evictions, 100u); // the sequence actually stressed LRU
    EXPECT_EQ(cache.stats().get("hits"), hits);
    EXPECT_EQ(cache.stats().get("misses"), misses);
    EXPECT_EQ(cache.stats().get("fills"), fills);
    EXPECT_EQ(cache.stats().get("evictions"), evictions);
    EXPECT_EQ(cache.stats().get("writebacks"), writebacks);
}

/**
 * Cache::Evicted::data is a view of a cache-owned victim line, not a
 * copy: a dirty victim's bytes must equal the line's contents just
 * before the fill, and must survive fills of *another* cache — the
 * L1D's writeback path refills the L2 before it reads the victim.
 */
TEST(Cache, DirtyVictimViewHoldsPreFillBytes)
{
    Cache upper("l1d", CacheGeometry{256, 2, 32, 22});
    Cache lower("l2", CacheGeometry{1024, 2, 32, 22});
    std::mt19937_64 rng(0x71c7);
    // Host copy of every line resident in `upper`.
    std::map<SimAddr, std::vector<std::uint8_t>> resident;
    unsigned dirtyVictims = 0;
    for (unsigned op = 0; op < 20000; ++op) {
        const SimAddr base = static_cast<SimAddr>(rng() % 16) * 32;
        std::vector<std::uint8_t> bytes(32);
        for (std::uint8_t &b : bytes)
            b = static_cast<std::uint8_t>(rng());
        if (upper.contains(base)) {
            const unsigned off = rng() % 25; // off+8 <= 32
            upper.writeRange(upper.lineOf(base), base + off, bytes.data(),
                             8, true);
            std::memcpy(resident.at(base).data() + off, bytes.data(), 8);
            continue;
        }
        const Cache::Evicted ev = upper.fill(base, bytes.data());
        if (ev.valid) {
            const std::vector<std::uint8_t> &before = resident.at(ev.base);
            if (ev.dirty) {
                ++dirtyVictims;
                ASSERT_EQ(ev.data.size(), 32u);
                ASSERT_TRUE(std::equal(ev.data.begin(), ev.data.end(),
                                       before.begin()))
                    << "op " << op;
                const SimAddr other =
                    static_cast<SimAddr>(rng() % 64) * 32;
                if (!lower.contains(other))
                    lower.fill(other, bytes.data());
                ASSERT_TRUE(std::equal(ev.data.begin(), ev.data.end(),
                                       before.begin()))
                    << "op " << op << ": a fill of another cache moved "
                    << "the victim view";
            } else {
                EXPECT_TRUE(ev.data.empty());
            }
            resident.erase(ev.base);
        }
        resident[base] = bytes;
    }
    EXPECT_GT(dirtyVictims, 1000u);
}
