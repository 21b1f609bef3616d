/**
 * @file
 * Property tests of the F14-style flat hash table against
 * std::unordered_map — the host-side mirror container must behave
 * exactly like the node-based map it replaced, including under
 * erase-heavy churn where tombstone handling can silently break probe
 * chains.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "common/f14_table.hh"

using namespace clumsy;

namespace
{

using Map = F14Table<std::uint32_t, std::uint32_t>;
using Ref = std::unordered_map<std::uint32_t, std::uint32_t>;

/** Assert the table and the reference agree on every reference key
 *  plus a probe set of absent keys. */
void
expectEquivalent(const Map &map, const Ref &ref,
                 const std::vector<std::uint32_t> &absentProbes)
{
    ASSERT_EQ(map.size(), ref.size());
    for (const auto &[k, v] : ref) {
        const std::uint32_t *found = map.find(k);
        ASSERT_NE(found, nullptr) << "key " << k << " lost";
        EXPECT_EQ(*found, v) << "key " << k;
    }
    for (const std::uint32_t k : absentProbes) {
        if (ref.count(k) == 0) {
            EXPECT_EQ(map.find(k), nullptr) << "ghost key " << k;
        }
    }
}

} // namespace

TEST(F14Table, EmplaceFindBasics)
{
    Map map;
    EXPECT_TRUE(map.empty());
    EXPECT_TRUE(map.emplace(7, 70));
    EXPECT_FALSE(map.emplace(7, 71)); // present: value kept
    ASSERT_NE(map.find(7), nullptr);
    EXPECT_EQ(*map.find(7), 70u);
    map.insertOrAssign(7, 72);
    EXPECT_EQ(*map.find(7), 72u);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_FALSE(map.contains(8));
    EXPECT_TRUE(map.erase(7));
    EXPECT_FALSE(map.erase(7));
    EXPECT_TRUE(map.empty());
}

TEST(F14Table, GrowthKeepsEveryKey)
{
    Map map;
    Ref ref;
    for (std::uint32_t i = 0; i < 10000; ++i) {
        const std::uint32_t k = i * 2654435761u; // spread the keys
        EXPECT_TRUE(map.emplace(k, i));
        ref.emplace(k, i);
    }
    expectEquivalent(map, ref, {1, 2, 3});
    EXPECT_GE(map.capacity() * 7, map.size() * 8); // load invariant
}

TEST(F14Table, RandomOpsMatchUnorderedMap)
{
    // Narrow key space so chunks collide, fill and tombstone: the
    // interesting probe chains only form under collision pressure.
    std::mt19937_64 rng(0xf14f14u);
    Map map;
    Ref ref;
    std::vector<std::uint32_t> probes;
    for (std::uint32_t k = 0; k < 512; ++k)
        probes.push_back(k);
    for (unsigned op = 0; op < 40000; ++op) {
        const std::uint32_t k =
            static_cast<std::uint32_t>(rng() % 512);
        const std::uint32_t v = static_cast<std::uint32_t>(rng());
        switch (rng() % 4) {
        case 0:
            EXPECT_EQ(map.emplace(k, v), ref.emplace(k, v).second);
            break;
        case 1:
            map.insertOrAssign(k, v);
            ref[k] = v;
            break;
        case 2:
            EXPECT_EQ(map.erase(k), ref.erase(k) != 0);
            break;
        default: {
            const std::uint32_t *found = map.find(k);
            const auto it = ref.find(k);
            ASSERT_EQ(found != nullptr, it != ref.end());
            if (found != nullptr) {
                EXPECT_EQ(*found, it->second);
            }
            break;
        }
        }
        if (op % 4096 == 0)
            expectEquivalent(map, ref, probes);
    }
    expectEquivalent(map, ref, probes);
}

TEST(F14Table, TombstoneChurnStaysBounded)
{
    // Insert/erase the same working set repeatedly: tombstone
    // accumulation must trigger in-place rehash, not unbounded probe
    // chains or capacity growth.
    Map map;
    for (unsigned round = 0; round < 200; ++round) {
        for (std::uint32_t k = 0; k < 100; ++k)
            EXPECT_TRUE(map.emplace(k, k + round));
        for (std::uint32_t k = 0; k < 100; ++k)
            EXPECT_TRUE(map.erase(k));
    }
    EXPECT_TRUE(map.empty());
    // 100 live entries fit comfortably in a few chunks; churn must
    // not have ratcheted capacity past the load-factor requirement.
    EXPECT_LE(map.capacity(), 512u);
    for (std::uint32_t k = 0; k < 100; ++k)
        EXPECT_FALSE(map.contains(k));
}

TEST(F14Table, EraseKeepsColliderReachable)
{
    // Force >16 keys into one chunk's probe chain by filling a small
    // table, then erase early keys and verify later ones still probe
    // through (the tombstone-vs-empty distinction).
    Map map;
    std::vector<std::uint32_t> keys;
    for (std::uint32_t k = 0; keys.size() < 60; ++k) {
        map.emplace(k, k * 3);
        keys.push_back(k);
    }
    for (std::size_t i = 0; i < keys.size(); i += 2)
        EXPECT_TRUE(map.erase(keys[i]));
    for (std::size_t i = 1; i < keys.size(); i += 2) {
        ASSERT_TRUE(map.contains(keys[i])) << "key " << keys[i];
        EXPECT_EQ(*map.find(keys[i]), keys[i] * 3);
    }
    // Reinsert the erased half over the tombstones.
    for (std::size_t i = 0; i < keys.size(); i += 2)
        EXPECT_TRUE(map.emplace(keys[i], keys[i] * 5));
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(*map.find(keys[i]),
                  keys[i] * (i % 2 == 0 ? 5 : 3));
}

TEST(F14Table, ClearKeepsCapacityDropsEntries)
{
    Map map;
    for (std::uint32_t k = 0; k < 1000; ++k)
        map.emplace(k, k);
    const std::size_t cap = map.capacity();
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.capacity(), cap);
    for (std::uint32_t k = 0; k < 1000; ++k)
        EXPECT_FALSE(map.contains(k));
    EXPECT_TRUE(map.emplace(5, 50));
    EXPECT_EQ(*map.find(5), 50u);
}
