/**
 * @file
 * Tests of the simulated-memory crit-bit radix tree.
 */

#include <gtest/gtest.h>

#include <map>

#include "apps/radix_tree.hh"
#include "common/random.hh"
#include "core/processor.hh"

using namespace clumsy;
using namespace clumsy::apps;
using core::ClumsyProcessor;

TEST(Radix, EmptyTreeMisses)
{
    ClumsyProcessor proc;
    RadixTree tree(proc);
    EXPECT_EQ(tree.lookup(proc, 42), RadixTree::kNoMatch);
}

TEST(Radix, SingleInsert)
{
    ClumsyProcessor proc;
    RadixTree tree(proc);
    tree.insert(proc, 0xdeadbeef, 7);
    EXPECT_EQ(tree.lookup(proc, 0xdeadbeef), 7u);
    EXPECT_EQ(tree.lookup(proc, 0xdeadbee0), RadixTree::kNoMatch);
    EXPECT_EQ(tree.nodeCount(), 1u);
}

TEST(Radix, ManyRandomKeys)
{
    ClumsyProcessor proc;
    RadixTree tree(proc);
    Rng rng(31);
    std::map<std::uint32_t, std::uint32_t> reference;
    for (int i = 0; i < 500; ++i) {
        const auto key = static_cast<std::uint32_t>(rng.next());
        reference[key] = static_cast<std::uint32_t>(i);
        tree.insert(proc, key, static_cast<std::uint32_t>(i));
    }
    ASSERT_FALSE(proc.fatalOccurred());
    for (const auto &kv : reference)
        EXPECT_EQ(tree.lookup(proc, kv.first), kv.second);
    // Keys never inserted miss.
    for (int i = 0; i < 200; ++i) {
        const auto key = static_cast<std::uint32_t>(rng.next());
        if (!reference.count(key)) {
            EXPECT_EQ(tree.lookup(proc, key), RadixTree::kNoMatch);
        }
    }
}

TEST(Radix, AdversarialKeyShapes)
{
    // Keys differing only in the MSB/LSB, shared prefixes, zero.
    ClumsyProcessor proc;
    RadixTree tree(proc);
    const std::uint32_t keys[] = {0x00000000, 0x80000000, 0x00000001,
                                  0xffffffff, 0xfffffffe, 0x7fffffff,
                                  0x55555555, 0xaaaaaaaa};
    for (std::uint32_t i = 0; i < 8; ++i)
        tree.insert(proc, keys[i], i + 100);
    for (std::uint32_t i = 0; i < 8; ++i)
        EXPECT_EQ(tree.lookup(proc, keys[i]), i + 100);
}

TEST(Radix, UpdateInPlace)
{
    ClumsyProcessor proc;
    RadixTree tree(proc);
    tree.insert(proc, 5, 1);
    tree.insert(proc, 5, 2);
    EXPECT_EQ(tree.lookup(proc, 5), 2u);
    EXPECT_EQ(tree.nodeCount(), 1u);
}

TEST(Radix, RecorderCapturesLeafKey)
{
    ClumsyProcessor proc;
    RadixTree tree(proc);
    tree.insert(proc, 10, 1);
    tree.insert(proc, 20, 2);
    core::ValueRecorder rec;
    rec.beginPacket();
    tree.lookup(proc, 10, &rec, "node");
    core::ValueRecorder rec2;
    rec2.beginPacket();
    tree.lookup(proc, 10, &rec2, "node");
    EXPECT_TRUE(rec.comparePacket(0, rec2).empty());
}

TEST(Radix, BulkInstallMatchesIncrementalInserts)
{
    ClumsyProcessor procA, procB;
    RadixTree bulk(procA);
    RadixTree incremental(procB);
    Rng rng(32);
    std::vector<std::uint32_t> keys, values;
    for (int i = 0; i < 300; ++i) {
        keys.push_back(static_cast<std::uint32_t>(rng.next()));
        values.push_back(static_cast<std::uint32_t>(i));
    }
    bulk.bulkInstall(procA, keys, values);
    for (std::size_t i = 0; i < keys.size(); ++i)
        incremental.insert(procB, keys[i], values[i]);

    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(bulk.lookup(procA, keys[i]), values[i]);
        EXPECT_EQ(bulk.lookup(procA, keys[i]),
                  incremental.lookup(procB, keys[i]));
    }
    EXPECT_EQ(bulk.lookup(procA, 0x12345678),
              incremental.lookup(procB, 0x12345678));
    EXPECT_EQ(bulk.nodeCount(), incremental.nodeCount());
}

TEST(Radix, BulkInstallGeneratesNoCacheTraffic)
{
    ClumsyProcessor proc;
    RadixTree tree(proc);
    std::vector<std::uint32_t> keys{1, 2, 3, 4, 5};
    std::vector<std::uint32_t> values{10, 20, 30, 40, 50};
    const auto reads = proc.hierarchy().stats().get("reads");
    const auto writes = proc.hierarchy().stats().get("writes");
    tree.bulkInstall(proc, keys, values);
    EXPECT_EQ(proc.hierarchy().stats().get("reads"), reads);
    EXPECT_EQ(proc.hierarchy().stats().get("writes"), writes);
    EXPECT_EQ(tree.lookup(proc, 3), 30u);
}

TEST(Radix, AuditChecksumStableAcrossCleanRuns)
{
    ClumsyProcessor a, b;
    RadixTree ta(a), tb(b);
    for (std::uint32_t k = 0; k < 50; ++k) {
        ta.insert(a, k * 977, k);
        tb.insert(b, k * 977, k);
    }
    EXPECT_EQ(ta.auditChecksum(a), tb.auditChecksum(b));
}

TEST(Radix, AuditChecksumSeesCorruption)
{
    ClumsyProcessor a, b;
    RadixTree ta(a), tb(b);
    for (std::uint32_t k = 0; k < 50; ++k) {
        ta.insert(a, k * 977, k);
        tb.insert(b, k * 977, k);
    }
    // Corrupt the root's left-child pointer in tree b (internal
    // nodes hash their kind and child pointers).
    const SimAddr root = b.peek32(tb.rootPtrAddr());
    b.write32(root + 4, 0x12345678);
    EXPECT_NE(ta.auditChecksum(a), tb.auditChecksum(b));
}

TEST(Radix, CorruptedCycleTripsLoopGuard)
{
    ClumsyProcessor proc;
    RadixTree tree(proc);
    for (std::uint32_t k = 0; k < 16; ++k)
        tree.insert(proc, k * 12345 + 7, k);
    // Point the root's left child back at the root: a cycle.
    const SimAddr root = proc.peek32(tree.rootPtrAddr());
    proc.write32(root + 4, root);
    proc.write32(root + 8, root);
    EXPECT_EQ(tree.lookup(proc, 7), RadixTree::kNoMatch);
    EXPECT_TRUE(proc.fatalOccurred());
    EXPECT_NE(proc.fatalReason().find("radix lookup"),
              std::string::npos);
}

TEST(Radix, LeafSignBitConvention)
{
    EXPECT_TRUE(RadixTree::isLeaf(RadixTree::kLeafMarker));
    EXPECT_TRUE(RadixTree::isLeaf(0x80000000));
    EXPECT_FALSE(RadixTree::isLeaf(0));
    EXPECT_FALSE(RadixTree::isLeaf(31));
    EXPECT_FALSE(RadixTree::isLeaf(0x7fffffff));
}
