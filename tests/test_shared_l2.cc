/**
 * @file
 * Tests of the genuinely shared L2 (src/npu/shared_l2.*): array-level
 * invariants (occupancy, per-engine stat consistency, divergence
 * monotonicity, victim routing), MSHR merging at the port, the
 * value-preservation guarantee at chip level (shared vs private runs
 * compute identical marked values), bit-identity of the degenerate
 * configurations (one engine; l2=private), flow-rehash dispatch
 * properties, and completion uniqueness under backpressure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "common/pool.hh"
#include "core/experiment.hh"
#include "mem/backing_store.hh"
#include "mem/cache.hh"
#include "mem/l2_port.hh"
#include "net/trace_gen.hh"
#include "npu/chip.hh"
#include "npu/config.hh"
#include "npu/dispatcher.hh"
#include "npu/shared_l2.hh"
#include "sweep/runner.hh"
#include "sweep/sink.hh"
#include "sweep/spec.hh"

using namespace clumsy;
using namespace clumsy::npu;

namespace
{

/**
 * A tiny shared L2 for unit tests: 2-way, 16 sets, 128-byte lines
 * (4 KiB array, set span 2 KiB) over 8 KiB per-engine stores — small
 * enough that evictions are easy to provoke, and the 8 KiB coloring
 * stride is a multiple of the 2 KiB set span as the model requires.
 */
constexpr SimSize kMemBytes = 8192;
constexpr SimSize kLineBytes = 128;

mem::CacheGeometry
tinyGeometry()
{
    return mem::CacheGeometry{4096, 2, 128, 22};
}

struct TinySharedL2
{
    std::vector<mem::BackingStore> stores;
    SharedL2Cache shared;

    explicit TinySharedL2(unsigned peCount)
        : stores(peCount, mem::BackingStore(kMemBytes)),
          shared(tinyGeometry(), mem::CheckCodec::Parity, kMemBytes,
                 peCount)
    {
        // Identical contents everywhere: every line starts shared.
        for (unsigned pe = 0; pe < peCount; ++pe) {
            for (SimAddr a = 0; a < kMemBytes; a += 4)
                stores[pe].write32(a, 0x1000u + a);
            shared.attach(pe, &stores[pe], nullptr);
        }
        shared.seedDivergence();
    }

    /** Fill the line at base from pe's own store. */
    void refill(unsigned pe, SimAddr base)
    {
        std::uint8_t buf[kLineBytes];
        stores[pe].readBlock(base, buf, kLineBytes);
        shared.fill(pe, base, buf);
    }
};

core::ExperimentConfig
smallConfig()
{
    core::ExperimentConfig cfg;
    cfg.numPackets = 300;
    cfg.trials = 2;
    cfg.cr = 0.5;
    cfg.scheme = mem::RecoveryScheme::TwoStrike;
    return cfg;
}

/** Sum of one per-engine counter over all engines. */
std::uint64_t
sumStat(const SharedL2Cache &shared, unsigned peCount,
        std::uint64_t SharedL2Cache::EngineStats::*field)
{
    std::uint64_t total = 0;
    for (unsigned pe = 0; pe < peCount; ++pe)
        total += shared.engineStats(pe).*field;
    return total;
}

} // namespace

// --- array-level invariants -------------------------------------------

/**
 * The books balance: every lookup lands in exactly one engine's
 * hit/miss counter AND the array's own counter, so the per-engine
 * sums must equal the array stats — and the array can never hold more
 * valid lines than its capacity, no matter how many engines share it.
 */
TEST(SharedL2Cache, EngineStatsSumToArrayStatsAndCapacityHolds)
{
    constexpr unsigned kPes = 3;
    TinySharedL2 t(kPes);
    const std::size_t capacityLines =
        tinyGeometry().sizeBytes / tinyGeometry().lineBytes;

    // A deterministic mixed workload: every engine sweeps the whole
    // store, missing, refilling and re-touching lines.
    for (unsigned round = 0; round < 3; ++round) {
        for (unsigned pe = 0; pe < kPes; ++pe) {
            for (SimAddr base = 0; base < kMemBytes;
                 base += kLineBytes) {
                if (!t.shared.lookup(pe, base + 4 * pe))
                    t.refill(pe, base);
                ASSERT_LE(t.shared.array().validLineCount(),
                          capacityLines);
            }
        }
    }

    const StatGroup &arr = t.shared.array().stats();
    EXPECT_EQ(
        sumStat(t.shared, kPes, &SharedL2Cache::EngineStats::hits),
        arr.get("hits"));
    EXPECT_EQ(
        sumStat(t.shared, kPes, &SharedL2Cache::EngineStats::misses),
        arr.get("misses"));
    EXPECT_LE(t.shared.array().validLineCount(), capacityLines);
}

/** Engine A's refill hits for engine B, and is counted as the
 *  cross-engine hit that makes sharing worthwhile. */
TEST(SharedL2Cache, RefillByOneEngineHitsForAnother)
{
    TinySharedL2 t(2);

    EXPECT_FALSE(t.shared.lookup(0, 0));
    t.refill(0, 0);
    EXPECT_TRUE(t.shared.lookup(1, 4));
    EXPECT_EQ(t.shared.engineStats(1).crossHits, 1u);
    // The owner's own hit is not a cross hit.
    EXPECT_TRUE(t.shared.lookup(0, 8));
    EXPECT_EQ(t.shared.engineStats(0).crossHits, 0u);
}

/**
 * Writing through the L2 makes the writer's copy differ from the
 * other engines': the shared frame must become the writer's colored
 * line (divergence is monotone), the other engine misses and refills
 * its own copy, and each engine reads back its own bytes — the
 * value-preservation contract at the smallest scale.
 */
TEST(SharedL2Cache, WriteDivergesTheLineAndKeepsValuesPerEngine)
{
    TinySharedL2 t(2);
    const SimAddr base = 2048;

    t.refill(0, base);
    ASSERT_TRUE(t.shared.sharedFrame(base));
    const std::uint8_t newByte[1] = {0xAB};
    t.shared.writeRange(0, base + 12, newByte, 1, true);

    EXPECT_FALSE(t.shared.sharedFrame(base));
    EXPECT_EQ(t.shared.divergedLines(), 1u);
    EXPECT_EQ(t.shared.stats().get("shared_to_colored"), 1u);

    // Engine 1 no longer shares the frame: it misses and refills its
    // own (unmodified) copy, after which both colored copies coexist.
    EXPECT_FALSE(t.shared.lookup(1, base));
    t.refill(1, base);
    EXPECT_TRUE(t.shared.lookup(1, base));
    EXPECT_EQ(t.shared.readWordRaw(0, base + 12) & 0xFFu, 0xABu);
    EXPECT_EQ(t.shared.readWordRaw(1, base + 12),
              t.stores[1].read32(base + 12));
}

/** Dirty colored victims write back to the OWNER's store, even when
 *  another engine's fill triggered the eviction. */
TEST(SharedL2Cache, EvictionRoutesDirtyWritebackToOwnerStore)
{
    TinySharedL2 t(2);
    const SimAddr base = 0; // set 0

    // Engine 0: diverge line 0 (DMA-style flush), refill its colored
    // copy and dirty it.
    t.shared.flushLine(0, base);
    ASSERT_FALSE(t.shared.sharedFrame(base));
    t.refill(0, base);
    const std::uint8_t dirtyByte[1] = {0x5A};
    t.shared.writeRange(0, base + 0, dirtyByte, 1, true);

    // Engine 1 fills the set's other way, then evicts engine 0's
    // dirty line with a third line of the same set (2 KiB apart).
    t.refill(1, base);
    t.shared.flushLine(1, 2048);
    t.refill(1, 2048);
    t.shared.flushLine(1, 4096);
    t.refill(1, 4096);

    EXPECT_EQ(t.stores[0].read8(0), 0x5A);
    EXPECT_EQ(t.shared.stats().get("writebacks_to_mem"), 1u);
    EXPECT_GE(t.shared.engineStats(0).evictedByOther, 1u);
}

/**
 * Evicted::data is a view of the shared array's victim line: every
 * dirty colored victim must reach its owner's store with the bytes the
 * line held just before the evicting fill. Two engines write random
 * bytes into aliasing lines of one set (refilling from their own
 * stores on a miss); a victim written back with the wrong bytes would
 * surface in a later refill and in the final store images.
 */
TEST(SharedL2Cache, DirtyVictimsReachOwnerStoreWithPreFillBytes)
{
    TinySharedL2 t(2);
    // Per-engine host image of what its memory must hold.
    std::vector<std::vector<std::uint8_t>> model(
        2, std::vector<std::uint8_t>(kMemBytes));
    for (unsigned pe = 0; pe < 2; ++pe)
        t.stores[pe].readBlock(0, model[pe].data(), kMemBytes);

    std::mt19937_64 rng(0x5ca1ab1e);
    for (unsigned op = 0; op < 4000; ++op) {
        const unsigned pe = static_cast<unsigned>(rng() % 2);
        // The four lines of set 0 (2 KiB apart).
        const SimAddr base = static_cast<SimAddr>(rng() % 4) * 2048;
        if (t.shared.sharedFrame(base))
            t.shared.flushLine(pe, base); // diverge: colored from here
        if (!t.shared.contains(pe, base))
            t.refill(pe, base);
        std::uint8_t patch[16];
        for (std::uint8_t &b : patch)
            b = static_cast<std::uint8_t>(rng());
        const SimAddr off = static_cast<SimAddr>(rng() % 7) * 16;
        t.shared.writeRange(pe, base + off, patch, sizeof patch, true);
        std::memcpy(model[pe].data() + base + off, patch, sizeof patch);
        // The line reads back through the array as written so far.
        for (SimAddr w = 0; w < kLineBytes; w += 4) {
            std::uint32_t want;
            std::memcpy(&want, model[pe].data() + base + w, 4);
            ASSERT_EQ(t.shared.readWordRaw(pe, base + w), want)
                << "op " << op;
        }
    }
    EXPECT_GT(t.shared.stats().get("writebacks_to_mem"), 500u);
    // Write the still-resident dirty lines back, then compare images.
    for (unsigned pe = 0; pe < 2; ++pe)
        for (SimAddr base = 0; base < 4 * 2048; base += 2048)
            t.shared.flushLine(pe, base);
    for (unsigned pe = 0; pe < 2; ++pe) {
        std::vector<std::uint8_t> got(kMemBytes);
        t.stores[pe].readBlock(0, got.data(), kMemBytes);
        EXPECT_EQ(got, model[pe]) << "engine " << pe;
    }
}

/** Shared frames are always clean: evicting one costs no writeback,
 *  and the loss is charged to the engine that installed it. */
TEST(SharedL2Cache, SharedFrameEvictionIsFreeAndCharged)
{
    TinySharedL2 t(2);

    // Three shared frames into the 2-way set 0: the third fill (by
    // engine 1) evicts engine 0's LRU frame.
    t.refill(0, 0);
    t.refill(0, 2048);
    t.refill(1, 4096);

    EXPECT_EQ(t.shared.stats().get("writebacks_to_mem"), 0u);
    EXPECT_EQ(t.shared.engineStats(0).evictedByOther, 1u);
    // The evicted frame is genuinely gone for everyone.
    EXPECT_FALSE(t.shared.contains(0, 0));
    EXPECT_FALSE(t.shared.contains(1, 0));
}

/** seedDivergence finds pre-existing store mismatches (control-plane
 *  faults) and colors those lines from the start. */
TEST(SharedL2Cache, SeedDivergenceColorsMismatchedLines)
{
    std::vector<mem::BackingStore> stores(2,
                                          mem::BackingStore(kMemBytes));
    for (unsigned pe = 0; pe < 2; ++pe)
        for (SimAddr a = 0; a < kMemBytes; a += 4)
            stores[pe].write32(a, a);
    stores[1].write8(300, 0xFF); // one corrupted byte in engine 1

    SharedL2Cache shared(tinyGeometry(), mem::CheckCodec::Parity,
                         kMemBytes, 2);
    shared.attach(0, &stores[0], nullptr);
    shared.attach(1, &stores[1], nullptr);
    shared.seedDivergence();

    EXPECT_EQ(shared.divergedLines(), 1u);
    EXPECT_EQ(shared.stats().get("seeded_diverged"), 1u);
    EXPECT_FALSE(shared.sharedFrame(300));
    EXPECT_TRUE(shared.sharedFrame(0));
}

namespace
{

/**
 * Random engine stores for the seeding equivalence test: 16 pages of
 * 4 KiB, written so every page kind the page walk distinguishes shows
 * up — pages nobody wrote, pages every engine wrote identically (with
 * and without a few corrupted bytes), pages only one engine wrote,
 * pages written back to all-zero bytes, and writes that straddle page
 * boundaries.
 */
std::vector<mem::BackingStore>
randomStores(unsigned peCount, std::uint64_t seed)
{
    constexpr SimSize kBytes = 16 * mem::BackingStore::kPageBytes;
    constexpr SimSize kPage = mem::BackingStore::kPageBytes;
    std::mt19937_64 rng(seed);
    auto below = [&rng](std::uint64_t n) {
        return static_cast<SimSize>(rng() % n);
    };
    std::vector<mem::BackingStore> stores(peCount,
                                          mem::BackingStore(kBytes));
    std::vector<std::uint8_t> blob(3 * kPage);
    for (int op = 0; op < 40; ++op) {
        const SimSize len = 1 + below(2 * kPage);
        const SimAddr at = below(kBytes - len + 1);
        for (SimSize i = 0; i < len; ++i)
            blob[i] = static_cast<std::uint8_t>(rng());
        switch (below(5)) {
          case 0: // identical everywhere (control-plane tables)
          case 1:
            for (mem::BackingStore &st : stores)
                st.writeBlock(at, blob.data(), len);
            break;
          case 2: // one engine only (a packet buffer, a DMA)
            stores[below(peCount)].writeBlock(at, blob.data(), len);
            break;
          case 3: // written, then written back to zeros by one engine
            {
                mem::BackingStore &st = stores[below(peCount)];
                st.writeBlock(at, blob.data(), len);
                st.fill(at, 0, len);
            }
            break;
          default: // a few corrupted bytes (control-plane faults)
            for (int k = 0; k < 3; ++k)
                stores[below(peCount)].write8(
                    below(kBytes), static_cast<std::uint8_t>(rng()));
            break;
        }
    }
    return stores;
}

/** Dense reference: every line of every store vs engine 0's. */
std::vector<bool>
denseDivergence(const std::vector<mem::BackingStore> &stores)
{
    const SimSize bytes = stores[0].size();
    std::vector<bool> diverged(bytes / kLineBytes, false);
    std::uint8_t ref[kLineBytes], buf[kLineBytes];
    for (SimAddr base = 0; base < bytes; base += kLineBytes) {
        stores[0].readBlock(base, ref, kLineBytes);
        for (std::size_t pe = 1; pe < stores.size(); ++pe) {
            stores[pe].readBlock(base, buf, kLineBytes);
            if (std::memcmp(ref, buf, kLineBytes) != 0)
                diverged[base / kLineBytes] = true;
        }
    }
    return diverged;
}

} // namespace

/**
 * The page walk in seedDivergence marks exactly the lines a dense
 * line-by-line diff finds — pages only one engine wrote, pages
 * written back to zeros (materialized, yet equal to an unwritten
 * page) and page-straddling writes included — serially and through
 * pools of several widths.
 */
TEST(SharedL2Cache, SeedDivergencePageWalkMatchesDenseDiff)
{
    const WorkStealingPool pool3(3);
    const WorkStealingPool pool4(4);
    const WorkStealingPool *pools[] = {nullptr, &pool3, &pool4};
    for (unsigned peCount = 2; peCount <= 4; ++peCount) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            SCOPED_TRACE("pes " + std::to_string(peCount) + " seed " +
                         std::to_string(seed));
            std::vector<mem::BackingStore> stores =
                randomStores(peCount, seed * 1000 + peCount);
            const SimSize bytes = stores[0].size();
            const std::vector<bool> expect = denseDivergence(stores);
            const std::uint64_t expectCount = static_cast<std::uint64_t>(
                std::count(expect.begin(), expect.end(), true));
            for (const WorkStealingPool *pool : pools) {
                SharedL2Cache shared(tinyGeometry(),
                                     mem::CheckCodec::Parity, bytes,
                                     peCount);
                for (unsigned pe = 0; pe < peCount; ++pe)
                    shared.attach(pe, &stores[pe], nullptr);
                shared.seedDivergence(pool);
                EXPECT_EQ(shared.divergedLines(), expectCount);
                EXPECT_EQ(shared.stats().get("seeded_diverged"),
                          expectCount);
                for (SimAddr base = 0; base < bytes; base += kLineBytes)
                    ASSERT_EQ(shared.sharedFrame(base),
                              !expect[base / kLineBytes])
                        << "line " << base;
            }
        }
    }
}

/**
 * A control-plane publish is an in-place store to a line every engine
 * shares (the FIB root pointer): the write must diverge the line in
 * the bitmap, and a non-updating engine must keep reading its own
 * pre-update pointer — updates on one engine never leak into another
 * engine's control plane through the shared array.
 */
TEST(SharedL2Cache, CtrlPublishDivergesLineForNonUpdatingEngines)
{
    TinySharedL2 t(3);
    const SimAddr rootPtr = 1024; // the "FIB root pointer" word
    const std::uint32_t oldRoot = t.stores[0].read32(rootPtr);

    // Every engine has the control-plane line resident and shared.
    t.refill(0, 1024);
    EXPECT_TRUE(t.shared.lookup(1, rootPtr));
    EXPECT_TRUE(t.shared.lookup(2, rootPtr));
    ASSERT_TRUE(t.shared.sharedFrame(rootPtr));

    // Engine 0 publishes a new root: one 4-byte in-place store.
    const std::uint32_t newRoot = 0x1b70cafeu;
    std::uint8_t bytes[4];
    std::memcpy(bytes, &newRoot, 4);
    t.shared.writeRange(0, rootPtr, bytes, 4, true);

    EXPECT_FALSE(t.shared.sharedFrame(rootPtr));
    EXPECT_EQ(t.shared.divergedLines(), 1u);
    EXPECT_EQ(t.shared.readWordRaw(0, rootPtr), newRoot);

    // The non-updating engines lost the frame, refill their own
    // copies, and still see the old root — value preservation for the
    // control plane, not just packet data.
    EXPECT_FALSE(t.shared.lookup(1, rootPtr));
    t.refill(1, 1024);
    EXPECT_EQ(t.shared.readWordRaw(1, rootPtr), oldRoot);
    // Divergence is monotone: the line never becomes shared again.
    EXPECT_FALSE(t.shared.sharedFrame(rootPtr));
}

// --- MSHR merging at the port -----------------------------------------

/**
 * A hit on a shared frame whose DRAM transfer another engine started
 * folds into that transfer's MSHR: it cannot complete before the data
 * actually arrives, so the hitter waits for the in-flight miss.
 */
TEST(SharedL2Port, HitMergesIntoOtherEnginesInflightMiss)
{
    SharedL2Port port(/*hitService=*/2, /*missService=*/10,
                      /*mshrs=*/2);

    // Engine 0 misses line 0: its transfer occupies [0, 10).
    mem::L2LineUse miss{0, true, true};
    EXPECT_EQ(port.requestPort(0, 10, 1, 1, &miss, 1), 0);

    // Engine 1 hits the same line while the transfer is in flight
    // (its own window would be [2, 4)): it must wait until time 10.
    mem::L2LineUse hit{0, false, true};
    EXPECT_EQ(port.requestPort(1, 4, 1, 0, &hit, 1), 8);
    EXPECT_EQ(port.stats().get("mshr_merges"), 1u);
}

TEST(SharedL2Port, NoMergeForOwnTransferOrNonShareableLines)
{
    // The engine that started the transfer never merges with itself.
    SharedL2Port own(2, 10, 2);
    mem::L2LineUse miss{0, true, true};
    own.requestPort(0, 10, 1, 1, &miss, 1);
    mem::L2LineUse hit{0, false, true};
    EXPECT_EQ(own.requestPort(0, 4, 1, 0, &hit, 1), 0);
    EXPECT_EQ(own.stats().get("mshr_merges"), 0u);

    // Private-L2 lines are never shareable, so nothing ever merges —
    // the private chip's timing is untouched by the merge machinery.
    SharedL2Port priv(2, 10, 2);
    mem::L2LineUse pMiss{0, true, false};
    priv.requestPort(0, 10, 1, 1, &pMiss, 1);
    mem::L2LineUse pHit{0, false, false};
    EXPECT_EQ(priv.requestPort(1, 4, 1, 0, &pHit, 1), 0);
    EXPECT_EQ(priv.stats().get("mshr_merges"), 0u);
}

// --- chip-level value preservation ------------------------------------

/**
 * The heart of the shared-L2 design: sharing changes WHEN bytes move
 * (hit/miss pattern, port waits), never WHICH bytes an engine reads.
 * A golden chip run in shared mode must complete the same packets on
 * the same engines with identical marked values as the private run.
 */
TEST(SharedL2Chip, SharedAndPrivateComputeIdenticalValues)
{
    const core::ExperimentConfig cfg = smallConfig();
    NpuConfig priv;
    priv.peCount = 4;
    priv.dispatch = DispatchPolicy::FlowHash;
    NpuConfig shared = priv;
    shared.l2 = L2Mode::Shared;

    const ChipRun a = runChipGolden(apps::appFactory("nat"), cfg, priv);
    const ChipRun b =
        runChipGolden(apps::appFactory("nat"), cfg, shared);

    ASSERT_EQ(a.completions.size(), b.completions.size());
    EXPECT_EQ(a.merged.packetsProcessed, b.merged.packetsProcessed);
    for (std::size_t seq = 0; seq < a.completions.size(); ++seq) {
        const Completion &where = a.completions[seq];
        const Completion &other = b.completions[seq];
        ASSERT_EQ(other.done(), where.done()) << "seq " << seq;
        if (!where.done())
            continue;
        // Same engine, same processing slot on that engine...
        EXPECT_EQ(other.pe, where.pe) << "seq " << seq;
        EXPECT_EQ(other.frame, where.frame) << "seq " << seq;
        // ...and bit-identical marked values for the packet.
        const auto diff = a.recorders[where.pe].comparePacket(
            where.frame, b.recorders[other.pe], other.frame);
        EXPECT_TRUE(diff.empty())
            << "seq " << seq << " first differing key: " << diff[0];
    }
    // Sharing actually engaged: engines hit on each other's refills.
    EXPECT_GT(b.chip.crossEngineHits, 0.0);
    EXPECT_EQ(a.chip.crossEngineHits, 0.0);
}

/**
 * The same value-preservation contract with the control plane churning
 * underneath: every engine applies its own copy of the update stream,
 * and the updated lines diverge rather than bleed across engines, so
 * shared-mode marked values still match the private run exactly.
 */
TEST(SharedL2Chip, SharedAndPrivateIdenticalUnderCtrlChurn)
{
    core::ExperimentConfig cfg = smallConfig();
    cfg.ctrl.rate = 100;
    NpuConfig priv;
    priv.peCount = 4;
    priv.dispatch = DispatchPolicy::FlowHash;
    NpuConfig shared = priv;
    shared.l2 = L2Mode::Shared;

    const ChipRun a = runChipGolden(apps::appFactory("lpm"), cfg, priv);
    const ChipRun b =
        runChipGolden(apps::appFactory("lpm"), cfg, shared);

    EXPECT_GT(a.merged.ctrlEventsApplied, 0u);
    EXPECT_EQ(a.merged.ctrlEventsApplied, b.merged.ctrlEventsApplied);
    ASSERT_EQ(a.completions.size(), b.completions.size());
    for (std::size_t seq = 0; seq < a.completions.size(); ++seq) {
        const Completion &where = a.completions[seq];
        const Completion &other = b.completions[seq];
        ASSERT_EQ(other.done(), where.done()) << "seq " << seq;
        if (!where.done())
            continue;
        EXPECT_EQ(other.pe, where.pe) << "seq " << seq;
        EXPECT_EQ(other.frame, where.frame) << "seq " << seq;
        const auto diff = a.recorders[where.pe].comparePacket(
            where.frame, b.recorders[other.pe], other.frame);
        EXPECT_TRUE(diff.empty())
            << "seq " << seq << " first differing key: " << diff[0];
    }
}

/** A one-engine chip has nobody to share with: l2=shared must be the
 *  private configuration bit for bit, cross-engine metrics zero. */
TEST(SharedL2Chip, OneEngineSharedMatchesPrivateBitForBit)
{
    const core::ExperimentConfig cfg = smallConfig();
    NpuConfig priv; // 1 PE
    NpuConfig shared = priv;
    shared.l2 = L2Mode::Shared;

    const ChipExperimentResult a =
        runChipExperiment(apps::appFactory("route"), cfg, priv);
    const ChipExperimentResult b =
        runChipExperiment(apps::appFactory("route"), cfg, shared);

    EXPECT_EQ(sweep::experimentResultJson(a.core),
              sweep::experimentResultJson(b.core));
    EXPECT_EQ(a.faultyChip.makespanCycles, b.faultyChip.makespanCycles);
    EXPECT_EQ(a.faultyChip.chipEdf, b.faultyChip.chipEdf);
    for (const ChipMetrics *m : {&b.goldenChip, &b.faultyChip}) {
        EXPECT_EQ(m->crossEngineHits, 0.0);
        EXPECT_EQ(m->l2EvictionsByOther, 0.0);
        EXPECT_EQ(m->mshrMerges, 0.0);
    }
}

/** Shared-mode runs are deterministic: repeating the experiment
 *  reproduces every metric, merges and cross-hits included. */
TEST(SharedL2Chip, SharedModeRepeatRunsAreByteIdentical)
{
    const core::ExperimentConfig cfg = smallConfig();
    NpuConfig npuCfg;
    npuCfg.peCount = 4;
    npuCfg.mshrs = 2;
    npuCfg.l2 = L2Mode::Shared;

    const ChipExperimentResult a =
        runChipExperiment(apps::appFactory("nat"), cfg, npuCfg);
    const ChipExperimentResult b =
        runChipExperiment(apps::appFactory("nat"), cfg, npuCfg);

    EXPECT_EQ(sweep::experimentResultJson(a.core),
              sweep::experimentResultJson(b.core));
    EXPECT_EQ(a.faultyChip.crossEngineHits,
              b.faultyChip.crossEngineHits);
    EXPECT_EQ(a.faultyChip.mshrMerges, b.faultyChip.mshrMerges);
    EXPECT_EQ(a.faultyChip.l2EvictionsByOther,
              b.faultyChip.l2EvictionsByOther);
    EXPECT_EQ(a.faultyChip.l2PortWaitCycles,
              b.faultyChip.l2PortWaitCycles);
}

/** Shared-L2 sweep cells are byte-identical across worker counts:
 *  the merge machinery introduces no scheduling nondeterminism. */
TEST(SharedL2Chip, SweepCellsByteIdenticalAcrossWorkerCounts)
{
    sweep::SweepSpec spec;
    spec.apps = {"route"};
    spec.points = {{0.5, false}};
    spec.schemes = {mem::RecoveryScheme::TwoStrike};
    spec.peCounts = {2};
    spec.mshrs = {2};
    spec.l2Modes = {L2Mode::Private, L2Mode::Shared};
    spec.packets = 200;
    spec.trials = 2;

    const sweep::SweepOutcome serial = sweep::runSweep(spec, 1);
    const sweep::SweepOutcome parallel = sweep::runSweep(spec, 4);
    EXPECT_EQ(sweep::renderJson(serial, false),
              sweep::renderJson(parallel, false));
    ASSERT_EQ(serial.cells.size(), 2u);
    EXPECT_EQ(serial.cells[0].cell.l2, L2Mode::Private);
    EXPECT_EQ(serial.cells[1].cell.l2, L2Mode::Shared);
    EXPECT_GT(serial.cells[1].npuGolden.crossEngineHits, 0.0);
    EXPECT_EQ(serial.cells[0].npuGolden.crossEngineHits, 0.0);
}

// --- flow-rehash dispatch properties ----------------------------------

/**
 * Fuzzed affinity: across 1000 generated headers, every packet of a
 * 5-tuple flow lands on the same engine; with rehash enabled a dead
 * pinned engine deterministically re-homes the whole flow to one
 * alive engine instead of dropping it.
 */
TEST(NpuDispatchRehash, FlowsStayTogetherAndRehashDeterministically)
{
    net::TraceConfig tc;
    tc.numFlows = 64;
    net::TraceGenerator gen(tc);
    const auto trace = gen.generate(1000);

    constexpr unsigned kPes = 8;
    const std::vector<unsigned> depths(kPes, 0);
    const std::vector<char> allAlive(kPes, 1);
    std::vector<char> someDead(kPes, 1);
    someDead[2] = someDead[5] = 0;

    Dispatcher pinned(DispatchPolicy::FlowHash, kPes, false);
    Dispatcher rehash(DispatchPolicy::FlowHash, kPes, true);

    // flow key -> engine chosen, per liveness scenario
    std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint16_t,
                        std::uint16_t, std::uint8_t>,
             std::pair<int, int>>
        flowPe;
    for (const net::Packet &pkt : trace) {
        const int healthy = rehash.choose(pkt, depths, allAlive);
        const int degraded = rehash.choose(pkt, depths, someDead);
        ASSERT_GE(healthy, 0);
        ASSERT_GE(degraded, 0);
        // Rehash never picks a dead engine, and agrees with the
        // pinned policy whenever the pinned engine is alive.
        EXPECT_TRUE(someDead[static_cast<unsigned>(degraded)]);
        EXPECT_EQ(healthy,
                  static_cast<int>(flowHash(pkt) % kPes));
        const int pinnedChoice = pinned.choose(pkt, depths, someDead);
        if (pinnedChoice >= 0) {
            EXPECT_EQ(degraded, pinnedChoice);
        }

        const auto key = std::make_tuple(pkt.ip.src, pkt.ip.dst,
                                         pkt.srcPort, pkt.dstPort,
                                         pkt.ip.protocol);
        const auto [it, fresh] = flowPe.emplace(
            key, std::make_pair(healthy, degraded));
        if (!fresh) {
            EXPECT_EQ(it->second.first, healthy);
            EXPECT_EQ(it->second.second, degraded);
        }
    }

    // Without rehash, a dead pinned engine drops the flow (-1); with
    // rehash the flow moves. A fully-dead chip still has no home.
    bool sawDeadPin = false;
    const std::vector<char> allDead(kPes, 0);
    for (const net::Packet &pkt : trace) {
        if (!someDead[flowHash(pkt) % kPes]) {
            sawDeadPin = true;
            EXPECT_EQ(pinned.choose(pkt, depths, someDead), -1);
        }
        EXPECT_EQ(rehash.choose(pkt, depths, allDead), -1);
    }
    EXPECT_TRUE(sawDeadPin) << "trace never hit a dead engine";
}

// --- completion uniqueness under backpressure -------------------------

/**
 * Backpressure re-enqueues arrivals instead of dropping them; the
 * chip must still complete every trace sequence exactly once (the
 * chip model asserts this internally — this drives the re-enqueue
 * path and checks the external contract).
 */
TEST(SharedL2Chip, BackpressureCompletesEverySequenceExactlyOnce)
{
    core::ExperimentConfig cfg = smallConfig();
    cfg.numPackets = 400;
    NpuConfig npuCfg;
    npuCfg.peCount = 2;
    npuCfg.queueCapacity = 1; // maximal re-enqueue pressure
    npuCfg.l2 = L2Mode::Shared;

    const ChipRun r =
        runChipGolden(apps::appFactory("crc"), cfg, npuCfg);
    EXPECT_GT(r.chip.backpressureStalls, 0.0);
    ASSERT_EQ(r.completions.size(), 400u);
    // The index has one slot per sequence (a second completion of one
    // would have panicked); the real check is that all 400 slots,
    // sequences 0..399, completed on a real engine.
    for (std::size_t seq = 0; seq < r.completions.size(); ++seq) {
        EXPECT_TRUE(r.completions[seq].done()) << "seq " << seq;
        EXPECT_LT(r.completions[seq].pe, 2u) << "seq " << seq;
    }
    EXPECT_EQ(r.merged.packetsProcessed, 400u);
}
