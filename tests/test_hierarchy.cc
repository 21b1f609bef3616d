/**
 * @file
 * Tests of the three-level memory hierarchy: data/latency behavior,
 * write-back propagation, fault detection and strike recovery, DMA
 * flush semantics and hardware-like wild/unaligned access handling.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <ostream>
#include <random>
#include <vector>

#include "energy/chip_energy.hh"
#include "fault/fault_map.hh"
#include "fault/injector.hh"
#include "mem/hierarchy.hh"

using namespace clumsy;
using namespace clumsy::mem;

namespace
{

struct Rig
{
    HierarchyConfig config;
    BackingStore store{1u << 20};
    fault::FaultInjector injector;
    energy::EnergyModel model;
    energy::EnergyAccount account;
    MemHierarchy hier;

    explicit Rig(HierarchyConfig cfg = {}, double faultScale = 0.0,
                 std::uint64_t seed = 1)
        : Rig(cfg,
              [faultScale] {
                  fault::FaultModelParams p;
                  p.scale = faultScale;
                  return p;
              }(),
              seed)
    {
    }

    Rig(HierarchyConfig cfg, fault::FaultModelParams faults,
        std::uint64_t seed)
        : config(cfg),
          injector(fault::FaultModel(faults), seed),
          model(energy::EnergyParams{}, cfg.l1d, cfg.l1i, cfg.l2),
          account(&model),
          hier(config, &store, &injector, &account)
    {
    }
};

} // namespace

TEST(Hierarchy, ReadAfterWrite)
{
    Rig rig;
    rig.hier.write(0x1000, 4, 0xcafef00d);
    EXPECT_EQ(rig.hier.read(0x1000, 4).value, 0xcafef00du);
}

TEST(Hierarchy, SubWordAccesses)
{
    Rig rig;
    rig.hier.write(0x2000, 4, 0x11223344);
    rig.hier.write(0x2001, 1, 0xaa);
    EXPECT_EQ(rig.hier.read(0x2000, 4).value, 0x1122aa44u);
    EXPECT_EQ(rig.hier.read(0x2000, 2).value, 0xaa44u);
    EXPECT_EQ(rig.hier.read(0x2003, 1).value, 0x11u);
    rig.hier.write(0x2002, 2, 0xbeef);
    EXPECT_EQ(rig.hier.read(0x2000, 4).value, 0xbeefaa44u);
}

TEST(Hierarchy, LatencyLadder)
{
    Rig rig;
    // Cold read: L1 miss -> L2 miss -> DRAM.
    const auto cold = rig.hier.read(0x3000, 4);
    EXPECT_EQ(cold.latency,
              cyclesToQuanta(2 + 15 + 60));
    // Hot read: pure L1 hit at Cr = 1 -> 2 cycles.
    const auto hot = rig.hier.read(0x3000, 4);
    EXPECT_EQ(hot.latency, cyclesToQuanta(2));
    // Neighbor L1 line within the same (now-resident) L2 line.
    const auto warm = rig.hier.read(0x3020, 4);
    EXPECT_EQ(warm.latency, cyclesToQuanta(2 + 15));
}

TEST(Hierarchy, OverClockingShortensL1HitsDownToTheFloor)
{
    Rig rig;
    rig.hier.read(0x3000, 4);
    rig.hier.setCycleTime(0.75);
    EXPECT_EQ(rig.hier.read(0x3000, 4).latency, 18);
    rig.hier.setCycleTime(0.5);
    EXPECT_EQ(rig.hier.read(0x3000, 4).latency, cyclesToQuanta(1));
    // Load-use floor: the core cannot consume data faster than one
    // of its own cycles, so 0.25 is no faster than 0.5.
    rig.hier.setCycleTime(0.25);
    EXPECT_EQ(rig.hier.read(0x3000, 4).latency, cyclesToQuanta(1));
}

TEST(Hierarchy, WritebackReachesDramUnderPressure)
{
    Rig rig;
    rig.hier.write(0x4000, 4, 0x5555aaaa);
    // Evict through both levels by touching conflicting lines: L1 is
    // 4 KB direct-mapped, L2 is 128 KB 4-way; stride 128 KB aliases
    // both.
    for (SimAddr a = 0; a < 6u * (128u << 10); a += 128u << 10)
        rig.hier.read(0x4000 + (128u << 10) + a, 4);
    EXPECT_EQ(rig.store.read32(0x4000), 0x5555aaaau);
}

/**
 * Dirty victims carry the line's pre-fill bytes at both levels: an
 * L1D victim is written into the L2 after the writeback path may have
 * refilled the L2, and an L2 victim is written to DRAM. Random
 * writes over addresses that alias in both arrays, checked against a
 * host model on every read, would return stale or foreign bytes if an
 * eviction's view were read after it was reused.
 */
TEST(Hierarchy, DirtyVictimsCarryPreFillBytesThroughBothLevels)
{
    Rig rig;
    std::mt19937_64 rng(0xd1e7);
    std::map<SimAddr, std::uint32_t> model;
    for (unsigned op = 0; op < 20000; ++op) {
        // 8 aliases 128 KiB apart (L1D and L2 conflicts) x 4 words.
        const SimAddr addr = 0x4000 +
                             static_cast<SimAddr>(rng() % 8) * (128u << 10) +
                             static_cast<SimAddr>(rng() % 4) * 4;
        if (rng() % 2 == 0) {
            const auto value = static_cast<std::uint32_t>(rng());
            rig.hier.write(addr, 4, value);
            model[addr] = value;
        } else {
            const auto it = model.find(addr);
            const std::uint32_t want = it == model.end() ? 0 : it->second;
            ASSERT_EQ(rig.hier.read(addr, 4).value, want) << "op " << op;
        }
    }
    EXPECT_GT(rig.hier.l1d().stats().get("writebacks"), 1000u);
    EXPECT_GT(rig.hier.l2().stats().get("writebacks"), 100u);
}

TEST(Hierarchy, PeekSeesNewestCopy)
{
    Rig rig;
    rig.hier.write(0x5000, 4, 0x01020304);
    EXPECT_EQ(rig.hier.peekWord(0x5000), 0x01020304u);
    // Peek does not disturb stats.
    const auto reads = rig.hier.stats().get("reads");
    rig.hier.peekWord(0x5000);
    EXPECT_EQ(rig.hier.stats().get("reads"), reads);
}

TEST(Hierarchy, WildReadReturnsLazyZeros)
{
    Rig rig;
    const auto a = rig.hier.read(0xf0000000, 4);
    EXPECT_TRUE(a.wild);
    EXPECT_EQ(a.value, 0u);
    EXPECT_EQ(rig.hier.stats().get("wild_reads"), 1u);
}

TEST(Hierarchy, WildWriteIsDropped)
{
    Rig rig;
    const auto acc = rig.hier.write(0xf0000000, 4, 1);
    EXPECT_TRUE(acc.wild);
    EXPECT_EQ(rig.hier.stats().get("wild_writes"), 1u);
}

TEST(Hierarchy, UnalignedAccessForceAligned)
{
    Rig rig;
    rig.hier.write(0x6000, 4, 0xaabbccdd);
    const auto acc = rig.hier.read(0x6002, 4); // masked to 0x6000
    EXPECT_EQ(acc.value, 0xaabbccddu);
    EXPECT_EQ(rig.hier.stats().get("unaligned_reads"), 1u);
}

TEST(Hierarchy, FetchHitsAreFree)
{
    Rig rig;
    const SimAddr pc = 0x7000;
    const auto cold = rig.hier.fetch(pc);
    EXPECT_GT(cold.latency, 0);
    EXPECT_EQ(cold.l2Accesses, 1u);
    const auto hot = rig.hier.fetch(pc);
    EXPECT_EQ(hot.latency, 0);
    EXPECT_EQ(hot.l2Accesses, 0u);
}

TEST(Hierarchy, FlushRangePreservesDirtyNeighbors)
{
    // Regression: a DMA flush over part of a line must not lose the
    // dirty data sharing that line.
    Rig rig;
    rig.hier.write(0x8000, 4, 0x12344321); // dirty word
    rig.hier.flushRange(0x8004, 8);        // same L1 line
    EXPECT_EQ(rig.store.read32(0x8000), 0x12344321u);
    EXPECT_EQ(rig.hier.read(0x8000, 4).value, 0x12344321u);
}

TEST(Hierarchy, ReadFaultsAreTransientWithRetry)
{
    // With parity + two-strike, a read-sense fault is retried and the
    // correct stored value is returned.
    HierarchyConfig cfg;
    cfg.scheme = RecoveryScheme::TwoStrike;
    Rig rig(cfg, /*faultScale=*/2e3, /*seed=*/5);
    rig.hier.setCycleTime(0.25);
    rig.hier.write(0x9000, 4, 0x0f0f0f0f);
    // Force the line clean in L2 so invalidation recovery also works.
    rig.hier.flushRange(0x9000, 4);
    unsigned wrong = 0;
    for (int i = 0; i < 20000; ++i) {
        if (rig.hier.read(0x9000, 4).value != 0x0f0f0f0f)
            ++wrong;
    }
    EXPECT_GT(rig.hier.stats().get("parity_trips"), 0u);
    EXPECT_GT(rig.hier.stats().get("strike_retries"), 0u);
    // Two-bit faults can still slip through parity; everything else
    // must have been corrected.
    EXPECT_LT(wrong, 10u);
}

TEST(Hierarchy, NoDetectionLetsFaultsThrough)
{
    Rig rig(HierarchyConfig{}, /*faultScale=*/2e4, /*seed=*/6);
    rig.hier.setCycleTime(0.25);
    rig.hier.write(0xa000, 4, 0x0f0f0f0f);
    unsigned wrong = 0;
    for (int i = 0; i < 20000; ++i) {
        if (rig.hier.read(0xa000, 4).value != 0x0f0f0f0f)
            ++wrong;
    }
    EXPECT_GT(wrong, 50u);
    EXPECT_EQ(rig.hier.stats().get("parity_trips"), 0u);
}

TEST(Hierarchy, WriteFaultDetectedOnLaterRead)
{
    // A write fault leaves stored data disagreeing with its parity;
    // one-strike recovery must invalidate and refetch from L2.
    HierarchyConfig cfg;
    cfg.scheme = RecoveryScheme::OneStrike;
    Rig rig(cfg, /*faultScale=*/0.0, /*seed=*/7);

    // Prepare: value in L2/DRAM is 0x77777777.
    rig.hier.write(0xb000, 4, 0x77777777);
    rig.hier.flushRange(0xb000, 4);
    rig.hier.read(0xb000, 4); // refill L1 cleanly

    // Now emulate a write fault by a burst of faulty writes. The
    // rate must stay well below saturation: if every access faults,
    // the write flip and the read-sense flip pair into an even-weight
    // pattern that parity cannot see.
    fault::FaultModelParams boost;
    boost.scale = 500.0;
    rig.injector = fault::FaultInjector(fault::FaultModel(boost), 8);
    rig.hier.setCycleTime(0.25);
    bool sawRecovery = false;
    for (int i = 0; i < 100000 && !sawRecovery; ++i) {
        rig.hier.write(0xb000, 4, 0x77777777);
        const auto acc = rig.hier.read(0xb000, 4);
        if (acc.parityTrips > 0) {
            sawRecovery = true;
            // One-strike: the block was salvaged to L2 and refetched.
            // If the detected fault was a read-sense fault the value
            // comes back correct; a genuine write fault comes back
            // parity-consistent but corrupted (the undetected-fault
            // channel), so the exact value is not asserted here.
        }
    }
    EXPECT_TRUE(sawRecovery);
    EXPECT_GT(rig.hier.stats().get("strike_invalidations"), 0u);
}

TEST(Hierarchy, EnergyChargedPerAccess)
{
    Rig rig;
    const double before = rig.account.totalPj();
    rig.hier.read(0xc000, 4);
    EXPECT_GT(rig.account.totalPj(), before);
    EXPECT_GT(rig.account.l1dPj(), 0.0);
    EXPECT_GT(rig.account.l2Pj(), 0.0);
}

TEST(Hierarchy, L1dEnergyIsTheModelPriceAtTheCurrentClock)
{
    // Each protection level, and the clock it is re-priced at, must
    // charge exactly the model's per-access price: bit-equal, not
    // merely close, because the recorded energies are compared
    // stringwise by the golden corpus.
    struct Level
    {
        RecoveryScheme scheme;
        CheckCodec codec;
        energy::Protection prot;
    };
    const Level levels[] = {
        {RecoveryScheme::NoDetection, CheckCodec::Parity,
         energy::Protection::None},
        {RecoveryScheme::OneStrike, CheckCodec::Parity,
         energy::Protection::Parity},
        {RecoveryScheme::TwoStrike, CheckCodec::Secded,
         energy::Protection::Secded},
    };
    for (const Level &level : levels) {
        HierarchyConfig cfg;
        cfg.scheme = level.scheme;
        cfg.codec = level.codec;
        Rig rig(cfg);
        for (const double cr : {1.0, 0.75, 0.5, 0.3, 0.25}) {
            SCOPED_TRACE(cr);
            rig.hier.setCycleTime(cr);
            rig.hier.write(0xe000, 4, 0x1234); // line now resident
            rig.account.reset();
            rig.hier.read(0xe000, 4);
            EXPECT_EQ(rig.account.l1dPj(),
                      rig.model.l1dReadPj(cr, level.prot));
            rig.account.reset();
            rig.hier.write(0xe000, 4, 0x5678);
            EXPECT_EQ(rig.account.l1dPj(),
                      rig.model.l1dWritePj(cr, level.prot));
        }
    }
}

TEST(Hierarchy, ResetDropsState)
{
    Rig rig;
    rig.hier.write(0xd000, 4, 0xffffffff);
    rig.hier.reset();
    EXPECT_EQ(rig.hier.stats().get("writes"), 0u);
    // The dirty write was dropped with the caches; DRAM keeps junk.
    EXPECT_FALSE(rig.hier.l1d().contains(0xd000));
}

TEST(HierarchyDeath, RejectsBadWidth)
{
    Rig rig;
    EXPECT_DEATH(rig.hier.read(0, 3), "width");
    EXPECT_DEATH(rig.hier.write(0, 5, 0), "width");
    L1dProbe probe;
    std::uint32_t value = 0;
    EXPECT_DEATH(rig.hier.tryReadHit(0, 3, value, probe), "width");
    EXPECT_DEATH(rig.hier.tryWriteHit(0, 5, 0, probe), "width");
}

namespace
{

/**
 * One configuration of the head-versus-tail differential: twin
 * hierarchies are built from it with the same seeds.
 */
struct DiffCase
{
    RecoveryScheme scheme;
    CheckCodec codec;
    bool subBlock = false;
    unsigned ways = 1;   ///< L1D associativity
    unsigned retire = 0; ///< way-disable threshold (0 = off)
    bool mapped = false; ///< weak-cell map mode
};

void
PrintTo(const DiffCase &c, std::ostream *os)
{
    *os << to_string(c.scheme)
        << (c.codec == CheckCodec::Secded ? "/secded" : "/parity")
        << (c.subBlock ? " subblock" : "") << " ways=" << c.ways
        << " retire=" << c.retire << (c.mapped ? " mapped" : "");
}

/**
 * Issue one access the way ClumsyProcessor does: the inline head,
 * then on a fall-through the full path with the head's probe.
 * @p headHits counts the accesses the head committed.
 */
Access
viaHead(MemHierarchy &h, bool store, SimAddr addr, unsigned bytes,
        std::uint32_t value, std::uint64_t &headHits)
{
    L1dProbe probe;
    Access acc;
    if (store ? h.tryWriteHit(addr, bytes, value, probe)
              : h.tryReadHit(addr, bytes, acc.value, probe)) {
        acc.latency = h.l1dHitQuanta();
        ++headHits;
        return acc;
    }
    return store ? h.write(addr, bytes, value, probe)
                 : h.read(addr, bytes, probe);
}

void
expectSameAccess(const Access &a, const Access &b, std::uint64_t i)
{
    EXPECT_EQ(a.value, b.value) << "access " << i;
    EXPECT_EQ(a.latency, b.latency) << "access " << i;
    EXPECT_EQ(a.wild, b.wild) << "access " << i;
    EXPECT_EQ(a.faultsInjected, b.faultsInjected) << "access " << i;
    EXPECT_EQ(a.parityTrips, b.parityTrips) << "access " << i;
    EXPECT_EQ(a.l2Accesses, b.l2Accesses) << "access " << i;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << "access " << i;
    ASSERT_EQ(a.l2LineCount, b.l2LineCount) << "access " << i;
    for (unsigned k = 0; k < a.l2LineCount; ++k) {
        EXPECT_EQ(a.l2Lines[k].base, b.l2Lines[k].base) << "access " << i;
        EXPECT_EQ(a.l2Lines[k].miss, b.l2Lines[k].miss) << "access " << i;
    }
}

void
expectSameState(const Rig &a, const Rig &b)
{
    EXPECT_EQ(a.hier.stats().dump(), b.hier.stats().dump());
    EXPECT_EQ(a.hier.l1d().stats().dump(), b.hier.l1d().stats().dump());
    EXPECT_EQ(a.hier.l1i().stats().dump(), b.hier.l1i().stats().dump());
    EXPECT_EQ(a.hier.l2().stats().dump(), b.hier.l2().stats().dump());
    EXPECT_EQ(a.injector.stats().dump(), b.injector.stats().dump());
    EXPECT_EQ(a.injector.accessCount(), b.injector.accessCount());
    EXPECT_EQ(a.injector.faultCount(), b.injector.faultCount());
    EXPECT_EQ(a.injector.peekRaw(), b.injector.peekRaw());
    // Exact: both sides add the same doubles in the same order.
    EXPECT_EQ(a.account.l1dPj(), b.account.l1dPj());
    EXPECT_EQ(a.account.totalPj(), b.account.totalPj());
}

class HeadDifferential : public ::testing::TestWithParam<DiffCase>
{
};

} // namespace

/**
 * The inline heads (tryReadHit/tryWriteHit) must be invisible: a
 * hierarchy driven head-first, as the processor drives it, and its
 * twin driven through read()/write() alone see the same values and
 * latencies and end in the same state, over random word, half and
 * byte traffic with unaligned and wild addresses, L1I fetches, DMA
 * flushes, clock switches and injection switched off and on.
 */
TEST_P(HeadDifferential, HeadThenTailMatchesTailAlone)
{
    const DiffCase &c = GetParam();
    HierarchyConfig cfg;
    cfg.l1d = CacheGeometry{4096, c.ways, 32, 22};
    cfg.scheme = c.scheme;
    cfg.codec = c.codec;
    cfg.subBlockRecovery = c.subBlock;
    cfg.wayDisable.retireThreshold = c.retire;
    // Scaled rates, with multi-bit faults boosted 10x over singles'
    // share, so every recovery path fires within the run.
    fault::FaultModelParams faults;
    faults.scale = 500.0;
    faults.baseDoubleBit = 2.59e-6;
    faults.baseTripleBit = 2.59e-7;
    constexpr std::uint64_t kSeed = 0xd1ff;
    Rig head(cfg, faults, kSeed);
    Rig tail(cfg, faults, kSeed);
    const fault::FaultMap map = fault::FaultMap::generate(
        fault::FaultMapGeometry{cfg.l1d.sets(), c.ways, 32},
        fault::FaultMapParams{}, 0x3a9);
    if (c.mapped) {
        head.injector.attachMap(&map);
        tail.injector.attachMap(&map);
    }

    std::mt19937_64 gen(0x5eed + c.ways * 16 + c.retire);
    const auto pick = [&gen](std::uint64_t n) { return gen() % n; };
    const double clocks[] = {1.0, 0.75, 0.5, 0.3, 0.25};
    const SimAddr span = 3 * 4096; // three L1Ds' worth: conflicts
    std::uint64_t headHits = 0;
    constexpr std::uint64_t kAccesses = 20000;
    for (std::uint64_t i = 0; i < kAccesses; ++i) {
        if (i % 1500 == 0) {
            const double cr = clocks[pick(std::size(clocks))];
            head.hier.setCycleTime(cr);
            tail.hier.setCycleTime(cr);
        }
        if (i % 5000 == 4000) {
            const bool on = i % 10000 != 4000;
            head.injector.setEnabled(on);
            tail.injector.setEnabled(on);
        }
        const std::uint64_t roll = pick(1000);
        if (roll < 3) {
            const SimAddr at = static_cast<SimAddr>(pick(span));
            head.hier.flushRange(at, 64);
            tail.hier.flushRange(at, 64);
            continue;
        }
        if (roll < 13) {
            const SimAddr pc = static_cast<SimAddr>(pick(span));
            expectSameAccess(head.hier.fetch(pc), tail.hier.fetch(pc), i);
            continue;
        }
        const unsigned bytes = 1u << pick(3);
        // Mostly a 2 KB hot region (hits), else anywhere in the span.
        SimAddr addr = static_cast<SimAddr>(pick(roll < 800 ? 2048 : span)) &
                       ~(bytes - 1);
        if (roll < 40)
            addr = static_cast<SimAddr>(pick(span)) | 1; // unaligned
        else if (roll < 50)
            addr = static_cast<SimAddr>(head.store.size() + pick(4096));
        const bool store = pick(3) == 0;
        const auto value = static_cast<std::uint32_t>(gen());
        const Access viaTail = store ? tail.hier.write(addr, bytes, value)
                                     : tail.hier.read(addr, bytes);
        expectSameAccess(viaHead(head.hier, store, addr, bytes, value,
                                 headHits),
                         viaTail, i);
        if (::testing::Test::HasFailure())
            FAIL() << "diverged at access " << i;
    }
    expectSameState(head, tail);
    // Both sides of the split were exercised; map mode always takes
    // the full path.
    if (c.mapped) {
        EXPECT_EQ(headHits, 0u);
    } else {
        EXPECT_GT(headHits, kAccesses / 4);
    }
    const StatGroup &st = head.hier.stats();
    EXPECT_GT(head.injector.faultCount(), 0u);
    if (!usesParity(c.scheme))
        return;
    EXPECT_GT(st.get("parity_trips"), 0u);
    EXPECT_GT(st.get("strike_invalidations"), 0u);
    if (c.codec == CheckCodec::Secded) {
        EXPECT_GT(st.get("ecc_corrections"), 0u);
    }
    if (c.subBlock) {
        EXPECT_GT(st.get("subblock_refetches"), 0u);
    }
    if (c.retire != 0) {
        EXPECT_GT(st.get("ways_retired"), 0u);
    }
    if (c.retire != 0 && c.ways == 1) { // a retirement kills the set
        EXPECT_GT(st.get("retired_reads") + st.get("retired_writes"), 0u);
    }
}

namespace
{

std::vector<DiffCase>
diffCases()
{
    std::vector<DiffCase> cases;
    for (const RecoveryScheme scheme : kAllRecoverySchemes) {
        for (const CheckCodec codec :
             {CheckCodec::Parity, CheckCodec::Secded}) {
            cases.push_back({scheme, codec});
            cases.push_back({scheme, codec, /*subBlock=*/true});
            cases.push_back(
                {scheme, codec, false, /*ways=*/2, /*retire=*/1});
            cases.push_back({scheme, codec, false, 1, /*retire=*/3,
                             /*mapped=*/true});
        }
    }
    return cases;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(Schemes, HeadDifferential,
                         ::testing::ValuesIn(diffCases()));
