/**
 * @file
 * Tests of the lpm workload: the tree-bitmap FIB in simulated memory
 * (insert/withdraw vs the host mirror, longest-prefix semantics,
 * RCU-disciplined updates with node reuse, audit stability) and the
 * workload under the golden-vs-faulty harness, including update churn
 * racing the data plane, and the process-wide boot image (an engine
 * that installs it equals one that ran the builder).
 */

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <vector>

#include "apps/app.hh"
#include "apps/lpm.hh"
#include "common/pool.hh"
#include "core/experiment.hh"
#include "core/processor.hh"
#include "npu/chip.hh"

using namespace clumsy;
using apps::LpmFib;
using core::ClumsyProcessor;

namespace
{

/** Destinations exercising several prefix lengths and misses. */
std::vector<std::uint32_t>
probeSet()
{
    std::vector<std::uint32_t> dsts;
    for (std::uint32_t i = 0; i < 64; ++i)
        dsts.push_back(0x0a000000u + i * 0x00010101u);
    for (std::uint32_t i = 0; i < 64; ++i)
        dsts.push_back(0xc0a80000u + i * 257u);
    dsts.push_back(0);
    dsts.push_back(0xffffffffu);
    return dsts;
}

/**
 * The blocks a lookup of @p dst reads, walked untimed the way lookup()
 * walks them: every node on the path, its result array when it holds
 * prefixes and the child array it descends through.
 */
std::vector<SimAddr>
lookupBlocks(const ClumsyProcessor &proc, const LpmFib &fib,
             std::uint32_t dst)
{
    std::vector<SimAddr> blocks;
    SimAddr cur = proc.peek32(fib.rootPtrAddr());
    for (unsigned d = 0; d < LpmFib::kMaxDepth && cur != 0; ++d) {
        blocks.push_back(cur);
        const std::uint32_t bm = proc.peek32(cur);
        if ((bm >> 16) != 0)
            blocks.push_back(proc.peek32(cur + 8));
        const std::uint32_t ext = bm & 0xffffu;
        const std::uint32_t nib =
            (dst >> (28 - LpmFib::kStride * d)) & 0xfu;
        if ((ext & (1u << nib)) == 0)
            break;
        const SimAddr cb = proc.peek32(cur + 4);
        blocks.push_back(cb);
        cur = proc.peek32(cb + 4 * std::popcount(ext & ((1u << nib) - 1)));
    }
    return blocks;
}

/** Timed lookup must agree with the host mirror on a fault-free run. */
void
expectAgreesWithMirror(ClumsyProcessor &proc, LpmFib &fib)
{
    for (const std::uint32_t dst : probeSet()) {
        ASSERT_FALSE(proc.fatalOccurred());
        EXPECT_EQ(fib.lookup(proc, dst), fib.goldenLookup(dst))
            << "dst=" << dst;
    }
}

} // namespace

TEST(LpmFib, EmptyFibMatchesNothing)
{
    ClumsyProcessor proc;
    LpmFib fib(proc);
    EXPECT_EQ(fib.lookup(proc, 0x0a000001u), LpmFib::kNoMatch);
    EXPECT_EQ(fib.goldenLookup(0x0a000001u), LpmFib::kNoMatch);
    EXPECT_EQ(fib.prefixCount(), 0u);
}

TEST(LpmFib, InsertAndLookupAgreeWithMirror)
{
    ClumsyProcessor proc;
    LpmFib fib(proc);
    fib.insert(proc, 0x0a000000u, 8, 100);
    fib.insert(proc, 0x0a010000u, 16, 200);
    fib.insert(proc, 0x0a010100u, 24, 300);
    fib.insert(proc, 0xc0a80000u, 16, 400);
    fib.insert(proc, 0x80000000u, 1, 500);
    fib.insert(proc, 0x0a010180u, 25, 600);
    ASSERT_FALSE(proc.fatalOccurred());
    EXPECT_EQ(fib.prefixCount(), 6u);
    expectAgreesWithMirror(proc, fib);
}

TEST(LpmFib, LongestPrefixWins)
{
    ClumsyProcessor proc;
    LpmFib fib(proc);
    fib.insert(proc, 0x0a000000u, 8, 8);
    fib.insert(proc, 0x0a010000u, 16, 16);
    fib.insert(proc, 0x0a010100u, 24, 24);
    // 10.1.1.x hits the /24; 10.1.2.x the /16; 10.2.x.x the /8.
    EXPECT_EQ(fib.lookup(proc, 0x0a010105u), 24u);
    EXPECT_EQ(fib.lookup(proc, 0x0a010205u), 16u);
    EXPECT_EQ(fib.lookup(proc, 0x0a020305u), 8u);
    EXPECT_EQ(fib.lookup(proc, 0x0b000001u), LpmFib::kNoMatch);
}

TEST(LpmFib, InsertUpdatesExistingPrefix)
{
    ClumsyProcessor proc;
    LpmFib fib(proc);
    fib.insert(proc, 0x0a000000u, 8, 1);
    fib.insert(proc, 0x0a000000u, 8, 2);
    EXPECT_EQ(fib.prefixCount(), 1u);
    EXPECT_EQ(fib.lookup(proc, 0x0a123456u), 2u);
    EXPECT_EQ(fib.goldenLookup(0x0a123456u), 2u);
}

TEST(LpmFib, WithdrawRemovesAndAgreesWithMirror)
{
    ClumsyProcessor proc;
    LpmFib fib(proc);
    fib.insert(proc, 0x0a000000u, 8, 100);
    fib.insert(proc, 0x0a010000u, 16, 200);
    fib.insert(proc, 0x0a010100u, 24, 300);
    fib.withdraw(proc, 0x0a010100u, 24);
    ASSERT_FALSE(proc.fatalOccurred());
    EXPECT_EQ(fib.prefixCount(), 2u);
    // The covering /16 takes over for what the /24 matched.
    EXPECT_EQ(fib.lookup(proc, 0x0a010105u), 200u);
    expectAgreesWithMirror(proc, fib);
    // Withdrawing everything returns the FIB to empty.
    fib.withdraw(proc, 0x0a010000u, 16);
    fib.withdraw(proc, 0x0a000000u, 8);
    EXPECT_EQ(fib.prefixCount(), 0u);
    EXPECT_EQ(fib.lookup(proc, 0x0a010105u), LpmFib::kNoMatch);
}

TEST(LpmFib, WithdrawOfUnknownPrefixIsNoOp)
{
    ClumsyProcessor proc;
    LpmFib fib(proc);
    fib.insert(proc, 0x0a000000u, 8, 100);
    fib.withdraw(proc, 0xc0000000u, 8);
    fib.withdraw(proc, 0x0a010000u, 16);
    EXPECT_EQ(fib.prefixCount(), 1u);
    EXPECT_EQ(fib.lookup(proc, 0x0a000001u), 100u);
}

TEST(LpmFib, UpdateChurnReusesNodesWithoutGraceViolations)
{
    ClumsyProcessor proc;
    LpmFib fib(proc);
    // Sustained insert/withdraw churn with lookups between updates and
    // a quiescent point per "packet": reclaimed nodes must be reused,
    // and no lookup may ever touch a block sitting on the free list
    // (the grace-period invariant).
    std::uint64_t blocksChecked = 0;
    for (std::uint32_t i = 0; i < 200; ++i) {
        const std::uint32_t prefix = 0x0a000000u + (i % 16) * 0x10000u;
        if (i % 3 == 2)
            fib.withdraw(proc, prefix, 16);
        else
            fib.insert(proc, prefix, 16, 1000 + i);
        ASSERT_FALSE(proc.fatalOccurred());
        fib.quiesce();
        for (std::uint32_t d = 0; d < 4; ++d) {
            EXPECT_EQ(fib.lookup(proc, prefix + d),
                      fib.goldenLookup(prefix + d));
            for (const SimAddr block : lookupBlocks(proc, fib, prefix + d)) {
                EXPECT_FALSE(fib.rcu().isReclaimed(block))
                    << "update " << i << " block " << block;
                ++blocksChecked;
            }
        }
    }
    EXPECT_GT(blocksChecked, 800u);
    EXPECT_GT(fib.rcu().retired(), 0u);
    EXPECT_GT(fib.rcu().reclaimed(), 0u);
    EXPECT_GT(fib.rcu().reused(), 0u);
    expectAgreesWithMirror(proc, fib);
}

TEST(LpmFib, AuditChecksumTracksStructure)
{
    ClumsyProcessor proc;
    LpmFib fib(proc);
    const std::uint64_t empty = fib.auditChecksum(proc);
    fib.insert(proc, 0x0a000000u, 8, 100);
    const std::uint64_t one = fib.auditChecksum(proc);
    EXPECT_NE(empty, one);
    // Path-copying rewrites the spine: even an insert under another
    // top-level branch replaces the root node, so the audit of every
    // path changes — while the lookup results stay put.
    const std::uint64_t pathBefore = fib.auditPath(proc, 0x0a000001u);
    fib.insert(proc, 0xc0a80000u, 16, 400);
    EXPECT_NE(fib.auditPath(proc, 0x0a000001u), pathBefore);
    EXPECT_EQ(fib.lookup(proc, 0x0a000001u), 100u);
    // The audit itself is a pure read: recomputing it is stable.
    const std::uint64_t now = fib.auditPath(proc, 0x0a000001u);
    EXPECT_EQ(fib.auditPath(proc, 0x0a000001u), now);
}

TEST(LpmFib, IdenticalBuildsProduceIdenticalStructures)
{
    ClumsyProcessor procA, procB;
    LpmFib a(procA), b(procB);
    for (std::uint32_t i = 0; i < 32; ++i) {
        a.insert(procA, 0x0a000000u + i * 0x10000u, 16, i);
        b.insert(procB, 0x0a000000u + i * 0x10000u, 16, i);
    }
    EXPECT_EQ(a.auditChecksum(procA), b.auditChecksum(procB));
    EXPECT_EQ(a.nodeCount(), b.nodeCount());
}

// ---- the workload under the harness --------------------------------

TEST(LpmApp, GoldenRunCompletes)
{
    core::ExperimentConfig cfg;
    cfg.numPackets = 300;
    const auto golden =
        core::runGolden(apps::appFactory("lpm"), cfg);
    EXPECT_FALSE(golden.metrics.fatal);
    EXPECT_EQ(golden.metrics.packetsProcessed, 300u);
    EXPECT_GT(golden.metrics.instructions, 0u);
}

TEST(LpmApp, FaultFreeTrialsNeverDiverge)
{
    core::ExperimentConfig cfg;
    cfg.numPackets = 300;
    cfg.trials = 2;
    cfg.faultScale = 0.0;
    const auto res = core::runExperiment(apps::appFactory("lpm"), cfg);
    EXPECT_EQ(res.anyErrorProb, 0.0);
    EXPECT_EQ(res.fatalFraction, 0.0);
    EXPECT_EQ(res.fallibility, 1.0);
}

TEST(LpmApp, UpdateChurnStaysDeterministicAcrossRuns)
{
    // Peak churn racing the data plane: with faults disabled, golden
    // and trials replay identical updates at identical points, so no
    // marked value may diverge — the subsystem's core determinism
    // claim at the workload level.
    core::ExperimentConfig cfg;
    cfg.numPackets = 500;
    cfg.trials = 2;
    cfg.faultScale = 0.0;
    cfg.ctrl.rate = 200;
    cfg.ctrl.mix = ctrl::CtrlMix::Fib;
    const auto res = core::runExperiment(apps::appFactory("lpm"), cfg);
    EXPECT_GT(res.golden.ctrlEventsApplied, 0u);
    EXPECT_EQ(res.anyErrorProb, 0.0);
    EXPECT_EQ(res.fatalFraction, 0.0);
}

TEST(LpmApp, FaultyUpdateChurnRunsToCompletion)
{
    // With real faults the update path is a fault surface: the run
    // must stay well-formed (no assertion failures, sane aggregates)
    // whatever the injector hits.
    core::ExperimentConfig cfg;
    cfg.numPackets = 400;
    cfg.trials = 3;
    cfg.ctrl.rate = 100;
    const auto res = core::runExperiment(apps::appFactory("lpm"), cfg);
    EXPECT_FALSE(res.golden.fatal);
    EXPECT_GT(res.golden.ctrlEventsApplied, 0u);
    EXPECT_GE(res.fallibility, 0.0);
    EXPECT_LE(res.anyErrorProb, 1.0);
}

// ---- the boot image ------------------------------------------------
//
// Every LpmApp engine below boots at the workload's own root cell, so
// the first of them in a process publishes the stored image for that
// key and the rest install it. Only the key-miss test moves the root,
// and it boots a default engine first so the stored key stays put.

namespace
{

/** 64-bit FNV-1a, one step per mixed value. */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;
    void mix(std::uint64_t v) { h = (h ^ v) * 1099511628211ull; }
};

/** lpm whose boot always runs the builder, never the stored image. */
class BuilderLpmApp : public apps::LpmApp
{
  protected:
    void bootFib(ClumsyProcessor &proc) override
    {
        fib().buildBoot(proc);
    }
};

/** One booted lpm engine. */
struct LpmEngine
{
    std::unique_ptr<ClumsyProcessor> proc;
    std::unique_ptr<apps::LpmApp> app;

    LpmFib &fib() { return app->fib(); }
    SimAddr root() { return fib().rootPtrAddr(); }

    /** The simulated heap's end: the boot image runs [root(), end()). */
    SimAddr end() const
    {
        return mem::kNullGuard + proc->allocator().used();
    }
};

/** Boot an lpm engine after @p preBytes of earlier allocation. */
template <typename App = apps::LpmApp>
LpmEngine
bootEngine(SimSize preBytes = 0)
{
    LpmEngine e{std::make_unique<ClumsyProcessor>(),
                std::make_unique<App>()};
    if (preBytes != 0)
        e.proc->alloc(preBytes, 4);
    e.app->initialize(*e.proc);
    return e;
}

/**
 * FNV of an engine's boot: the image words, the heap end, the node and
 * prefix counts, the retired-block count and, after two quiescent
 * points reclaim them, the address of every retired block. Quiesces
 * the FIB, so call it last.
 */
std::uint64_t
bootDigest(LpmEngine &e)
{
    Fnv f;
    const SimAddr root = e.root();
    const SimAddr end = e.end();
    for (SimAddr a = root; a < end; a += 4)
        f.mix(e.proc->peek32(a));
    f.mix(end);
    f.mix(e.fib().nodeCount());
    f.mix(e.fib().prefixCount());
    f.mix(e.fib().rcu().retired());
    e.fib().quiesce();
    e.fib().quiesce();
    for (SimAddr a = root; a < end; a += 4) {
        if (e.fib().rcu().isReclaimed(a))
            f.mix(a);
    }
    return f.h;
}

/** Two booted engines hold the same FIB, bytes and host state. */
void
expectSameBoot(LpmEngine &a, LpmEngine &b)
{
    ASSERT_EQ(a.root(), b.root());
    ASSERT_EQ(a.end(), b.end());
    EXPECT_EQ(a.proc->allocator().used(), b.proc->allocator().used());
    for (SimAddr addr = a.root(); addr < a.end(); addr += 4) {
        ASSERT_EQ(a.proc->backingStore().read32(addr),
                  b.proc->backingStore().read32(addr))
            << "addr=" << addr;
    }
    EXPECT_EQ(a.fib().rcu().retired(), b.fib().rcu().retired());
    EXPECT_EQ(a.fib().rcu().inGrace(), b.fib().rcu().inGrace());
    EXPECT_EQ(a.fib().nodeCount(), b.fib().nodeCount());
    EXPECT_EQ(a.fib().prefixCount(), b.fib().prefixCount());
    EXPECT_EQ(a.fib().auditChecksum(*a.proc, 1u << 20),
              b.fib().auditChecksum(*b.proc, 1u << 20));
}

/** Every RunMetrics field equal. */
void
expectSameMetrics(const core::RunMetrics &a, const core::RunMetrics &b)
{
    forEachField(core::kRunMetricsFields, [&](const auto &row) {
        EXPECT_EQ(a.*row.member, b.*row.member) << row.name;
    });
}

/**
 * bootDigest of the boot this image replaced (one DMA per word), at
 * the workload's root cell and with the root moved up 128 bytes.
 */
constexpr std::uint64_t kDefaultBootDigest = 0xf5087a5321f67abaull;
constexpr std::uint64_t kShiftedBootDigest = 0x5048a1926f44703aull;

/** Earlier allocation that moves the root cell 128 bytes up. */
constexpr SimSize kRootShift = 192;

} // namespace

TEST(LpmBoot, InstalledImageMatchesTheBuilder)
{
    LpmEngine built = bootEngine<BuilderLpmApp>();
    LpmEngine installed = bootEngine();
    ASSERT_FALSE(built.proc->fatalOccurred());
    EXPECT_EQ(built.fib().nodeCount(), 499u);
    expectSameBoot(built, installed);
    EXPECT_EQ(bootDigest(built), bootDigest(installed));

    // The engines keep matching through a faulty trial of FIB churn:
    // the timed update path then runs over the booted structure.
    core::ExperimentConfig cfg;
    cfg.numPackets = 300;
    cfg.cr = 0.5;
    cfg.faultScale = 100.0;
    cfg.ctrl.rate = 100;
    cfg.ctrl.mix = ctrl::CtrlMix::Fib;
    const npu::NpuConfig npu;
    const core::AppFactory builder = [] {
        return std::make_unique<BuilderLpmApp>();
    };
    const core::AppFactory stock = apps::appFactory("lpm");
    const npu::ChipRun goldenB = npu::runChipGolden(builder, cfg, npu);
    const npu::ChipRun goldenS = npu::runChipGolden(stock, cfg, npu);
    const npu::ChipRun trialB =
        npu::runChipTrial(builder, cfg, npu, 0, goldenB);
    const npu::ChipRun trialS =
        npu::runChipTrial(stock, cfg, npu, 0, goldenS);
    EXPECT_GT(goldenS.merged.ctrlEventsApplied, 0u);
    EXPECT_GT(trialS.merged.faultsInjected, 0u);
    ASSERT_EQ(goldenS.recorders.size(), 1u);
    EXPECT_EQ(goldenB.recorders[0].digest(), goldenS.recorders[0].digest());
    expectSameMetrics(goldenB.merged, goldenS.merged);
    expectSameMetrics(trialB.merged, trialS.merged);
    // A trial keeps no frames; its streaming replay gives the digest.
    const npu::ChipStreamResult streamB =
        npu::runChipStream(builder, cfg, npu, false, 0);
    const npu::ChipStreamResult streamS =
        npu::runChipStream(stock, cfg, npu, false, 0);
    EXPECT_EQ(streamB.peDigests, streamS.peDigests);
    expectSameMetrics(streamB.merged, streamS.merged);
}

TEST(LpmBoot, KeyMissRunsTheBuilder)
{
    // Publish (or keep) the stored image at the workload's root cell,
    // then boot with the root moved: the key misses and the builder
    // runs at the new address.
    LpmEngine stock = bootEngine();
    LpmEngine shifted = bootEngine(kRootShift);
    LpmEngine shiftedBuilt = bootEngine<BuilderLpmApp>(kRootShift);
    ASSERT_EQ(shifted.root(), stock.root() + 128);
    ASSERT_FALSE(shifted.proc->fatalOccurred());
    expectSameBoot(shifted, shiftedBuilt);
    EXPECT_EQ(shifted.fib().auditChecksum(*shifted.proc, 1u << 20),
              stock.fib().auditChecksum(*stock.proc, 1u << 20));
    for (const std::uint32_t dst : probeSet())
        EXPECT_EQ(shifted.fib().goldenLookup(dst),
                  stock.fib().goldenLookup(dst));
    EXPECT_EQ(bootDigest(shifted), kShiftedBootDigest);
}

TEST(LpmBoot, ImageMatchesThePerWordDmaBoot)
{
    LpmEngine e = bootEngine();
    ASSERT_FALSE(e.proc->fatalOccurred());
    EXPECT_EQ(e.fib().nodeCount(), 499u);
    EXPECT_EQ(e.fib().rcu().retired(), 803u);
    EXPECT_EQ(e.fib().prefixCount(), 94u);
    EXPECT_EQ(bootDigest(e), kDefaultBootDigest);
}

TEST(LpmBoot, ConcurrentBootsAgree)
{
    constexpr std::size_t kEngines = 8;
    std::vector<LpmEngine> engines(kEngines);
    const WorkStealingPool pool(4);
    pool.run(kEngines, [&](std::size_t i) { engines[i] = bootEngine(); });
    for (std::size_t i = 1; i < kEngines; ++i)
        expectSameBoot(engines[0], engines[i]);
    for (LpmEngine &e : engines)
        EXPECT_EQ(bootDigest(e), kDefaultBootDigest);
}
