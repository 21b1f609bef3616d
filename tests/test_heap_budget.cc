/**
 * @file
 * Heap-traffic budget of the steady-state packet path.
 *
 * The simulator allocates its structures at set-up and is meant to
 * make (almost) no host heap allocation per simulated packet: the
 * recorder keeps one flat frame log, the chip moves packets through
 * its queues, cache evictions hand out views instead of copies, and
 * the RCU domain recycles its epoch lists. This test replaces the
 * global operator new/delete with counting versions — which is why it
 * is its own executable — and bounds the *marginal* allocations per
 * simulated packet of three paths:
 *
 *   (allocs of a run pair at 4N packets - allocs at N) / packets added
 *
 * The set-up cost (tables, caches, processors) is the same at N and
 * 4N and cancels; what is left is what each further packet costs. A
 * per-run cost that does not scale exactly with N (a vector's
 * doubling, a free list's high-water mark) does not cancel, and the
 * span of 3N packets keeps it from reading as a per-packet cost.
 * Every run of a pair counts its packets, so a golden + trial pair at
 * N packets simulates 2N packets. The one allocation a packet cannot
 * avoid is its payload, which PacketSource::next() returns by value.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "apps/app.hh"
#include "core/experiment.hh"
#include "linecard/card.hh"
#include "npu/chip.hh"

namespace
{

std::atomic<std::uint64_t> gAllocs{0};

void *
countedAlloc(std::size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n == 0 ? 1 : n);
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(al);
    // aligned_alloc wants a size that is a multiple of the alignment.
    return std::aligned_alloc(a, ((n == 0 ? 1 : n) + a - 1) / a * a);
}

} // namespace

void *
operator new(std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    if (void *p = countedAlignedAlloc(n, al))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    if (void *p = countedAlignedAlloc(n, al))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace clumsy
{
namespace
{

/**
 * Allocation budgets per simulated packet, each a little above what
 * the path measures (x86-64, libstdc++, N vs 4N): the core loop
 * redraws one packet in place (~0.02: amortized growth of the
 * recorder log), a chip copies each packet out of its golden's trace
 * recording into the storage of one it has processed and queues it
 * in reused ring slots (golden + trial 0.067 here, 0.024-0.067 for N
 * from 200 to 1500; runChipExperiment's golden + 2 trials 0.076 here,
 * 0.031-0.076: the recording grows one payload arena and one packet
 * array, no vector per packet), and a card draws its packets into
 * reused storage through its stream's FIFO rings while lpm applies
 * FIB updates (0.06 here;
 * 0.06-0.12 for N from 200 to 1500). Compared N vs 2N, per-run costs
 * that do not scale exactly with N moved the card's reading from -0.06
 * to +0.10. The chip and card budgets leave 0.08 above the largest
 * of those. Engine queues
 * as std::deque blocks and payloads regrown by each longer draw made
 * 0.27 / 0.30; a fresh payload per packet makes ~1.2 / ~1.1; a design
 * with per-packet frame vectors, compare maps, packet copies and
 * victim copies makes 8 / 20 / 23 on these paths.
 */
constexpr double kCoreBudget = 1.0;
constexpr double kChipBudget = 0.2;
constexpr double kCardBudget = 0.2;

/** Heap allocations made while running @p body. */
template <typename Body>
std::uint64_t
allocsDuring(Body &&body)
{
    const std::uint64_t before =
        gAllocs.load(std::memory_order_relaxed);
    body();
    return gAllocs.load(std::memory_order_relaxed) - before;
}

/**
 * Marginal allocations per simulated packet of @p runPair, which runs
 * @p runs runs of the given packet count each.
 */
template <typename RunPair>
double
marginalPerPacket(std::uint64_t packets, unsigned runs, RunPair &&runPair)
{
    const std::uint64_t atN =
        allocsDuring([&] { runPair(packets); });
    const std::uint64_t at4N =
        allocsDuring([&] { runPair(4 * packets); });
    return (static_cast<double>(at4N) - static_cast<double>(atN)) /
           static_cast<double>(3 * runs * packets);
}

/** Report @p perPkt and hold it to @p budget. */
void
expectWithinBudget(double perPkt, double budget)
{
    std::printf("marginal heap allocations per simulated packet: %.3f "
                "(budget %.1f)\n",
                perPkt, budget);
    ::testing::Test::RecordProperty("allocs_per_packet",
                                    std::to_string(perPkt));
    EXPECT_LE(perPkt, budget);
}

core::ExperimentConfig
faultyConfig()
{
    core::ExperimentConfig cfg;
    cfg.cr = 0.5;
    cfg.scheme = mem::RecoveryScheme::TwoStrike;
    cfg.processor.hierarchy.scheme = cfg.scheme;
    cfg.traceSeed = 11;
    cfg.faultSeed = 0x5eed11;
    return cfg;
}

TEST(HeapBudget, CountingAllocatorSeesAllocations)
{
    // Through a volatile pointer the block escapes, so the compiler
    // may not elide the new/delete pair.
    static std::uint64_t *volatile block = nullptr;
    const std::uint64_t n = allocsDuring([] {
        block = new std::uint64_t[4];
        delete[] block;
    });
    EXPECT_EQ(n, 1u);
}

TEST(HeapBudget, CoreGoldenAndTrialPerPacket)
{
    const core::AppFactory factory = apps::appFactory("md5");
    const double perPkt = marginalPerPacket(200, 2, [&](std::uint64_t n) {
        core::ExperimentConfig cfg = faultyConfig();
        cfg.numPackets = n;
        const core::GoldenRecord golden = core::runGolden(factory, cfg);
        const core::RunMetrics trial =
            core::runFaultyTrial(factory, cfg, 0, golden);
        ASSERT_EQ(golden.metrics.packetsProcessed, n);
        ASSERT_EQ(trial.packetsProcessed, n);
    });
    expectWithinBudget(perPkt, kCoreBudget);
}

/** The 4-PE shared-L2 chip of the chip budget cases. */
npu::NpuConfig
sharedL2Chip()
{
    npu::NpuConfig npu;
    npu.peCount = 4;
    npu.dispatch = npu::DispatchPolicy::FlowHash;
    npu.mshrs = 4;
    npu.dvs = npu::DvsMode::Queue;
    npu.l2 = npu::L2Mode::Shared;
    npu.chipJobs = 1;
    return npu;
}

TEST(HeapBudget, SharedL2ChipTrialPerPacket)
{
    const core::AppFactory factory = apps::appFactory("nat");
    const npu::NpuConfig npu = sharedL2Chip();
    const double perPkt = marginalPerPacket(200, 2, [&](std::uint64_t n) {
        core::ExperimentConfig cfg = faultyConfig();
        cfg.numPackets = n;
        const npu::ChipRun golden = npu::runChipGolden(factory, cfg, npu);
        const npu::ChipRun trial =
            npu::runChipTrial(factory, cfg, npu, 0, golden);
        ASSERT_EQ(golden.merged.packetsProcessed, n);
        ASSERT_FALSE(trial.merged.fatal);
    });
    expectWithinBudget(perPkt, kChipBudget);
}

TEST(HeapBudget, SharedL2ChipExperimentPerPacket)
{
    // The golden draws the trace into its recording, and both trials
    // replay it.
    const core::AppFactory factory = apps::appFactory("nat");
    const npu::NpuConfig npu = sharedL2Chip();
    const double perPkt = marginalPerPacket(200, 3, [&](std::uint64_t n) {
        core::ExperimentConfig cfg = faultyConfig();
        cfg.numPackets = n;
        cfg.trials = 2;
        const npu::ChipExperimentResult r =
            npu::runChipExperiment(factory, cfg, npu);
        ASSERT_EQ(r.core.golden.packetsProcessed, n);
    });
    expectWithinBudget(perPkt, kChipBudget);
}

TEST(HeapBudget, DramCardWithCtrlChurnPerPacket)
{
    const core::AppFactory factory = apps::appFactory("lpm");
    npu::NpuConfig npu;
    npu.peCount = 2;
    linecard::CardConfig card;
    card.chips = 4;
    card.dram.banks = 8;
    const double perPkt = marginalPerPacket(300, 2, [&](std::uint64_t n) {
        core::ExperimentConfig cfg = faultyConfig();
        cfg.numPackets = n;
        cfg.ctrl.rate = 100; // FIB updates per 1000 packets
        cfg.ctrl.mix = ctrl::CtrlMix::Fib;
        const linecard::CardRunResult golden =
            linecard::runCard(factory, cfg, npu, card, true, 0);
        const linecard::CardRunResult trial =
            linecard::runCard(factory, cfg, npu, card, false, 0);
        ASSERT_EQ(golden.card.packetsProcessed, static_cast<double>(n));
        for (const npu::ChipStreamResult &chip : trial.chips)
            ASSERT_FALSE(chip.merged.fatal);
    });
    expectWithinBudget(perPkt, kCardBudget);
}

} // namespace
} // namespace clumsy
