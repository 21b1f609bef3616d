/**
 * @file
 * Tests of the line-card tier (src/linecard/): --card-jobs
 * byte-identity across workloads (including a mapped-fault +
 * control-churn cell), the one-chip anchor against the streaming chip
 * harness, dispatcher split invariants, metric merges, shared-DRAM
 * stat coherence, config validation, and the DRAM fabric's
 * (bound, chip) fiber scheduler on hand-written chip bodies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/app.hh"
#include "core/experiment.hh"
#include "fault/fault_map.hh"
#include "linecard/card.hh"
#include "linecard/fabric.hh"
#include "npu/chip.hh"
#include "npu/config.hh"
#include "sweep/sink.hh"
#include "sweep/spec.hh"

using namespace clumsy;
using namespace clumsy::linecard;

namespace
{

core::ExperimentConfig
smallConfig()
{
    core::ExperimentConfig cfg;
    cfg.numPackets = 240;
    cfg.trials = 2;
    cfg.cr = 0.5;
    cfg.scheme = mem::RecoveryScheme::TwoStrike;
    return cfg;
}

/**
 * Everything a card experiment produced, as one comparable string:
 * the golden digest, every golden and faulty card metric, and the
 * fatal fraction. Byte-equality of this repr is the determinism bar.
 */
std::string
reprOf(const CardExperimentResult &res)
{
    return sweep::hexU64(res.golden.valueDigest) +
           sweep::cardMetricsJson(res.golden.card) +
           sweep::cardMetricsJson(res.faultyCard) +
           sweep::formatDouble(res.fatalFraction);
}

} // namespace

// --- --card-jobs byte-identity ---------------------------------------

/**
 * The headline contract: every job count — serial, 2, 4 and the
 * hardware default — produces byte-identical results, on three
 * workloads that between them cover round-robin/flow/shortest
 * dispatch, per-chip Cr spread, control-plane churn and a spatially
 * mapped fault cell. The job count fans the golden run and the trials
 * out; the chips of one run always share one thread, and the golden
 * corpus (tests/golden/card_*.golden) pins their commit order.
 */
TEST(LineCard, CardJobsAreByteIdenticalAcrossWorkloads)
{
    struct Workload
    {
        std::string app;
        core::ExperimentConfig cfg;
        npu::NpuConfig npu;
        CardConfig card;
    };
    std::vector<Workload> workloads;

    { // crc: 2 chips, round-robin, default DRAM geometry.
        Workload w;
        w.app = "crc";
        w.cfg = smallConfig();
        w.card.chips = 2;
        w.card.dram.banks = 4;
        workloads.push_back(w);
    }
    { // route: 4 chips, flow dispatch, tight bank count, Cr spread.
        Workload w;
        w.app = "route";
        w.cfg = smallConfig();
        w.npu.peCount = 2;
        w.npu.dispatch = npu::DispatchPolicy::FlowHash;
        w.card.chips = 4;
        w.card.dispatch = npu::DispatchPolicy::FlowHash;
        w.card.dram.banks = 2;
        w.card.perChipCr = {0.5, 0.45, 0.55, 0.5};
        workloads.push_back(w);
    }
    { // lpm: mapped faults + control churn on a 3-chip card.
        Workload w;
        w.app = "lpm";
        w.cfg = smallConfig();
        w.cfg.ctrl.rate = 100;
        w.cfg.ctrl.mix = ctrl::CtrlMix::Fib;
        w.cfg.processor.faultMap =
            fault::faultMapSpecFromString("spatial");
        w.card.chips = 3;
        w.card.dispatch = npu::DispatchPolicy::ShortestQueue;
        w.card.dram.banks = 4;
        workloads.push_back(w);
    }

    for (const Workload &w : workloads) {
        CardConfig serial = w.card;
        serial.cardJobs = 1;
        const std::string ref = reprOf(runCardExperiment(
            apps::appFactory(w.app), w.cfg, w.npu, serial));
        for (const unsigned jobs : {2u, 4u, 0u}) {
            CardConfig parallel = w.card;
            parallel.cardJobs = jobs;
            const std::string got = reprOf(runCardExperiment(
                apps::appFactory(w.app), w.cfg, w.npu, parallel));
            EXPECT_EQ(got, ref)
                << w.app << " diverged at card-jobs " << jobs;
        }
    }
}

// --- the one-chip anchor ---------------------------------------------

/**
 * A one-chip card with the DRAM model off is the streaming chip
 * harness, bit for bit: chip 0 is unsalted, the split assigns it every
 * packet, and no fabric sits between its L2 and memory. Golden and a
 * faulty trial both anchor.
 */
TEST(LineCard, OneChipCardMatchesChipStreamBitForBit)
{
    const core::ExperimentConfig cfg = smallConfig();
    npu::NpuConfig npuCfg;
    npuCfg.peCount = 2;
    npuCfg.dispatch = npu::DispatchPolicy::FlowHash;
    CardConfig card;
    card.chips = 1;
    card.dram.banks = 0;

    const core::AppFactory factory = apps::appFactory("route");
    for (const bool golden : {true, false}) {
        const unsigned trial = golden ? 0 : 1;
        const CardRunResult run =
            runCard(factory, cfg, npuCfg, card, golden, trial);
        const npu::ChipStreamResult chip =
            npu::runChipStream(factory, cfg, npuCfg, golden, trial);

        ASSERT_EQ(run.chips.size(), 1u);
        EXPECT_EQ(run.chips[0].valueDigest, chip.valueDigest);
        EXPECT_EQ(run.valueDigest != 0, true);
        EXPECT_EQ(sweep::chipMetricsJson(run.chips[0].chip),
                  sweep::chipMetricsJson(chip.chip));
        EXPECT_EQ(run.chips[0].merged.packetsProcessed,
                  chip.merged.packetsProcessed);
        EXPECT_EQ(run.chips[0].merged.instructions,
                  chip.merged.instructions);
        EXPECT_EQ(run.card.packetsProcessed,
                  static_cast<double>(chip.merged.packetsProcessed));
        // No shared DRAM: the card must report zero DRAM demand.
        EXPECT_EQ(run.card.dramAccesses, 0.0);
        EXPECT_EQ(run.card.dramStallCycles, 0.0);
    }
}

// --- split invariants -------------------------------------------------

TEST(LineCard, AssignCountsPartitionTheTrace)
{
    const core::ExperimentConfig cfg = smallConfig();
    const core::AppFactory factory = apps::appFactory("route");
    const net::TraceConfig trace =
        core::resolveTraceConfig(cfg, *factory());
    const std::uint64_t packets = 1003;

    for (const npu::DispatchPolicy policy :
         {npu::DispatchPolicy::RoundRobin, npu::DispatchPolicy::FlowHash,
          npu::DispatchPolicy::ShortestQueue}) {
        CardConfig card;
        card.chips = 4;
        card.dispatch = policy;
        const std::vector<std::uint64_t> counts =
            cardAssignCounts(trace, 0, card, packets);
        ASSERT_EQ(counts.size(), card.chips);
        std::uint64_t total = 0;
        std::uint64_t lo = packets, hi = 0;
        for (const std::uint64_t n : counts) {
            total += n;
            lo = n < lo ? n : lo;
            hi = n > hi ? n : hi;
        }
        EXPECT_EQ(total, packets);
        // Count-based policies balance to within one packet.
        if (policy != npu::DispatchPolicy::FlowHash)
            EXPECT_LE(hi - lo, 1u);
    }
}

// --- metric merging ---------------------------------------------------

/** mergeCardRunMetrics sums counters across the chips of one run. */
TEST(LineCard, MergeCardRunMetricsSumsChipCounters)
{
    const core::ExperimentConfig cfg = smallConfig();
    const npu::NpuConfig npuCfg;
    CardConfig card;
    card.chips = 3;
    card.dram.banks = 4;

    const CardRunResult run =
        runCard(apps::appFactory("crc"), cfg, npuCfg, card);
    ASSERT_EQ(run.chips.size(), 3u);

    std::uint64_t processed = 0, attempted = 0, instructions = 0;
    for (const npu::ChipStreamResult &chip : run.chips) {
        processed += chip.merged.packetsProcessed;
        attempted += chip.merged.packetsAttempted;
        instructions += chip.merged.instructions;
    }
    const core::RunMetrics merged = mergeCardRunMetrics(run);
    EXPECT_EQ(merged.packetsProcessed, processed);
    EXPECT_EQ(merged.packetsAttempted, attempted);
    EXPECT_EQ(merged.instructions, instructions);
    EXPECT_EQ(processed, cfg.numPackets);

    // Card rollups agree with the same per-chip numbers.
    EXPECT_EQ(run.card.packetsProcessed,
              static_cast<double>(processed));
    ASSERT_EQ(run.card.chipPackets.size(), 3u);
    EXPECT_GE(run.card.loadImbalance, 1.0);
}

// --- shared-DRAM stat coherence --------------------------------------

/**
 * With the model on, the card-level DRAM stats obey the model's own
 * invariant (hits + misses + conflicts == accesses) and the hit
 * fraction is consistent with the counts.
 */
TEST(LineCard, DramStatsAreCoherent)
{
    const core::ExperimentConfig cfg = smallConfig();
    const npu::NpuConfig npuCfg;
    CardConfig card;
    card.chips = 2;
    card.dram.banks = 4;

    const CardRunResult run =
        runCard(apps::appFactory("route"), cfg, npuCfg, card);
    const CardMetrics &m = run.card;
    EXPECT_GT(m.dramAccesses, 0.0);
    EXPECT_EQ(m.dramRowHits + m.dramRowMisses + m.dramRowConflicts,
              m.dramAccesses);
    EXPECT_DOUBLE_EQ(m.dramRowHitFraction,
                     m.dramRowHits / m.dramAccesses);
    EXPECT_GE(m.dramStallCycles, 0.0);
}

// --- validation -------------------------------------------------------

TEST(LineCardConfig, ValidateRejectsNonsense)
{
    {
        CardConfig card;
        card.chips = 0;
        EXPECT_DEATH(card.validate(),
                     "a line card needs at least one chip");
    }
    {
        CardConfig card;
        card.chips = 3;
        card.perChipCr = {0.5, 0.5}; // wrong length
        EXPECT_DEATH(card.validate(), "per-chip Cr list names");
    }
    {
        CardConfig card;
        card.chips = 2;
        card.perChipCr = {0.5, 1.5}; // out of range
        EXPECT_DEATH(card.validate(), "outside");
    }
    {
        CardConfig card;
        card.dram.rowBytes = 100; // invalid geometry propagates
        EXPECT_DEATH(card.validate(), "power of two");
    }
}

// --- the fabric's scheduler -------------------------------------------

namespace
{

/** The flat penalty the fabric's tests subtract (the row-hit time). */
Quanta
flatOf(const dram::DramConfig &config)
{
    return cyclesToQuanta(config.rowHitCycles);
}

} // namespace

/**
 * A chip that never touches DRAM runs start to finish without parking
 * anyone. It is the last chip, so the others first park behind its
 * unstarted bound of 0; once it is picked and done, their commits
 * land in (time, chip) order.
 */
TEST(DramFabric, ChipWithoutDramDoesNotStallTheOthers)
{
    dram::DramConfig config;
    config.banks = 4;
    DramFabric fabric(config, 3, flatOf(config));

    const std::vector<std::vector<Quanta>> times = {
        {10, 20, 30}, {15, 25}, {}};
    std::vector<std::pair<unsigned, Quanta>> events;
    fabric.run([&](unsigned c) {
        for (const Quanta t : times[c]) {
            fabric.request(c, 0x1000 * (c + 1), t);
            events.emplace_back(c, t);
        }
        if (times[c].empty())
            events.emplace_back(c, -1); // the quiet chip finished
    });

    const std::vector<std::pair<unsigned, Quanta>> want = {
        {2, -1}, {0, 10}, {1, 15}, {0, 20}, {1, 25}, {0, 30}};
    EXPECT_EQ(events, want);
    EXPECT_EQ(fabric.model().stats().accesses, 5u);
}

/**
 * Eight chips hammering one bank. With request times fixed in
 * advance the model must see exactly the (time, chip)-sorted access
 * sequence; with times that feed back from the returned stall, two
 * runs of the same body must leave identical model stats.
 */
TEST(DramFabric, EightChipsOnOneBankAreReproducible)
{
    dram::DramConfig config;
    config.banks = 1;
    const unsigned chips = 8;
    const Quanta flat = flatOf(config);

    // Per-chip request streams: (time, address), time-ordered, with
    // cross-chip ties so the chip index has to break them.
    auto streamOf = [](unsigned c) {
        std::vector<std::pair<Quanta, std::uint64_t>> s;
        Quanta t = 0;
        for (unsigned i = 0; i < 40; ++i) {
            t += 1 + (c * 7 + i * 13) % 5;
            s.emplace_back(t, (c * 97 + i * 31) % 6 * 4096);
        }
        return s;
    };

    { // Fixed times: the fabric's order is the sorted order.
        DramFabric fabric(config, chips, flat);
        fabric.run([&](unsigned c) {
            for (const auto &[t, addr] : streamOf(c)) {
                fabric.publish(c, t);
                fabric.request(c, addr, t);
            }
        });

        std::vector<std::tuple<Quanta, unsigned, std::uint64_t>> all;
        for (unsigned c = 0; c < chips; ++c)
            for (const auto &[t, addr] : streamOf(c))
                all.emplace_back(t, c, addr);
        std::sort(all.begin(), all.end());
        dram::DramModel ref(config);
        for (const auto &[t, c, addr] : all)
            ref.access(addr, t);

        const dram::DramStats &got = fabric.model().stats();
        const dram::DramStats &want = ref.stats();
        EXPECT_EQ(got.accesses, want.accesses);
        EXPECT_EQ(got.rowHits, want.rowHits);
        EXPECT_EQ(got.rowMisses, want.rowMisses);
        EXPECT_EQ(got.rowConflicts, want.rowConflicts);
    }

    // Stall feeds back into each chip's next request time.
    auto feedbackRun = [&] {
        DramFabric fabric(config, chips, flat);
        std::vector<Quanta> finish(chips, 0);
        fabric.run([&](unsigned c) {
            Quanta t = 0;
            for (const auto &[gap, addr] : streamOf(c)) {
                t += gap % 3;
                fabric.publish(c, t);
                t += flat + fabric.request(c, addr, t);
            }
            finish[c] = t;
        });
        const dram::DramStats &st = fabric.model().stats();
        return std::make_tuple(st.accesses, st.rowHits, st.rowMisses,
                               st.rowConflicts, finish);
    };
    const auto first = feedbackRun();
    EXPECT_EQ(std::get<0>(first), 40u * chips);
    EXPECT_EQ(feedbackRun(), first);
}

/**
 * A finished chip's last bound stays where it was; it must drop out of
 * the safety check, or the chip that parked behind it would never be
 * picked (the scheduler's assert would fire).
 */
TEST(DramFabric, DoneChipsDropOutOfTheSafetyCheck)
{
    dram::DramConfig config;
    config.banks = 2;
    DramFabric fabric(config, 2, flatOf(config));

    std::vector<unsigned> order;
    fabric.run([&](unsigned c) {
        // Chip 0 parks at 50 (chip 1 has not started), chip 1 parks
        // at 100 behind it; chip 0 then commits and finishes with its
        // bound left at 50, below chip 1's commit point.
        fabric.request(c, 0x40 * c, c == 0 ? 50 : 100);
        order.push_back(c);
    });

    EXPECT_EQ(order, (std::vector<unsigned>{0, 1}));
    EXPECT_EQ(fabric.model().stats().accesses, 2u);
}

/**
 * Every workload runs end to end on a 4-chip card with the DRAM model
 * on, inside the fibers' fixed stacks (an overflow would fault on the
 * guard page), and completes every packet.
 */
TEST(DramFabric, EveryAppCompletesOnFourChips)
{
    core::ExperimentConfig cfg = smallConfig();
    cfg.numPackets = 120;
    npu::NpuConfig npuCfg;
    npuCfg.peCount = 2;
    CardConfig card;
    card.chips = 4;
    card.dram.banks = 4;

    std::vector<std::string> names = apps::allAppNames();
    for (const std::string &ext : apps::extensionAppNames())
        names.push_back(ext);
    for (const std::string &app : names) {
        const CardRunResult run =
            runCard(apps::appFactory(app), cfg, npuCfg, card);
        EXPECT_EQ(run.card.packetsProcessed,
                  static_cast<double>(cfg.numPackets))
            << app;
        EXPECT_GT(run.card.dramAccesses, 0.0) << app;
    }
}
