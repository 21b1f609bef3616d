/**
 * @file
 * Tests of the line-card tier (src/linecard/): --card-jobs
 * byte-identity across workloads (including a mapped-fault +
 * control-churn cell), the one-chip anchor against the streaming chip
 * harness, dispatcher split invariants, metric merges, shared-DRAM
 * stat coherence, config validation, the DRAM fabric's
 * (bound, chip) fiber scheduler on hand-written chip bodies, and the
 * card stream: its split against a private replay, its FIFO bound
 * with the DRAM model off, a card whose chips die mid-run, and chips
 * whose shares are empty.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/app.hh"
#include "core/experiment.hh"
#include "fault/fault_map.hh"
#include "linecard/card.hh"
#include "linecard/fabric.hh"
#include "linecard/stream.hh"
#include "npu/chip.hh"
#include "npu/config.hh"
#include "npu/dispatcher.hh"
#include "sweep/sink.hh"
#include "sweep/spec.hh"
#include "traffic/traffic.hh"

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

/** One packet of a chip's share: (sequence, arrival, IPv4 source). */
using Arrival = std::tuple<std::uint64_t, std::int64_t, std::uint32_t>;

/**
 * Every chip's share of a @p packets-packet card trace, from one
 * private replay of the trace through the card dispatcher: the
 * reference the card stream must reproduce.
 */
std::vector<std::vector<Arrival>>
replayShares(const net::TraceConfig &trace, std::int64_t gap,
             npu::DispatchPolicy policy, unsigned chips,
             std::uint64_t packets)
{
    std::vector<std::vector<Arrival>> shares(chips);
    const std::unique_ptr<traffic::PacketSource> src =
        traffic::makeSource(trace, gap);
    npu::Dispatcher disp(policy, chips);
    std::vector<unsigned> depths(chips, 0);
    const std::vector<char> alive(chips, 1);
    for (std::uint64_t s = 0; s < packets; ++s) {
        const net::Packet pkt = src->next();
        const auto c =
            static_cast<unsigned>(disp.choose(pkt, depths, alive));
        ++depths[c];
        shares[c].emplace_back(pkt.seq, src->lastArrivalCycles(),
                               pkt.ip.src);
    }
    return shares;
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

/**
 * The packets a card's chips attempt partition the card trace: they
 * sum to its packet count, and the count-based policies split it to
 * within one packet.
 */
TEST(LineCard, AssignCountsPartitionTheTrace)
{
    core::ExperimentConfig cfg = smallConfig();
    cfg.numPackets = 1003;
    const std::uint64_t packets = cfg.numPackets;
    const core::AppFactory factory = apps::appFactory("route");

    for (const npu::DispatchPolicy policy :
         {npu::DispatchPolicy::RoundRobin, npu::DispatchPolicy::FlowHash,
          npu::DispatchPolicy::ShortestQueue}) {
        CardConfig card;
        card.chips = 4;
        card.dispatch = policy;
        const CardRunResult run =
            runCard(factory, cfg, npu::NpuConfig{}, card);
        ASSERT_EQ(run.chips.size(), card.chips);
        std::uint64_t total = 0;
        std::uint64_t lo = packets, hi = 0;
        for (const npu::ChipStreamResult &chip : run.chips) {
            const std::uint64_t n = chip.merged.packetsAttempted;
            total += n;
            lo = n < lo ? n : lo;
            hi = n > hi ? n : hi;
        }
        EXPECT_EQ(total, packets);
        // Count-based policies balance to within one packet.
        if (policy != npu::DispatchPolicy::FlowHash) {
            EXPECT_LE(hi - lo, 1u);
        }
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

// --- the card stream ----------------------------------------------------

/**
 * Chip bodies that pop their shares at different rates (chip c pops
 * c + 1 packets per DRAM request, and parks there until the request
 * is next in commit order) — buffered, grown and detached — receive
 * exactly the packets, arrival times and order of a private replay
 * of the card trace through the card dispatcher.
 */
TEST(CardStream, SharesMatchAPrivateReplay)
{
    const core::ExperimentConfig cfg = smallConfig();
    const net::TraceConfig trace =
        core::resolveTraceConfig(cfg, *apps::appFactory("nat")());
    const std::uint64_t packets = 12001;
    const unsigned chips = 4;
    const std::int64_t gap = 25;

    for (const npu::DispatchPolicy policy :
         {npu::DispatchPolicy::RoundRobin, npu::DispatchPolicy::FlowHash,
          npu::DispatchPolicy::ShortestQueue}) {
        CardConfig card;
        card.chips = chips;
        card.dispatch = policy;
        const std::vector<std::vector<Arrival>> want =
            replayShares(trace, gap, policy, chips, packets);

        dram::DramConfig dramOn;
        dramOn.banks = 2;
        DramFabric fabric(dramOn, chips, flatOf(dramOn));
        CardStream stream(trace, gap, packets, policy, chips, fabric);
        std::vector<std::vector<Arrival>> got(chips);
        fabric.run([&](unsigned c) {
            traffic::PacketSource &share = stream.chip(c);
            net::Packet pkt;
            Quanta t = 0;
            for (std::uint64_t n = 0; !share.atEnd(); ++n) {
                share.nextInto(pkt);
                got[c].emplace_back(pkt.seq, share.lastArrivalCycles(),
                                    pkt.ip.src);
                if ((n + 1) % (c + 1) == 0) {
                    t += 10;
                    fabric.publish(c, t);
                    t += fabric.request(c, 0x1000 * c, t);
                }
            }
        });
        EXPECT_EQ(got, want) << npu::to_string(policy);
        EXPECT_FALSE(stream.pending());
        for (unsigned c = 0; c < chips; ++c)
            EXPECT_TRUE(stream.chip(c).atEnd()) << c;
        // Chip 0's clock runs four times as fast per packet as chip
        // 3's, so it falls behind in the trace: its FIFO grows past
        // the bound while it is parked on DRAM (the ring grows), and
        // then detaches (the replay runs).
        EXPECT_EQ(stream.peakDepth(), CardStream::kDetachDepth);
        EXPECT_GE(stream.detached(), 1u);
    }
}

/**
 * With the DRAM model off a full FIFO always hands the thread to its
 * owner, so no FIFO ever holds more than kFifoBound packets — and on
 * a card this long the bound is reached, so the hand-off ran.
 */
TEST(CardStream, NoFifoExceedsTheBoundWithoutDram)
{
    core::ExperimentConfig cfg = smallConfig();
    cfg.numPackets = 100000;
    npu::NpuConfig npuCfg;
    CardConfig card;
    card.chips = 4;
    card.dram.banks = 0;
    const CardRunResult run =
        runCard(apps::appFactory("route"), cfg, npuCfg, card);
    EXPECT_EQ(run.card.packetsProcessed,
              static_cast<double>(cfg.numPackets));
    EXPECT_EQ(run.streamPeakDepth, CardStream::kFifoBound);
}

/**
 * A faulty trial in which chips die mid-run (the corpus case
 * card_faulty_deaths_large_route pins its bytes): a dead chip keeps
 * popping its share, as dead-engine drops, so every chip attempts
 * exactly the share a private replay gives it and the stream ends
 * drained (runCard asserts that).
 */
TEST(CardStream, FaultyCardWithDeathsCompletes)
{
    core::ExperimentConfig cfg;
    cfg.numPackets = 3000;
    cfg.traceSeed = 1;
    cfg.faultSeed = 0x5eed;
    cfg.cr = 0.45;
    cfg.faultScale = 6.0;
    npu::NpuConfig npuCfg;
    npuCfg.peCount = 2;
    npuCfg.dispatch = npu::DispatchPolicy::FlowHash;
    CardConfig card;
    card.chips = 4;
    card.dram.banks = 4;
    const core::AppFactory factory = apps::appFactory("route");
    const CardRunResult run = runCard(factory, cfg, npuCfg, card, false, 0);

    const std::vector<std::vector<Arrival>> shares = replayShares(
        core::resolveTraceConfig(cfg, *factory()), npuCfg.arrivalGapCycles,
        card.dispatch, card.chips, cfg.numPackets);
    unsigned dead = 0;
    for (unsigned c = 0; c < card.chips; ++c) {
        const core::RunMetrics &m = run.chips[c].merged;
        EXPECT_EQ(m.packetsAttempted, shares[c].size()) << c;
        dead += m.fatal ? 1 : 0;
    }
    EXPECT_GE(dead, 1u);
    EXPECT_LT(dead, card.chips);
    EXPECT_GT(run.streamPeakDepth, 0u);
}

/**
 * A card with more chips than packets: the chips whose shares are
 * empty end at once, both on the bare stream and in a card run, and
 * the stream ends drained.
 */
TEST(CardStream, EmptySharesEndCleanly)
{
    const core::ExperimentConfig cfg = smallConfig();
    const core::AppFactory factory = apps::appFactory("route");
    const net::TraceConfig trace =
        core::resolveTraceConfig(cfg, *factory());
    const unsigned chips = 5;
    const std::uint64_t packets = 3;

    dram::DramConfig dramOff;
    dramOff.banks = 0;
    DramFabric fabric(dramOff, chips, flatOf(dramOff));
    CardStream stream(trace, 0, packets, npu::DispatchPolicy::RoundRobin,
                      chips, fabric);
    std::vector<std::uint64_t> popped(chips, 0);
    fabric.run([&](unsigned c) {
        net::Packet pkt;
        while (!stream.chip(c).atEnd()) {
            stream.chip(c).nextInto(pkt);
            ++popped[c];
        }
    });
    EXPECT_EQ(popped, (std::vector<std::uint64_t>{1, 1, 1, 0, 0}));
    EXPECT_FALSE(stream.pending());

    core::ExperimentConfig tiny = cfg;
    tiny.numPackets = packets;
    CardConfig card;
    card.chips = chips;
    const CardRunResult run =
        runCard(factory, tiny, npu::NpuConfig{}, card, false, 0);
    for (unsigned c = 0; c < chips; ++c) {
        const core::RunMetrics &m = run.chips[c].merged;
        EXPECT_EQ(m.packetsAttempted, c < packets ? 1u : 0u) << c;
        EXPECT_EQ(m.packetsProcessed, m.packetsAttempted) << c;
    }
    EXPECT_EQ(run.card.packetsProcessed, static_cast<double>(packets));
}
