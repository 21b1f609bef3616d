/**
 * @file
 * Tests of the multi-engine chip model (src/npu/): single-core
 * bit-equivalence, schedule determinism, dispatch policies, shared-L2
 * contention accounting, bounded queues (drop and backpressure) and
 * dead-engine drop handling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "common/pool.hh"
#include "core/experiment.hh"
#include "ctrl/ctrl.hh"
#include "net/trace_gen.hh"
#include "npu/chip.hh"
#include "npu/config.hh"
#include "npu/dispatcher.hh"
#include "npu/shared_l2.hh"
#include "sweep/sink.hh"
#include "traffic/traffic.hh"

using namespace clumsy;
using namespace clumsy::npu;

namespace
{

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

} // namespace

// --- single-core equivalence -----------------------------------------

/**
 * The acceptance bar of the chip model: a one-engine chip with the
 * default configuration must reproduce the single-core harness bit
 * for bit — same seeds, same packet order, no arbiter queuing — for
 * every workload. Serialized JSON compares every double exactly.
 */
TEST(NpuChip, OneEngineMatchesSingleCoreBitForBitEveryApp)
{
    std::vector<std::string> names = apps::allAppNames();
    for (const std::string &ext : apps::extensionAppNames())
        names.push_back(ext);
    for (const std::string &app : names) {
        const core::ExperimentConfig cfg = smallConfig();
        const NpuConfig npuCfg; // 1 PE, rr, uniform

        const ChipExperimentResult chip =
            runChipExperiment(apps::appFactory(app), cfg, npuCfg);
        const core::ExperimentResult single =
            core::runExperiment(apps::appFactory(app), cfg);

        EXPECT_EQ(sweep::experimentResultJson(chip.core),
                  sweep::experimentResultJson(single))
            << "app " << app;
        // The lone engine got every packet and never waited for the
        // shared port.
        EXPECT_EQ(chip.goldenChip.l2PortWaits, 0.0) << app;
        EXPECT_EQ(chip.goldenChip.loadImbalance, 1.0) << app;
    }
}

// --- determinism ------------------------------------------------------

TEST(NpuChip, RepeatRunsAreByteIdentical)
{
    const core::ExperimentConfig cfg = smallConfig();
    NpuConfig npuCfg;
    npuCfg.peCount = 4;
    npuCfg.dispatch = DispatchPolicy::ShortestQueue;

    const ChipExperimentResult a =
        runChipExperiment(apps::appFactory("nat"), cfg, npuCfg);
    const ChipExperimentResult b =
        runChipExperiment(apps::appFactory("nat"), cfg, npuCfg);

    EXPECT_EQ(sweep::experimentResultJson(a.core),
              sweep::experimentResultJson(b.core));
    EXPECT_EQ(a.goldenChip.makespanCycles, b.goldenChip.makespanCycles);
    EXPECT_EQ(a.goldenChip.pePackets, b.goldenChip.pePackets);
    EXPECT_EQ(a.faultyChip.chipEdf, b.faultyChip.chipEdf);
    EXPECT_EQ(a.faultyChip.l2PortWaitCycles,
              b.faultyChip.l2PortWaitCycles);
}

// --- dispatch policies ------------------------------------------------

/**
 * Flow affinity: with FlowHash dispatch every packet of a 5-tuple
 * flow lands on hash % N — the engine the flow is pinned to — so NAT
 * bindings and DRR deficits stay engine-local. Verified against a
 * regenerated copy of the trace.
 */
TEST(NpuDispatch, FlowHashPinsEveryFlowToOneEngine)
{
    core::ExperimentConfig cfg = smallConfig();
    NpuConfig npuCfg;
    npuCfg.peCount = 4;
    npuCfg.dispatch = DispatchPolicy::FlowHash;

    const ChipRun golden =
        runChipGolden(apps::appFactory("nat"), cfg, npuCfg);

    net::TraceConfig tc = apps::makeApp("nat")->traceConfig();
    tc.seed = cfg.traceSeed;
    net::TraceGenerator gen(tc);
    const auto trace = gen.generate(cfg.numPackets);

    ASSERT_EQ(golden.completions.size(), trace.size());
    unsigned perPe[4] = {0, 0, 0, 0};
    for (const auto &pkt : trace) {
        ASSERT_LT(pkt.seq, golden.completions.size());
        const Completion &where = golden.completions[pkt.seq];
        ASSERT_TRUE(where.done()) << "seq " << pkt.seq;
        EXPECT_EQ(where.pe, flowHash(pkt) % 4u) << "seq " << pkt.seq;
        ++perPe[where.pe];
    }
    // The hash actually spreads the flows: no engine is idle.
    for (unsigned pe = 0; pe < 4; ++pe)
        EXPECT_GT(perPe[pe], 0u) << "PE " << pe;
}

TEST(NpuDispatch, PoliciesAreDeterministicPureFunctions)
{
    net::TraceGenerator gen(net::TraceConfig{});
    const auto trace = gen.generate(32);
    const std::vector<unsigned> depths = {3, 1, 2};
    const std::vector<char> alive = {1, 1, 1};

    // ShortestQueue: least-loaded engine, ties to the lowest id.
    Dispatcher shortest(DispatchPolicy::ShortestQueue, 3);
    EXPECT_EQ(shortest.choose(trace[0], depths, alive), 1);
    EXPECT_EQ(shortest.choose(trace[1], {2, 2, 2}, alive), 0);

    // RoundRobin cycles and skips dead engines.
    Dispatcher rr(DispatchPolicy::RoundRobin, 3);
    EXPECT_EQ(rr.choose(trace[0], depths, alive), 0);
    EXPECT_EQ(rr.choose(trace[1], depths, alive), 1);
    EXPECT_EQ(rr.choose(trace[2], depths, {1, 1, 0}), 2 % 2);
    // A fully-dead chip has nowhere to put the packet.
    EXPECT_EQ(rr.choose(trace[3], depths, {0, 0, 0}), -1);

    // FlowHash is stable per packet and -1 when the flow's engine is
    // dead rather than rehashing (state lives on that engine).
    Dispatcher flow(DispatchPolicy::FlowHash, 3);
    const int pe = flow.choose(trace[0], depths, alive);
    ASSERT_GE(pe, 0);
    EXPECT_EQ(flow.choose(trace[0], {9, 9, 9}, alive), pe);
    std::vector<char> peDead = alive;
    peDead[static_cast<std::size_t>(pe)] = 0;
    EXPECT_EQ(flow.choose(trace[0], depths, peDead), -1);
}

// --- shared-L2 contention ---------------------------------------------

TEST(NpuChip, SharedPortContentionAppearsOnlyWithMultipleEngines)
{
    const core::ExperimentConfig cfg = smallConfig();

    NpuConfig one;
    const ChipRun lone =
        runChipGolden(apps::appFactory("route"), cfg, one);
    EXPECT_EQ(lone.chip.l2PortWaits, 0.0);
    EXPECT_EQ(lone.chip.l2PortWaitCycles, 0.0);

    NpuConfig four;
    four.peCount = 4;
    const ChipRun crowd =
        runChipGolden(apps::appFactory("route"), cfg, four);
    // Four engines hammering one port: some accesses must queue, and
    // every wait accounts positive time.
    EXPECT_GT(crowd.chip.l2PortWaits, 0.0);
    EXPECT_GT(crowd.chip.l2PortWaitCycles, 0.0);
    // Queuing stretches the engines' cycle counts: the contended chip
    // cannot be 4x faster than the lone engine.
    EXPECT_GT(crowd.chip.makespanCycles * 4.0,
              lone.chip.makespanCycles);
}

// --- bounded queues ---------------------------------------------------

TEST(NpuChip, TinyQueueDropsWhenConfiguredToDrop)
{
    core::ExperimentConfig cfg = smallConfig();
    cfg.numPackets = 400;
    NpuConfig npuCfg;
    npuCfg.peCount = 2;
    npuCfg.queueCapacity = 1;
    npuCfg.dropWhenFull = true;

    const ChipRun r = runChipGolden(apps::appFactory("crc"), cfg,
                                    npuCfg);
    EXPECT_GT(r.chip.dropsQueueFull, 0.0);
    EXPECT_EQ(r.chip.backpressureStalls, 0.0);
    // Every generated packet was either completed or dropped.
    EXPECT_EQ(r.merged.packetsProcessed + r.chip.dropsQueueFull,
              400.0);
    EXPECT_EQ(std::count_if(r.completions.begin(), r.completions.end(),
                            [](const Completion &c) { return c.done(); }),
              static_cast<std::ptrdiff_t>(r.merged.packetsProcessed));
}

TEST(NpuChip, TinyQueueBackpressuresByDefault)
{
    core::ExperimentConfig cfg = smallConfig();
    cfg.numPackets = 400;
    NpuConfig npuCfg;
    npuCfg.peCount = 2;
    npuCfg.queueCapacity = 1;

    const ChipRun r = runChipGolden(apps::appFactory("crc"), cfg,
                                    npuCfg);
    // Backpressure holds arrivals instead of dropping: every packet
    // completes and the stalls are visible.
    EXPECT_EQ(r.chip.dropsQueueFull, 0.0);
    EXPECT_GT(r.chip.backpressureStalls, 0.0);
    EXPECT_EQ(r.merged.packetsProcessed, 400u);
}

// --- dead engines -----------------------------------------------------

/**
 * When fatal control-plane corruption kills engines, packets bound to
 * them (flow dispatch never re-homes a flow) are dropped and counted,
 * and the chip keeps going with whatever is still alive.
 */
TEST(NpuChip, DeadEnginesDropTheirPackets)
{
    core::ExperimentConfig cfg;
    cfg.numPackets = 400;
    cfg.trials = 2;
    cfg.cr = 0.25;
    cfg.faultScale = 100.0;
    NpuConfig npuCfg;
    npuCfg.peCount = 2;
    npuCfg.dispatch = DispatchPolicy::FlowHash;

    const ChipExperimentResult res =
        runChipExperiment(apps::appFactory("crc"), cfg, npuCfg);
    EXPECT_GT(res.faultyChip.dropsDeadPe, 0.0);
    EXPECT_LT(res.core.faulty.packetsProcessed, 400u);
    // The golden chip is fault-free: nothing died, nothing dropped.
    EXPECT_EQ(res.goldenChip.dropsDeadPe, 0.0);
    EXPECT_EQ(res.core.golden.packetsProcessed, 400u);
}

// --- heterogeneous operating points -----------------------------------

TEST(NpuChip, PerEngineCrMakesFasterEnginesTakeMorePackets)
{
    const core::ExperimentConfig cfg = smallConfig();
    NpuConfig npuCfg;
    npuCfg.peCount = 2;
    npuCfg.dispatch = DispatchPolicy::ShortestQueue;
    npuCfg.perPeCr = {1.0, 0.25}; // engine 1 clocked 4x faster
    // Shallow queues: admission tracks drain rate, so the faster
    // engine's queue opens up more often and it wins more packets.
    npuCfg.queueCapacity = 2;
    // A free port isolates the engines: with nonzero service times
    // the shared-port FIFO rate-matches the engines under saturation
    // (the slower engine sets the frontier every packet), which is
    // contention behaviour, not the speed difference under test here.
    npuCfg.portHitCycles = 0;
    npuCfg.portMissCycles = 0;

    const ChipRun r = runChipGolden(apps::appFactory("crc"), cfg,
                                    npuCfg);
    ASSERT_EQ(r.chip.pePackets.size(), 2u);
    EXPECT_GT(r.chip.pePackets[1], r.chip.pePackets[0]);
}

// --- MSHR-overlapped shared port --------------------------------------

/**
 * Port arithmetic with K MSHRs: K transfers overlap free of charge,
 * transfer K+1 queues behind the slot that frees first. Times here
 * are raw quanta fed straight to the arbiter.
 */
TEST(SharedL2, MshrsLetKTransfersOverlap)
{
    SharedL2Port port(4, 16, 2);
    // Two misses land at chip time 16 (each with its 16-quanta
    // service window [0, 16) inside its own latency): both take a
    // free MSHR, nobody waits.
    EXPECT_EQ(port.requestPort(0, 16, 1, 1), 0);
    EXPECT_EQ(port.requestPort(1, 16, 1, 1), 0);
    // The third concurrent miss finds both MSHRs busy until 16: its
    // window [0, 16) slides to [16, 32).
    EXPECT_EQ(port.requestPort(2, 16, 1, 1), 16);
    EXPECT_EQ(port.busyUntil(), 32);
    EXPECT_EQ(port.stats().get("contended"), 1u);
    EXPECT_EQ(port.stats().get("wait_quanta"), 16u);
    // Zero-service requests never occupy an MSHR.
    EXPECT_EQ(port.requestPort(3, 40, 0, 0), 0);
}

TEST(SharedL2, SingleMshrSerializesLikeTheOriginalFifo)
{
    SharedL2Port port(4, 16, 1);
    EXPECT_EQ(port.requestPort(0, 16, 1, 1), 0);
    // With one MSHR the second concurrent miss queues immediately —
    // the pre-MSHR FIFO behaviour.
    EXPECT_EQ(port.requestPort(1, 16, 1, 1), 16);
    EXPECT_EQ(port.mshrs(), 1u);
}

TEST(NpuChip, MoreMshrsShrinkPortWaitsAndMakespan)
{
    const core::ExperimentConfig cfg = smallConfig();
    NpuConfig one;
    one.peCount = 4;
    one.mshrs = 1;
    NpuConfig four;
    four.peCount = 4;
    four.mshrs = 4;

    const ChipRun serial =
        runChipGolden(apps::appFactory("route"), cfg, one);
    const ChipRun overlap =
        runChipGolden(apps::appFactory("route"), cfg, four);
    // Four engines, one slot: heavy queuing. Four slots: the same
    // four engines' misses overlap, so waits shrink and the chip
    // finishes sooner.
    EXPECT_GT(serial.chip.l2PortWaitCycles, 0.0);
    EXPECT_LT(overlap.chip.l2PortWaitCycles,
              serial.chip.l2PortWaitCycles);
    EXPECT_LT(overlap.chip.makespanCycles, serial.chip.makespanCycles);
}

// --- per-PE DVS -------------------------------------------------------

/**
 * dvs=static is the ablation baseline: even when the experiment asks
 * for dynamic frequency, every engine stays frozen at the launch Cr
 * and no epoch decisions happen.
 */
TEST(NpuDvs, StaticModeFreezesEveryEngine)
{
    core::ExperimentConfig cfg = smallConfig();
    cfg.dynamicFrequency = true;
    NpuConfig npuCfg;
    npuCfg.peCount = 2;
    npuCfg.dvs = DvsMode::Static;

    const ChipExperimentResult res =
        runChipExperiment(apps::appFactory("crc"), cfg, npuCfg);
    EXPECT_EQ(res.core.faulty.freqSwitches, 0u);
    for (unsigned pe = 0; pe < 2; ++pe) {
        EXPECT_EQ(res.faultyChip.peEpochs[pe], 0.0) << pe;
        EXPECT_EQ(res.faultyChip.peCrFinal[pe], 0.5) << pe;
        EXPECT_EQ(res.faultyChip.peCrMean[pe], 0.5) << pe;
    }
}

/**
 * dvs=queue under flow-skewed saturation: every engine closes the
 * same number of chip-level epochs, but each adapts to its own queue,
 * so the per-engine Cr trajectories diverge — the per-PE DVS claim.
 */
TEST(NpuDvs, QueueModeDivergesPerEngineCrTrajectories)
{
    core::ExperimentConfig cfg = smallConfig();
    cfg.numPackets = 2000;
    NpuConfig npuCfg;
    npuCfg.peCount = 4;
    npuCfg.dispatch = DispatchPolicy::FlowHash;
    npuCfg.queueCapacity = 4;
    npuCfg.dvs = DvsMode::Queue;

    const ChipExperimentResult res =
        runChipExperiment(apps::appFactory("crc"), cfg, npuCfg);
    const ChipMetrics &chip = res.faultyChip;
    ASSERT_EQ(chip.peCrMean.size(), 4u);
    // Chip-level epochs: every engine decided 2000/100 = 20 times.
    for (unsigned pe = 0; pe < 4; ++pe)
        EXPECT_EQ(chip.peEpochs[pe], 20.0) << pe;
    // The trajectories moved (some engine stepped somewhere)...
    double steps = 0.0;
    for (unsigned pe = 0; pe < 4; ++pe)
        steps += chip.peStepsUp[pe] + chip.peStepsDown[pe];
    EXPECT_GT(steps, 0.0);
    // ...and they are not all the same trajectory: at least two
    // engines ended with different residency-weighted mean Cr.
    bool diverged = false;
    for (unsigned pe = 1; pe < 4; ++pe)
        diverged |= chip.peCrMean[pe] != chip.peCrMean[0];
    EXPECT_TRUE(diverged);
    // The golden chip never adapts (golden runs are always static).
    for (unsigned pe = 0; pe < 4; ++pe)
        EXPECT_EQ(res.goldenChip.peEpochs[pe], 0.0) << pe;
}

/** Idle engines back their clocks off toward full swing (Cr = 1). */
TEST(NpuDvs, IdleEnginesBackOffToFullSwing)
{
    core::ExperimentConfig cfg = smallConfig();
    cfg.numPackets = 600;
    NpuConfig npuCfg;
    npuCfg.peCount = 4;
    npuCfg.dvs = DvsMode::Queue;
    npuCfg.arrivalGapCycles = 30000; // far below chip capacity

    const ChipExperimentResult res =
        runChipExperiment(apps::appFactory("crc"), cfg, npuCfg);
    for (unsigned pe = 0; pe < 4; ++pe) {
        EXPECT_EQ(res.faultyChip.peCrFinal[pe], 1.0) << pe;
        EXPECT_GT(res.faultyChip.peStepsDown[pe], 0.0) << pe;
        EXPECT_EQ(res.faultyChip.peStepsUp[pe], 0.0) << pe;
    }
}

/**
 * The headline regression: on an overloaded chip launched at the slow
 * full-swing clock, per-PE queue-driven DVS speeds the busy engines
 * up and beats the static baseline on chip ED2F2. (EXPERIMENTS.md
 * records the full 8-app comparison; route is the representative
 * pinned here.)
 */
TEST(NpuDvs, QueueModeBeatsStaticOnChipEdfUnderOverload)
{
    core::ExperimentConfig cfg;
    cfg.numPackets = 1500;
    cfg.trials = 3;
    cfg.cr = 1.0;
    cfg.scheme = mem::RecoveryScheme::TwoStrike;
    NpuConfig base;
    base.peCount = 4;
    base.dispatch = DispatchPolicy::FlowHash;
    base.arrivalGapCycles = 99; // ~1/3 of route's per-packet cost

    NpuConfig st = base;
    st.dvs = DvsMode::Static;
    NpuConfig qu = base;
    qu.dvs = DvsMode::Queue;

    const ChipExperimentResult rs =
        runChipExperiment(apps::appFactory("route"), cfg, st);
    const ChipExperimentResult rq =
        runChipExperiment(apps::appFactory("route"), cfg, qu);
    EXPECT_LT(rq.faultyChip.chipEdf, rs.faultyChip.chipEdf);
    // The win comes from busy engines clocking up off the slow launch
    // point, which shortens the makespan.
    EXPECT_LT(rq.faultyChip.makespanCycles,
              rs.faultyChip.makespanCycles);
    double ups = 0.0;
    for (double u : rq.faultyChip.peStepsUp)
        ups += u;
    EXPECT_GT(ups, 0.0);
}

/** dvs=queue runs are as deterministic as everything else. */
TEST(NpuDvs, QueueModeRepeatsByteIdentical)
{
    core::ExperimentConfig cfg = smallConfig();
    NpuConfig npuCfg;
    npuCfg.peCount = 4;
    npuCfg.dispatch = DispatchPolicy::FlowHash;
    npuCfg.dvs = DvsMode::Queue;
    npuCfg.mshrs = 2;

    const ChipExperimentResult a =
        runChipExperiment(apps::appFactory("nat"), cfg, npuCfg);
    const ChipExperimentResult b =
        runChipExperiment(apps::appFactory("nat"), cfg, npuCfg);
    EXPECT_EQ(sweep::experimentResultJson(a.core),
              sweep::experimentResultJson(b.core));
    EXPECT_EQ(sweep::chipMetricsJson(a.faultyChip),
              sweep::chipMetricsJson(b.faultyChip));
}

// --- dispatch-policy ablation -----------------------------------------

/**
 * The dispatch ablation the ROADMAP asked for, pinned as relations
 * (absolute numbers live in EXPERIMENTS.md):
 *
 *  - one engine: the policy cannot matter — all three are
 *    bit-identical;
 *  - crc keeps no per-flow state, so on an overlapped port the
 *    policies are throughput-ties within a small tolerance;
 *  - nat carries per-flow bindings: flow-hash keeps each binding on
 *    one engine and beats shortest-queue;
 *  - drr's flow-skewed arrivals overload flow-hash's hot engines:
 *    shortest-queue wins even though flow-hash's cache locality is
 *    real (its miss rate is lower).
 */
TEST(NpuDispatchAblation, OneEnginePoliciesAreBitIdentical)
{
    const core::ExperimentConfig cfg = smallConfig();
    std::vector<std::string> jsons;
    for (const DispatchPolicy d :
         {DispatchPolicy::RoundRobin, DispatchPolicy::FlowHash,
          DispatchPolicy::ShortestQueue}) {
        NpuConfig npuCfg;
        npuCfg.peCount = 1;
        npuCfg.dispatch = d;
        const ChipExperimentResult r =
            runChipExperiment(apps::appFactory("nat"), cfg, npuCfg);
        jsons.push_back(sweep::experimentResultJson(r.core) +
                        sweep::chipMetricsJson(r.faultyChip));
    }
    EXPECT_EQ(jsons[0], jsons[1]);
    EXPECT_EQ(jsons[0], jsons[2]);
}

namespace
{

/** Golden-chip throughput of @p app on 4 engines, mshrs=4. */
ChipRun
ablationRun(const std::string &app, DispatchPolicy dispatch,
            unsigned pes)
{
    core::ExperimentConfig cfg;
    cfg.numPackets = 1500;
    cfg.trials = 1;
    cfg.cr = 0.5;
    cfg.scheme = mem::RecoveryScheme::TwoStrike;
    NpuConfig npuCfg;
    npuCfg.peCount = pes;
    npuCfg.dispatch = dispatch;
    npuCfg.mshrs = 4; // overlapped port: dispatch, not the port,
                      // decides the outcome
    return runChipGolden(apps::appFactory(app), cfg, npuCfg);
}

} // namespace

TEST(NpuDispatchAblation, StatelessCrcIsAThroughputTie)
{
    for (const unsigned pes : {2u, 4u}) {
        const ChipRun flow =
            ablationRun("crc", DispatchPolicy::FlowHash, pes);
        const ChipRun shortest =
            ablationRun("crc", DispatchPolicy::ShortestQueue, pes);
        // No per-flow state to keep warm: the same work lands
        // somewhere either way. Allow 2% for schedule noise.
        EXPECT_NEAR(flow.chip.throughputPps,
                    shortest.chip.throughputPps,
                    0.02 * shortest.chip.throughputPps)
            << pes << " engines";
    }
}

TEST(NpuDispatchAblation, FlowAffinityWinsOnStatefulNat)
{
    for (const unsigned pes : {2u, 4u}) {
        const ChipRun flow =
            ablationRun("nat", DispatchPolicy::FlowHash, pes);
        const ChipRun shortest =
            ablationRun("nat", DispatchPolicy::ShortestQueue, pes);
        EXPECT_GT(flow.chip.throughputPps,
                  shortest.chip.throughputPps)
            << pes << " engines";
    }
}

TEST(NpuDispatchAblation, ImbalanceCostsFlowHashTheWinOnDrr)
{
    const ChipRun flow = ablationRun("drr", DispatchPolicy::FlowHash, 4);
    const ChipRun shortest =
        ablationRun("drr", DispatchPolicy::ShortestQueue, 4);
    // Flow-hash's locality is real — its D-cache misses are rarer —
    // but its hot engines bound the makespan and it loses throughput.
    EXPECT_GT(flow.chip.loadImbalance, shortest.chip.loadImbalance);
    EXPECT_LT(flow.chip.throughputPps, shortest.chip.throughputPps);
}

// --- config validation ------------------------------------------------

TEST(NpuConfigDeath, Validation)
{
    const mem::HierarchyConfig hier;
    NpuConfig cfg;
    cfg.peCount = 0;
    EXPECT_DEATH(cfg.validate(hier), "engine");
    cfg = NpuConfig{};
    cfg.perPeCr = {1.0, 0.5}; // size != peCount
    EXPECT_DEATH(cfg.validate(hier), "every engine");
    cfg = NpuConfig{};
    cfg.portHitCycles = hier.l2HitCycles + 1;
    EXPECT_DEATH(cfg.validate(hier), "port");
    cfg = NpuConfig{};
    cfg.mshrs = 0;
    EXPECT_DEATH(cfg.validate(hier), "MSHR");
}

TEST(NpuConfig, DvsModeNamesRoundTrip)
{
    for (const DvsMode m :
         {DvsMode::Static, DvsMode::Fault, DvsMode::Queue})
        EXPECT_EQ(dvsFromString(to_string(m)), m);
    EXPECT_EXIT(dvsFromString("turbo"),
                ::testing::ExitedWithCode(1),
                "valid choices: static, fault, queue");
}

/**
 * An unknown policy name must be a hard error that names the valid
 * choices — not a silent fall-through to round-robin. (The same
 * contract is checked end-to-end against the clumsy_npu binary by the
 * cli_npu_* CTest cases in tools/CMakeLists.txt.)
 */
TEST(NpuConfig, DispatchNamesRoundTrip)
{
    for (const DispatchPolicy d :
         {DispatchPolicy::RoundRobin, DispatchPolicy::FlowHash,
          DispatchPolicy::ShortestQueue})
        EXPECT_EQ(dispatchFromString(to_string(d)), d);
    EXPECT_EXIT(dispatchFromString("random"),
                ::testing::ExitedWithCode(1),
                "valid choices: rr, flow, shortest");
}

// --- horizon-stepped chip parallelism --------------------------------

/**
 * The chip-jobs determinism contract, end to end: for every workload,
 * a chip experiment at chip-jobs=4 (parallel engine bring-up, parallel
 * store diffing, concurrent faulty trials) must be byte-identical to
 * the serial run — core aggregates and both chip metric blocks.
 * Serialized JSON compares every double exactly.
 */
TEST(ChipParallel, ChipJobsByteIdenticalForEveryApp)
{
    std::vector<std::string> names = apps::allAppNames();
    for (const std::string &ext : apps::extensionAppNames())
        names.push_back(ext);
    for (const std::string &app : names) {
        core::ExperimentConfig cfg = smallConfig();
        cfg.numPackets = 200;
        NpuConfig serial;
        serial.peCount = 4;
        serial.dispatch = DispatchPolicy::FlowHash;
        serial.dvs = DvsMode::Queue;
        serial.l2 = L2Mode::Shared;
        serial.mshrs = 2;
        NpuConfig parallel = serial;
        parallel.chipJobs = 4;

        const ChipExperimentResult a =
            runChipExperiment(apps::appFactory(app), cfg, serial);
        const ChipExperimentResult b =
            runChipExperiment(apps::appFactory(app), cfg, parallel);

        EXPECT_EQ(sweep::experimentResultJson(a.core),
                  sweep::experimentResultJson(b.core))
            << "app " << app;
        EXPECT_EQ(sweep::chipMetricsJson(a.goldenChip),
                  sweep::chipMetricsJson(b.goldenChip))
            << "app " << app;
        EXPECT_EQ(sweep::chipMetricsJson(a.faultyChip),
                  sweep::chipMetricsJson(b.faultyChip))
            << "app " << app;
    }
}

/**
 * chip-jobs=0 resolves to the machine's hardware default; whatever
 * that is, the result must still match the serial run (the ISSUE's
 * contract is "byte-identical for every value").
 */
TEST(ChipParallel, HardwareDefaultChipJobsMatchesSerial)
{
    core::ExperimentConfig cfg = smallConfig();
    NpuConfig serial;
    serial.peCount = 8;
    serial.dvs = DvsMode::Queue;
    serial.l2 = L2Mode::Shared;
    serial.mshrs = 4;
    NpuConfig autoJobs = serial;
    autoJobs.chipJobs = 0;

    const ChipExperimentResult a =
        runChipExperiment(apps::appFactory("route"), cfg, serial);
    const ChipExperimentResult b =
        runChipExperiment(apps::appFactory("route"), cfg, autoJobs);

    EXPECT_EQ(sweep::experimentResultJson(a.core),
              sweep::experimentResultJson(b.core));
    EXPECT_EQ(sweep::chipMetricsJson(a.goldenChip),
              sweep::chipMetricsJson(b.goldenChip));
    EXPECT_EQ(sweep::chipMetricsJson(a.faultyChip),
              sweep::chipMetricsJson(b.faultyChip));
}

/**
 * Single-trial experiments exercise the degenerate fan-out (the trial
 * pool collapses to one job but bring-up still runs parallel), and a
 * one-engine chip exercises a one-job bring-up pool. Neither may
 * disturb the single-core bit-equivalence guarantee.
 */
TEST(ChipParallel, OneEngineOneTrialStaysSingleCoreIdentical)
{
    core::ExperimentConfig cfg = smallConfig();
    cfg.trials = 1;
    NpuConfig npuCfg; // 1 PE, rr, uniform
    npuCfg.chipJobs = 4;

    const ChipExperimentResult chip =
        runChipExperiment(apps::appFactory("nat"), cfg, npuCfg);
    const core::ExperimentResult single =
        core::runExperiment(apps::appFactory("nat"), cfg);

    EXPECT_EQ(sweep::experimentResultJson(chip.core),
              sweep::experimentResultJson(single));
}

// --- control-plane churn on the chip ---------------------------------

/**
 * Peak update churn must not break the chip-jobs determinism contract:
 * every engine drains its private copy of the control stream against
 * its own packets' trace sequence numbers, so applied-update state
 * depends only on the dispatcher's (deterministic) placement — never
 * on worker count or scheduling. Byte-compare all three JSON blocks.
 */
TEST(ChipParallel, UpdateChurnChipJobsByteIdentical)
{
    for (const std::string &app : {std::string("lpm"),
                                   std::string("nat"),
                                   std::string("session")}) {
        core::ExperimentConfig cfg = smallConfig();
        cfg.numPackets = 200;
        cfg.ctrl.rate = 200; // peak churn: ~one event per 5 packets
        NpuConfig serial;
        serial.peCount = 4;
        serial.dispatch = DispatchPolicy::FlowHash;
        serial.l2 = L2Mode::Shared;
        serial.mshrs = 2;
        NpuConfig parallel = serial;
        parallel.chipJobs = 4;

        const ChipExperimentResult a =
            runChipExperiment(apps::appFactory(app), cfg, serial);
        const ChipExperimentResult b =
            runChipExperiment(apps::appFactory(app), cfg, parallel);

        EXPECT_GT(a.core.golden.ctrlEventsApplied, 0u) << "app " << app;
        EXPECT_EQ(sweep::experimentResultJson(a.core),
                  sweep::experimentResultJson(b.core))
            << "app " << app;
        EXPECT_EQ(sweep::chipMetricsJson(a.goldenChip),
                  sweep::chipMetricsJson(b.goldenChip))
            << "app " << app;
        EXPECT_EQ(sweep::chipMetricsJson(a.faultyChip),
                  sweep::chipMetricsJson(b.faultyChip))
            << "app " << app;
    }
}

/**
 * On a one-engine chip every packet keeps its trace order, so the
 * engine must drain the control stream at exactly the points the
 * single-core harness does — churn must not disturb the 1-PE
 * bit-equivalence guarantee.
 */
TEST(ChipParallel, OneEngineUnderChurnStaysSingleCoreIdentical)
{
    core::ExperimentConfig cfg = smallConfig();
    cfg.ctrl.rate = 100;
    cfg.ctrl.mix = ctrl::CtrlMix::Fib;
    NpuConfig npuCfg; // 1 PE, rr, uniform
    npuCfg.chipJobs = 4;

    const ChipExperimentResult chip =
        runChipExperiment(apps::appFactory("lpm"), cfg, npuCfg);
    const core::ExperimentResult single =
        core::runExperiment(apps::appFactory("lpm"), cfg);

    EXPECT_GT(chip.core.golden.ctrlEventsApplied, 0u);
    EXPECT_EQ(sweep::experimentResultJson(chip.core),
              sweep::experimentResultJson(single));
}

namespace
{

/**
 * A control-plane stream whose clones are each built afresh from the
 * config, the way every engine once made its own source. Only
 * meaningful cloned while unstarted, which is how the chip clones it.
 */
class FreshCtrlSource final : public ctrl::CtrlSource
{
  public:
    FreshCtrlSource(const ctrl::CtrlConfig &config,
                    const net::TraceConfig &trace)
        : config_(config), trace_(trace),
          src_(ctrl::makeCtrlSource(config, trace))
    {
    }

    const ctrl::CtrlEvent *peek() override { return src_->peek(); }
    void advance() override { src_->advance(); }

    std::unique_ptr<ctrl::CtrlSource> clone() const override
    {
        return std::make_unique<FreshCtrlSource>(config_, trace_);
    }

  private:
    ctrl::CtrlConfig config_;
    net::TraceConfig trace_;
    std::unique_ptr<ctrl::CtrlSource> src_;
};

} // namespace

/**
 * Engines draining clones of one control-plane stream (the chip's own,
 * or a line card's) run exactly as engines that each build their own
 * source: golden and faulty runs of a 4-PE lpm chip under churn give
 * the same metrics, chip metrics and digests, byte for byte.
 */
TEST(NpuChip, ClonedCtrlStreamsMatchPerEngineSources)
{
    const core::AppFactory factory = apps::appFactory("lpm");
    core::ExperimentConfig cfg = smallConfig();
    cfg.numPackets = 400;
    cfg.ctrl.rate = 100;
    NpuConfig npuCfg;
    npuCfg.peCount = 4;
    const net::TraceConfig trace =
        core::resolveTraceConfig(cfg, *factory());

    auto runAll = [&](bool perEngine) {
        FreshCtrlSource fresh(cfg.ctrl, trace);
        ChipEnv env;
        if (perEngine)
            env.ctrl = &fresh;
        std::vector<ChipStreamResult> runs;
        runs.push_back(runChipStream(factory, cfg, npuCfg, true, 0, env));
        for (unsigned t = 0; t < cfg.trials; ++t)
            runs.push_back(
                runChipStream(factory, cfg, npuCfg, false, t, env));
        return runs;
    };
    const std::vector<ChipStreamResult> cloned = runAll(false);
    const std::vector<ChipStreamResult> own = runAll(true);

    auto json = [&](const std::vector<ChipStreamResult> &runs) {
        std::vector<core::RunMetrics> trials;
        std::string chips;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            if (i > 0)
                trials.push_back(runs[i].merged);
            chips += sweep::chipMetricsJson(runs[i].chip);
        }
        return sweep::experimentResultJson(core::aggregateTrials(
                   "lpm", core::GoldenRecord{runs[0].merged, {}},
                   trials)) +
               chips;
    };
    EXPECT_GT(cloned[0].merged.ctrlEventsApplied, 0u);
    EXPECT_EQ(json(cloned), json(own));
    for (std::size_t i = 0; i < cloned.size(); ++i) {
        EXPECT_EQ(cloned[i].valueDigest, own[i].valueDigest) << i;
        EXPECT_EQ(cloned[i].peDigests, own[i].peDigests) << i;
    }
}

/**
 * Fault maps on a multi-engine chip must not break the chip-jobs
 * determinism contract: each engine builds its own per-PE-salted map
 * at construction and way-disable state lives entirely inside the
 * engine, so worker count can't reorder anything observable. Flow
 * churn on top exercises the full traffic model against the mapped
 * injection path. Byte-compare all three JSON blocks, serial vs 4
 * workers.
 */
TEST(ChipParallel, FaultMapUnderChurnChipJobsByteIdentical)
{
    for (const std::string &app : {std::string("nat"),
                                   std::string("session")}) {
        core::ExperimentConfig cfg = smallConfig();
        cfg.numPackets = 200;
        cfg.churnLifetime = 64; // force the churn traffic model on
        cfg.processor.faultMap =
            fault::faultMapSpecFromString("spatial");
        cfg.processor.hierarchy.wayDisable.retireThreshold = 2;
        NpuConfig serial;
        serial.peCount = 4;
        serial.dispatch = DispatchPolicy::FlowHash;
        serial.l2 = L2Mode::Shared;
        serial.mshrs = 2;
        NpuConfig parallel = serial;
        parallel.chipJobs = 4;

        const ChipExperimentResult a =
            runChipExperiment(apps::appFactory(app), cfg, serial);
        const ChipExperimentResult b =
            runChipExperiment(apps::appFactory(app), cfg, parallel);

        EXPECT_GT(a.core.faulty.faultsInjected, 0u) << "app " << app;
        EXPECT_EQ(sweep::experimentResultJson(a.core),
                  sweep::experimentResultJson(b.core))
            << "app " << app;
        EXPECT_EQ(sweep::chipMetricsJson(a.goldenChip),
                  sweep::chipMetricsJson(b.goldenChip))
            << "app " << app;
        EXPECT_EQ(sweep::chipMetricsJson(a.faultyChip),
                  sweep::chipMetricsJson(b.faultyChip))
            << "app " << app;
    }
}

// --- trace replay ------------------------------------------------------

/**
 * A golden chip run records its trace and every trial replays it. A
 * replaying trial must equal the same trial drawing its own trace
 * from a fresh source, over every dispatch policy, a bounded and an
 * unbounded ingress, drop and backpressure, static and churning
 * traffic, and trials run one at a time or concurrently on four
 * workers (all reading one recording). runChipExperiment, which
 * shares the golden's draw with its trials, must match an aggregate
 * built from the freshly drawn trials.
 */
TEST(ChipReplay, ReplayedTrialsMatchFreshlyDrawnTrials)
{
    const core::AppFactory factory = apps::appFactory("nat");
    unsigned withErrors = 0, withDrops = 0;
    for (const DispatchPolicy dispatch :
         {DispatchPolicy::RoundRobin, DispatchPolicy::FlowHash,
          DispatchPolicy::ShortestQueue})
        for (const unsigned ingressCap : {0u, 8u})
            for (const bool drop : {false, true})
                for (const std::uint64_t churn : {0u, 512u})
                    for (const unsigned jobs : {1u, 4u}) {
        const std::string what =
            to_string(dispatch) + " ingress " +
            std::to_string(ingressCap) + (drop ? " drop" : " bp") +
            " churn " + std::to_string(churn) + " jobs " +
            std::to_string(jobs);
        core::ExperimentConfig cfg = smallConfig();
        cfg.numPackets = 160;
        cfg.trials = 3;
        cfg.faultScale = 40.0;
        cfg.churnLifetime = churn;
        NpuConfig npu;
        npu.peCount = 4;
        npu.dispatch = dispatch;
        npu.queueCapacity = 4;
        npu.dropWhenFull = drop;
        npu.ingressCapacity = ingressCap;
        npu.l2 = L2Mode::Shared;
        npu.mshrs = 2;
        npu.dvs = DvsMode::Queue;
        npu.chipJobs = jobs;

        const ChipRun golden = runChipGolden(factory, cfg, npu);
        ASSERT_TRUE(golden.trace) << what;
        ASSERT_EQ(golden.trace->size(), cfg.numPackets) << what;
        ChipRun unrecorded = golden;
        unrecorded.trace.reset();

        NpuConfig trialNpu = npu;
        trialNpu.chipJobs = 1;
        std::vector<ChipRun> replayed(cfg.trials), drawn(cfg.trials);
        const WorkStealingPool pool(jobs);
        pool.run(2 * cfg.trials, [&](std::size_t j) {
            const auto t = static_cast<unsigned>(j / 2);
            if (j % 2 == 0)
                replayed[t] = runChipTrial(factory, cfg, trialNpu, t, golden);
            else
                drawn[t] =
                    runChipTrial(factory, cfg, trialNpu, t, unrecorded);
        });

        std::vector<core::RunMetrics> trials;
        std::vector<ChipMetrics> chips;
        for (unsigned t = 0; t < cfg.trials; ++t) {
            const core::GoldenRecord ref{golden.merged, {}};
            EXPECT_EQ(sweep::experimentResultJson(core::aggregateTrials(
                          "nat", ref, {replayed[t].merged})),
                      sweep::experimentResultJson(core::aggregateTrials(
                          "nat", ref, {drawn[t].merged})))
                << what << " trial " << t;
            EXPECT_EQ(sweep::chipMetricsJson(replayed[t].chip),
                      sweep::chipMetricsJson(drawn[t].chip))
                << what << " trial " << t;
            withErrors += drawn[t].merged.packetsWithError > 0;
            withDrops += drawn[t].chip.dropsQueueFull +
                             drawn[t].chip.ingressDrops >
                         0;
            trials.push_back(drawn[t].merged);
            chips.push_back(drawn[t].chip);
        }

        const ChipExperimentResult exp =
            runChipExperiment(factory, cfg, npu);
        EXPECT_EQ(sweep::experimentResultJson(exp.core),
                  sweep::experimentResultJson(core::aggregateTrials(
                      "nat", core::GoldenRecord{golden.merged, {}},
                      trials)))
            << what;
        EXPECT_EQ(sweep::chipMetricsJson(exp.goldenChip),
                  sweep::chipMetricsJson(golden.chip))
            << what;
        EXPECT_EQ(sweep::chipMetricsJson(exp.faultyChip),
                  sweep::chipMetricsJson(averageChipMetrics(chips)))
            << what;
    }
    // The matrix exercises the compare path and the drop paths.
    EXPECT_GT(withErrors, 0u);
    EXPECT_GT(withDrops, 0u);
}
