/**
 * @file
 * Golden-trace regression corpus for the single-core, chip and card
 * models.
 *
 * Each corpus entry pins the exact numeric outcome of one small run —
 * recorder digests, cycles, energy, fault and recovery counts, and for
 * chips ED2F2, throughput, completion and drop counts — as exact
 * round-trip decimal text under tests/golden/. The suite re-runs every
 * configuration and compares the fresh digest against the checked-in
 * file *stringwise*, so any refactor that shifts results by even one
 * ULP fails loudly
 * instead of drifting silently (the concern the Ramulator 2.0
 * re-evaluation work documents for shared-memory models).
 *
 * The four chip-experiment entries were generated from the private-L2
 * model that predates the genuinely-shared L2 refactor, so they double
 * as the bit-identity regression for `l2=private` chip runs. The
 * single-core and streaming-chip entries pin the L2 access path and
 * the chip step loop across every workload, dispatch policy and
 * queue-full mode; they were generated while independent reference
 * implementations of both still agreed with them bit for bit.
 * The dynamic-Cr, SEC-DED, mapped-fault/way-retire and dvs=queue
 * entries pin the L1D path's energy across clock switches, inline ECC
 * correction, map-mode draws with frame retirement, and per-PE DVS;
 * they were generated before the L1D path was reworked to price its
 * energy per clock change and probe its tags once per access.
 * The card entries were generated by the thread-per-chip DRAM commit
 * fabric (one blocking thread per chip, a mutex and a condvar) before
 * it became a single-thread fiber scheduler, so they pin the global
 * (time, chip) DRAM commit order — and everything downstream of it —
 * across that rewrite: round-robin, flow and shortest card dispatch,
 * a per-chip Cr spread, mapped faults with control churn, the
 * card-dram benchmark shape, MSHR-reordered commits on a shared L2,
 * and a faulty trial in which chips die mid-run. The four larger
 * card entries (a DRAM-off card with churn and a bounded ingress, a
 * DRAM card with shortest dispatch and backpressure, a 20k-packet
 * DRAM card with unequal flow-dispatched shares, and a longer faulty
 * trial with deaths) were generated while every chip still replayed
 * the whole card trace for its own share, before the card drew each
 * packet once into per-chip FIFOs: they pin the stream's hand-offs
 * and detached chips, which only show once FIFOs fill.
 *
 * Regenerating (only when a change is *meant* to shift results):
 *   CLUMSY_REGEN_GOLDEN=1 ./build/tests/test_golden_trace
 * then commit the rewritten files and say why in the commit message.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/app.hh"
#include "core/experiment.hh"
#include "ctrl/ctrl.hh"
#include "fault/fault_map.hh"
#include "linecard/card.hh"
#include "npu/chip.hh"
#include "npu/config.hh"
#include "sweep/sink.hh"

namespace
{

using namespace clumsy;

/** The harness a corpus entry runs. */
enum class Harness
{
    ChipExperiment, ///< golden + trials through runChipExperiment
    CoreGolden,     ///< one single-core golden run
    CoreTrial,      ///< one single-core faulty trial vs its golden run
    ChipStream,     ///< one streaming chip run (golden, or trial 0)
    CardExperiment, ///< golden + trials through runCardExperiment
    CardTrial,      ///< one faulty card run (trial 0)
};

/**
 * One pinned configuration. Fields a case leaves unset keep the
 * library defaults (core::ExperimentConfig, npu::NpuConfig).
 */
struct GoldenCase
{
    const char *name; ///< corpus file stem
    const char *app;
    Harness harness = Harness::ChipExperiment;
    std::uint64_t packets = 1000;
    unsigned trials = 1;
    std::uint64_t traceSeed = 1;
    std::uint64_t faultSeed = 0x5eed;
    double cr = 1.0;
    double faultScale = 1.0;
    mem::RecoveryScheme scheme = mem::RecoveryScheme::NoDetection;
    unsigned pes = 1;
    npu::DispatchPolicy dispatch = npu::DispatchPolicy::RoundRobin;
    npu::L2Mode l2 = npu::L2Mode::Private;
    unsigned mshrs = 1;
    unsigned queueCap = 16;
    bool drop = false; ///< true: drop mode (queue-full drops); false:
                       ///< backpressure (stall accounting)
    std::int64_t gap = 0; ///< arrival gap, base cycles
    bool golden = true;   ///< ChipStream: golden run, else trial 0
    bool dynamic = false; ///< dynamic-frequency controller
    mem::CheckCodec codec = mem::CheckCodec::Parity;
    const char *faultMap = "off"; ///< `--fault-map` value
    unsigned wayRetire = 0;       ///< way-disable retire threshold
    npu::DvsMode dvs = npu::DvsMode::Fault;
    std::uint32_t ctrlRate = 0; ///< FIB updates per 1000 packets
    unsigned chips = 1;         ///< card harnesses: chips on the card
    npu::DispatchPolicy cardDispatch = npu::DispatchPolicy::RoundRobin;
    unsigned dramBanks = 0;     ///< card harnesses: 0 = DRAM model off
    const char *perChipCr = ""; ///< comma-separated; empty = uniform
    bool subBlock = false;      ///< sub-block (one-word) strike refetch
    std::uint64_t churn = 0;    ///< mean flow lifetime (0 = app default)
    unsigned ingressCap = 0;    ///< card harnesses: per-chip ingress FIFO
};

/**
 * The original corpus shape: 4 PEs behind short flow-hashed queues at
 * Cr 0.5 with two-strike recovery, golden + 2 trials. Arrivals are
 * spread so the run processes most of the trace while still
 * overflowing the queues now and then: both the completion path and
 * the drop/backpressure accounting get pinned.
 */
constexpr GoldenCase
chipExperiment(const char *name, const char *app, std::uint64_t traceSeed,
               std::uint64_t faultSeed, bool drop)
{
    return {.name = name,
            .app = app,
            .packets = 200,
            .trials = 2,
            .traceSeed = traceSeed,
            .faultSeed = faultSeed,
            .cr = 0.5,
            .scheme = mem::RecoveryScheme::TwoStrike,
            .pes = 4,
            .dispatch = npu::DispatchPolicy::FlowHash,
            .mshrs = 2,
            .queueCap = 4,
            .drop = drop,
            .gap = drop ? 60 : 400};
}

/** A fault-free single-core run of one workload. */
constexpr GoldenCase
coreGolden(const char *name, const char *app)
{
    return {.name = name,
            .app = app,
            .harness = Harness::CoreGolden,
            .packets = 200};
}

const GoldenCase kCases[] = {
    chipExperiment("route_s1", "route", 1, 0x5eed, true),
    chipExperiment("route_s2", "route", 9, 0xb0a710ad, true),
    chipExperiment("nat_s1", "nat", 1, 0x5eed, false),
    chipExperiment("nat_s2", "nat", 9, 0xb0a710ad, false),

    // Every workload through the single-core L1D/L2 access path.
    coreGolden("core_crc", "crc"),
    coreGolden("core_tl", "tl"),
    coreGolden("core_route", "route"),
    coreGolden("core_drr", "drr"),
    coreGolden("core_nat", "nat"),
    coreGolden("core_md5", "md5"),
    coreGolden("core_url", "url"),
    coreGolden("core_adpcm", "adpcm"),
    coreGolden("core_session", "session"),
    coreGolden("core_lpm", "lpm"),

    // Faults land (scaled rate): strike recovery and refetches.
    {.name = "core_faulty_route",
     .app = "route",
     .harness = Harness::CoreTrial,
     .packets = 300,
     .cr = 0.45,
     .faultScale = 50.0,
     .scheme = mem::RecoveryScheme::TwoStrike},

    // Shared L2: every engine's L2 operations go to one array.
    {.name = "stream_shared_nat",
     .app = "nat",
     .harness = Harness::ChipStream,
     .packets = 600,
     .pes = 2,
     .l2 = npu::L2Mode::Shared,
     .mshrs = 2},

    // The chip step loop across dispatch policies and queue modes.
    {.name = "stream_flow_nat",
     .app = "nat",
     .harness = Harness::ChipStream,
     .packets = 1500,
     .pes = 4,
     .dispatch = npu::DispatchPolicy::FlowHash,
     .mshrs = 4},
    // Paced arrivals: engines drain between arrivals.
    {.name = "stream_rr_paced_route",
     .app = "route",
     .harness = Harness::ChipStream,
     .packets = 1200,
     .pes = 3,
     .gap = 400},
    // Tiny queues in drop mode: the full-queue branch and the depth
    // bookkeeping both get exercised hard.
    {.name = "stream_shortest_drop_session",
     .app = "session",
     .harness = Harness::ChipStream,
     .packets = 1500,
     .pes = 4,
     .dispatch = npu::DispatchPolicy::ShortestQueue,
     .queueCap = 2,
     .drop = true},
    // Backpressure: arrivals stall while engines step.
    {.name = "stream_backpressure_nat",
     .app = "nat",
     .harness = Harness::ChipStream,
     .packets = 1200,
     .pes = 2,
     .dispatch = npu::DispatchPolicy::FlowHash,
     .queueCap = 2},
    // Faulty chip at low Cr with a scaled fault rate: one engine dies
    // mid-run, exercising the dead-engine drop path.
    {.name = "stream_faulty_deaths_route",
     .app = "route",
     .harness = Harness::ChipStream,
     .packets = 1000,
     .cr = 0.45,
     .faultScale = 20.0,
     .pes = 4,
     .dispatch = npu::DispatchPolicy::FlowHash,
     .golden = false},

    // Dynamic frequency: the controller switches Cr mid-run, so every
    // D-cache access after a switch is charged at the new clock.
    {.name = "core_dynamic_crc",
     .app = "crc",
     .harness = Harness::CoreTrial,
     .packets = 600,
     .scheme = mem::RecoveryScheme::TwoStrike,
     .dynamic = true},
    // SEC-DED: single-bit faults are corrected inline, double-bit
    // faults go through the strike machinery.
    {.name = "core_secded_route",
     .app = "route",
     .harness = Harness::CoreTrial,
     .packets = 300,
     .cr = 0.25,
     .faultScale = 20.0,
     .scheme = mem::RecoveryScheme::TwoStrike,
     .codec = mem::CheckCodec::Secded},
    // Weak-cell map with way-disable: map-mode draws, strike-outs and
    // frame retirement (the L1D is direct-mapped, so a retired frame
    // kills its set and later accesses to it are served by the L2).
    {.name = "core_mapped_retire_crc",
     .app = "crc",
     .harness = Harness::CoreTrial,
     .packets = 300,
     .cr = 0.25,
     .scheme = mem::RecoveryScheme::TwoStrike,
     .faultMap = "spatial",
     .wayRetire = 2},
    // Sub-block recovery: a strike-out refetches only the faulted word
    // from the L2, keeping the rest of the line (and its dirty words).
    {.name = "core_subblock_md5",
     .app = "md5",
     .harness = Harness::CoreTrial,
     .packets = 300,
     .cr = 0.25,
     .faultScale = 50.0,
     .scheme = mem::RecoveryScheme::TwoStrike,
     .subBlock = true},
    // Per-PE queue-driven DVS: chip-level epochs retune each engine.
    {.name = "stream_dvs_queue_route",
     .app = "route",
     .harness = Harness::ChipStream,
     .packets = 1200,
     .cr = 0.5,
     .faultScale = 20.0,
     .scheme = mem::RecoveryScheme::TwoStrike,
     .pes = 4,
     .dispatch = npu::DispatchPolicy::FlowHash,
     .golden = false,
     .dynamic = true,
     .dvs = npu::DvsMode::Queue},

    // Line cards behind a shared DRAM: the three LineCard workloads
    // (round-robin crc; flow-dispatched route on 2 banks with a
    // per-chip Cr spread; shortest-dispatched lpm with mapped faults
    // and FIB churn), golden + 2 trials at Cr 0.5, two-strike.
    {.name = "card_crc",
     .app = "crc",
     .harness = Harness::CardExperiment,
     .packets = 240,
     .trials = 2,
     .cr = 0.5,
     .scheme = mem::RecoveryScheme::TwoStrike,
     .chips = 2,
     .dramBanks = 4},
    {.name = "card_route_cr_spread",
     .app = "route",
     .harness = Harness::CardExperiment,
     .packets = 240,
     .trials = 2,
     .cr = 0.5,
     .scheme = mem::RecoveryScheme::TwoStrike,
     .pes = 2,
     .dispatch = npu::DispatchPolicy::FlowHash,
     .chips = 4,
     .cardDispatch = npu::DispatchPolicy::FlowHash,
     .dramBanks = 2,
     .perChipCr = "0.5,0.45,0.55,0.5"},
    {.name = "card_lpm_mapped_ctrl",
     .app = "lpm",
     .harness = Harness::CardExperiment,
     .packets = 240,
     .trials = 2,
     .cr = 0.5,
     .scheme = mem::RecoveryScheme::TwoStrike,
     .faultMap = "spatial",
     .ctrlRate = 100,
     .chips = 3,
     .cardDispatch = npu::DispatchPolicy::ShortestQueue,
     .dramBanks = 4},
    // The card-dram benchmark's shape: lpm under FIB churn on 4 chips
    // x 2 PEs over 8 banks.
    {.name = "card_dram_lpm",
     .app = "lpm",
     .harness = Harness::CardExperiment,
     .packets = 600,
     .trials = 2,
     .cr = 0.5,
     .scheme = mem::RecoveryScheme::TwoStrike,
     .pes = 2,
     .ctrlRate = 100,
     .chips = 4,
     .dramBanks = 8},
    // Four MSHRs on a shared L2: port slots are not monotone, so the
    // fabric's clamp to each chip's previous commit point decides the
    // commit order.
    {.name = "card_shared_mshr4_nat",
     .app = "nat",
     .harness = Harness::CardExperiment,
     .packets = 400,
     .trials = 2,
     .cr = 0.5,
     .scheme = mem::RecoveryScheme::TwoStrike,
     .pes = 4,
     .dispatch = npu::DispatchPolicy::FlowHash,
     .l2 = npu::L2Mode::Shared,
     .mshrs = 4,
     .chips = 3,
     .dramBanks = 4},
    // A faulty card trial at a scaled fault rate without detection:
    // chips die mid-run and drop out of the commit order while the
    // survivors keep committing.
    {.name = "card_faulty_deaths_route",
     .app = "route",
     .harness = Harness::CardTrial,
     .packets = 600,
     .cr = 0.45,
     .faultScale = 20.0,
     .pes = 2,
     .dispatch = npu::DispatchPolicy::FlowHash,
     .chips = 4,
     .dramBanks = 4},
    // Cards large enough that the card stream's per-chip FIFOs fill:
    // the DRAM model off with flow dispatch, traffic churn and a
    // bounded chip ingress; the DRAM model on with shortest dispatch
    // and backpressured engine queues; the DRAM model on with flow
    // dispatch under saturated arrivals, where the chips with larger
    // shares fall behind in the trace until their FIFOs detach; and
    // a faulty trial in which chips die mid-run while the others keep
    // drawing the stream.
    {.name = "card_nodram_flow_churn_ingress_nat",
     .app = "nat",
     .harness = Harness::CardExperiment,
     .packets = 3000,
     .trials = 2,
     .cr = 0.5,
     .scheme = mem::RecoveryScheme::TwoStrike,
     .pes = 2,
     .dispatch = npu::DispatchPolicy::FlowHash,
     .gap = 20,
     .chips = 4,
     .cardDispatch = npu::DispatchPolicy::FlowHash,
     .churn = 64,
     .ingressCap = 8},
    {.name = "card_dram_shortest_backpressure_route",
     .app = "route",
     .harness = Harness::CardExperiment,
     .packets = 2000,
     .trials = 2,
     .cr = 0.5,
     .scheme = mem::RecoveryScheme::TwoStrike,
     .pes = 2,
     .dispatch = npu::DispatchPolicy::ShortestQueue,
     .queueCap = 4,
     .chips = 4,
     .cardDispatch = npu::DispatchPolicy::ShortestQueue,
     .dramBanks = 4},
    {.name = "card_dram_flow_lagging_route",
     .app = "route",
     .harness = Harness::CardTrial,
     .packets = 20000,
     .cr = 0.5,
     .scheme = mem::RecoveryScheme::TwoStrike,
     .pes = 2,
     .chips = 4,
     .cardDispatch = npu::DispatchPolicy::FlowHash,
     .dramBanks = 8},
    {.name = "card_faulty_deaths_large_route",
     .app = "route",
     .harness = Harness::CardTrial,
     .packets = 3000,
     .cr = 0.45,
     .faultScale = 6.0,
     .pes = 2,
     .dispatch = npu::DispatchPolicy::FlowHash,
     .chips = 4,
     .dramBanks = 4},
};

/**
 * The dead-engine dispatch scenario at the unscaled fault rate: the
 * faulty 4-PE flow-hashed route stream at Cr 0.45 without detection.
 * Its digest was generated by the one-dispatch-per-pass chip loop the
 * batched loop replaced, so the HotPath test below pins the batched
 * loop to that loop's exact results.
 */
constexpr GoldenCase kLegacyFaultyDeaths = {
    .name = "legacy_faulty_deaths_route",
    .app = "route",
    .harness = Harness::ChipStream,
    .packets = 1000,
    .cr = 0.45,
    .pes = 4,
    .dispatch = npu::DispatchPolicy::FlowHash,
    .golden = false};

/**
 * Print a case by value, not by its raw bytes: the default printer
 * dumps the `const char *` members as addresses, which makes the listed
 * test names differ between builds.
 */
void
PrintTo(const GoldenCase &gc, std::ostream *os)
{
    *os << gc.app;
    switch (gc.harness) {
      case Harness::ChipExperiment:
        *os << " trace=" << gc.traceSeed << " fault=0x" << std::hex
            << gc.faultSeed << std::dec
            << (gc.drop ? " drop" : " backpressure");
        return;
      case Harness::CoreGolden:
        *os << " core golden";
        break;
      case Harness::CoreTrial:
        *os << " core trial";
        break;
      case Harness::ChipStream:
        *os << " stream " << (gc.golden ? "golden" : "trial")
            << " pes=" << gc.pes << " dispatch="
            << npu::to_string(gc.dispatch)
            << " l2=" << npu::to_string(gc.l2);
        break;
      case Harness::CardExperiment:
      case Harness::CardTrial:
        *os << " card "
            << (gc.harness == Harness::CardTrial ? "trial" : "experiment")
            << " chips=" << gc.chips << " dram-banks=" << gc.dramBanks
            << " pes=" << gc.pes << " mshrs=" << gc.mshrs
            << " l2=" << npu::to_string(gc.l2);
        break;
    }
    *os << " packets=" << gc.packets;
    // Non-default knobs only, so older cases keep their names.
    if (gc.dynamic)
        *os << " dynamic";
    if (gc.codec == mem::CheckCodec::Secded)
        *os << " codec=secded";
    if (std::string(gc.faultMap) != "off")
        *os << " faultmap=" << gc.faultMap;
    if (gc.wayRetire != 0)
        *os << " way-retire=" << gc.wayRetire;
    if (gc.dvs != npu::DvsMode::Fault)
        *os << " dvs=" << npu::to_string(gc.dvs);
    if (gc.ctrlRate != 0)
        *os << " ctrl=" << gc.ctrlRate;
    if (*gc.perChipCr != '\0')
        *os << " per-chip-cr=" << gc.perChipCr;
    if (gc.churn != 0)
        *os << " churn=" << gc.churn;
    if (gc.ingressCap != 0)
        *os << " ingress-cap=" << gc.ingressCap;
}

/** Exact round-trip text for a double (%.17g re-reads bit-equal). */
std::string
exact(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Ordered key=value lines of one digest. */
class DigestWriter
{
  public:
    void put(const std::string &key, double v)
    {
        text_ += key + "=" + exact(v) + "\n";
    }

    void putU(const std::string &key, std::uint64_t v)
    {
        text_ += key + "=" + std::to_string(v) + "\n";
    }

    void putS(const std::string &key, const std::string &v)
    {
        text_ += key + "=" + v + "\n";
    }

    /** Every modeled RunMetrics field. */
    void putRun(const core::RunMetrics &m)
    {
        putU("packets_attempted", m.packetsAttempted);
        putU("packets_processed", m.packetsProcessed);
        putU("packets_with_error", m.packetsWithError);
        putU("fatal", m.fatal ? 1 : 0);
        putS("fatal_reason", m.fatalReason);
        put("cycles_per_packet", m.cyclesPerPacket);
        put("energy_per_packet_pj", m.energyPerPacketPj);
        put("total_energy_pj", m.totalEnergyPj);
        put("l1d_energy_pj", m.l1dEnergyPj);
        putU("instructions", m.instructions);
        putU("dcache_accesses", m.dcacheAccesses);
        put("dcache_miss_rate", m.dcacheMissRate);
        putU("faults_injected", m.faultsInjected);
        putU("parity_trips", m.parityTrips);
        putU("ecc_corrections", m.eccCorrections);
        putU("freq_switches", m.freqSwitches);
        putU("ctrl_events_applied", m.ctrlEventsApplied);
        for (const auto &[type, n] : m.errorsByType)
            putU("errors." + type, n);
    }

    /** Every chip-level metric, per-engine vectors included. */
    void putChip(const npu::ChipMetrics &c)
    {
        put("chip_makespan_cycles", c.makespanCycles);
        put("chip_throughput_pps", c.throughputPps);
        put("chip_load_imbalance", c.loadImbalance);
        put("chip_queue_occ_mean", c.queueOccMean);
        put("chip_queue_occ_max", c.queueOccMax);
        put("chip_drops_queue_full", c.dropsQueueFull);
        put("chip_drops_dead_pe", c.dropsDeadPe);
        put("chip_backpressure_stalls", c.backpressureStalls);
        put("chip_l2_port_waits", c.l2PortWaits);
        put("chip_l2_port_wait_cycles", c.l2PortWaitCycles);
        put("chip_ingress_drops", c.ingressDrops);
        put("chip_cross_engine_hits", c.crossEngineHits);
        put("chip_cross_engine_hit_fraction", c.crossEngineHitFraction);
        put("chip_l2_evictions_by_other", c.l2EvictionsByOther);
        put("chip_mshr_merges", c.mshrMerges);
        put("chip_edf", c.chipEdf);
        const std::pair<const char *, const std::vector<double> *>
            perPe[] = {{"utilization", &c.peUtilization},
                       {"packets", &c.pePackets},
                       {"l2_hits", &c.peL2Hits},
                       {"l2_misses", &c.peL2Misses},
                       {"cr_final", &c.peCrFinal},
                       {"cr_mean", &c.peCrMean},
                       {"epochs", &c.peEpochs},
                       {"steps_up", &c.peStepsUp},
                       {"steps_down", &c.peStepsDown}};
        for (const auto &[key, values] : perPe)
            for (std::size_t pe = 0; pe < values->size(); ++pe)
                put("pe" + std::to_string(pe) + "_" + key,
                    (*values)[pe]);
    }

    const std::string &text() const { return text_; }

  private:
    std::string text_;
};

/** The chip-experiment digest (the original corpus format). */
std::string
chipExperimentDigest(const core::AppFactory &factory,
                     const core::ExperimentConfig &cfg,
                     const npu::NpuConfig &npuCfg)
{
    const npu::ChipExperimentResult res =
        npu::runChipExperiment(factory, cfg, npuCfg);

    DigestWriter w;
    w.put("golden_packets",
          static_cast<double>(res.core.golden.packetsProcessed));
    w.put("faulty_packets",
          static_cast<double>(res.core.faulty.packetsProcessed));
    w.put("fallibility", res.core.fallibility);
    w.put("fatal_prob", res.core.fatalProb);
    w.put("cycles_per_packet", res.core.cyclesPerPacket);
    w.put("energy_per_packet_pj", res.core.energyPerPacketPj);
    w.put("edf", res.core.edf);
    w.put("golden_makespan_cycles", res.goldenChip.makespanCycles);
    w.put("golden_throughput_pps", res.goldenChip.throughputPps);
    w.put("golden_drops_queue_full", res.goldenChip.dropsQueueFull);
    w.put("golden_backpressure_stalls",
          res.goldenChip.backpressureStalls);
    w.put("faulty_chip_edf", res.faultyChip.chipEdf);
    w.put("faulty_throughput_pps", res.faultyChip.throughputPps);
    w.put("faulty_drops_queue_full", res.faultyChip.dropsQueueFull);
    w.put("faulty_drops_dead_pe", res.faultyChip.dropsDeadPe);
    w.put("faulty_backpressure_stalls",
          res.faultyChip.backpressureStalls);
    w.put("faulty_l2_port_waits", res.faultyChip.l2PortWaits);
    for (std::size_t pe = 0; pe < res.goldenChip.pePackets.size();
         ++pe)
        w.put("golden_pe" + std::to_string(pe) + "_packets",
              res.goldenChip.pePackets[pe]);
    return w.text();
}

/** Run one case and render its digest (ordered key=value lines). */
std::string
digest(const GoldenCase &gc)
{
    core::ExperimentConfig cfg;
    cfg.numPackets = gc.packets;
    cfg.trials = gc.trials;
    cfg.traceSeed = gc.traceSeed;
    cfg.faultSeed = gc.faultSeed;
    cfg.cr = gc.cr;
    cfg.faultScale = gc.faultScale;
    cfg.scheme = gc.scheme;
    cfg.dynamicFrequency = gc.dynamic;
    cfg.processor.hierarchy.codec = gc.codec;
    cfg.processor.hierarchy.wayDisable.retireThreshold = gc.wayRetire;
    cfg.processor.hierarchy.subBlockRecovery = gc.subBlock;
    cfg.processor.faultMap = fault::faultMapSpecFromString(gc.faultMap);
    cfg.churnLifetime = gc.churn;

    npu::NpuConfig npuCfg;
    npuCfg.peCount = gc.pes;
    npuCfg.dispatch = gc.dispatch;
    npuCfg.l2 = gc.l2;
    npuCfg.mshrs = gc.mshrs;
    npuCfg.queueCapacity = gc.queueCap;
    npuCfg.dropWhenFull = gc.drop;
    npuCfg.arrivalGapCycles = gc.gap;
    npuCfg.dvs = gc.dvs;
    if (gc.ctrlRate != 0) {
        cfg.ctrl.rate = gc.ctrlRate;
        cfg.ctrl.mix = ctrl::CtrlMix::Fib;
    }

    linecard::CardConfig card;
    card.chips = gc.chips;
    card.dispatch = gc.cardDispatch;
    card.dram.banks = gc.dramBanks;
    card.ingressCapacity = gc.ingressCap;
    std::istringstream crs(gc.perChipCr);
    for (std::string cr; std::getline(crs, cr, ',');)
        card.perChipCr.push_back(std::stod(cr));

    const core::AppFactory factory = apps::appFactory(gc.app);
    DigestWriter w;
    switch (gc.harness) {
      case Harness::ChipExperiment:
        return chipExperimentDigest(factory, cfg, npuCfg);
      case Harness::CoreGolden: {
        const core::GoldenRecord golden = core::runGolden(factory, cfg);
        w.putU("recorder_digest", golden.recorder.digest());
        w.putU("recorder_packets", golden.recorder.packetCount());
        w.putRun(golden.metrics);
        break;
      }
      case Harness::CoreTrial: {
        const core::GoldenRecord golden = core::runGolden(factory, cfg);
        w.putRun(core::runFaultyTrial(factory, cfg, 0, golden));
        break;
      }
      case Harness::ChipStream: {
        const npu::ChipStreamResult res =
            npu::runChipStream(factory, cfg, npuCfg, gc.golden, 0);
        w.putU("value_digest", res.valueDigest);
        for (std::size_t pe = 0; pe < res.peDigests.size(); ++pe)
            w.putU("pe" + std::to_string(pe) + "_digest",
                   res.peDigests[pe]);
        w.putRun(res.merged);
        w.putChip(res.chip);
        break;
      }
      case Harness::CardExperiment: {
        const linecard::CardExperimentResult res =
            linecard::runCardExperiment(factory, cfg, npuCfg, card);
        w.putS("golden_value_digest",
               sweep::hexU64(res.golden.valueDigest));
        w.putS("golden_card", sweep::cardMetricsJson(res.golden.card));
        w.putS("faulty_card", sweep::cardMetricsJson(res.faultyCard));
        w.put("fatal_fraction", res.fatalFraction);
        for (std::size_t c = 0; c < res.golden.chips.size(); ++c)
            w.put("chip" + std::to_string(c) + "_golden_makespan_cycles",
                  res.golden.chips[c].chip.makespanCycles);
        break;
      }
      case Harness::CardTrial: {
        const linecard::CardRunResult run =
            linecard::runCard(factory, cfg, npuCfg, card, false, 0);
        w.putS("value_digest", sweep::hexU64(run.valueDigest));
        w.putS("card", sweep::cardMetricsJson(run.card));
        for (std::size_t c = 0; c < run.chips.size(); ++c) {
            const npu::ChipStreamResult &r = run.chips[c];
            const std::string chip = "chip" + std::to_string(c) + "_";
            w.putU(chip + "value_digest", r.valueDigest);
            w.putU(chip + "fatal", r.merged.fatal ? 1 : 0);
            w.putU(chip + "packets_processed", r.merged.packetsProcessed);
            w.put(chip + "makespan_cycles", r.chip.makespanCycles);
            w.put(chip + "dram_stall_cycles", r.chip.dramStallCycles);
        }
        w.putRun(linecard::mergeCardRunMetrics(run));
        break;
      }
    }
    return w.text();
}

std::string
goldenPath(const GoldenCase &gc)
{
    return std::string(CLUMSY_GOLDEN_DIR) + "/" + gc.name + ".golden";
}

/** Re-run @p gc and compare its digest with the checked-in file. */
void
expectMatchesCorpus(const GoldenCase &gc)
{
    const std::string fresh = digest(gc);
    const std::string path = goldenPath(gc);

    if (std::getenv("CLUMSY_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << fresh;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << path << " missing; regenerate with CLUMSY_REGEN_GOLDEN=1";
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string pinned = buf.str();

    if (fresh == pinned)
        return;
    // Report per-line so the drifted metric is named, not just "files
    // differ".
    std::map<std::string, std::string> want;
    std::istringstream ws(pinned);
    for (std::string line; std::getline(ws, line);) {
        const auto eq = line.find('=');
        if (eq != std::string::npos)
            want[line.substr(0, eq)] = line.substr(eq + 1);
    }
    std::istringstream gs(fresh);
    for (std::string line; std::getline(gs, line);) {
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            continue;
        const std::string key = line.substr(0, eq);
        const std::string got = line.substr(eq + 1);
        const auto it = want.find(key);
        if (it == want.end())
            ADD_FAILURE() << gc.name << ": new metric " << key
                          << " not in corpus";
        else
            EXPECT_EQ(it->second, got) << gc.name << ": " << key
                                       << " drifted";
    }
    EXPECT_EQ(pinned, fresh) << gc.name << ": digest drifted";
}

class GoldenTrace : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenTrace, MatchesCorpus)
{
    expectMatchesCorpus(GetParam());
}

TEST(HotPath, BatchedDispatchMatchesLegacyFaultyWithDeaths)
{
    expectMatchesCorpus(kLegacyFaultyDeaths);
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenTrace,
                         ::testing::ValuesIn(kCases),
                         [](const auto &paramInfo) {
                             return std::string(paramInfo.param.name);
                         });

} // namespace
