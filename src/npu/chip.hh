/**
 * @file
 * The multi-engine chip model: N clumsy processing engines — each a
 * private core::ClumsyProcessor with its own L1s, fault injector and
 * (optional) frequency controller — behind one shared L2 port, fed by
 * a dispatcher from a single packet trace.
 *
 * Time is advanced by a deterministic step loop: engines run whole
 * packets, and the engine with the smallest (local data time, engine
 * id) runs next, so results are byte-identical across hosts and
 * repeat invocations. A one-engine chip at the default knobs
 * (dvs=fault, mshrs=1) is bit-identical to the single-core harness
 * (core/experiment.hh): same processor config, same fault seeds, same
 * packet order, and the shared L2 port's service times are covered by
 * the access's own L2 latency so a lone engine never queues.
 *
 * With dvs=queue the chip takes over the epoch cadence (per-PE DVS):
 * every FreqControllerConfig::epochPackets completed packets
 * chip-wide, every alive engine's queue-biased controller decides on
 * its own fault history and its own mean input-queue pressure, so
 * per-engine Cr trajectories diverge under imbalanced load.
 *
 * Golden-vs-faulty comparison stays per-packet even though engines
 * complete packets out of trace order: each run records, per trace
 * sequence number, which engine processed the packet and which of
 * that engine's recorder frames holds its marked values, and faulty
 * frames are compared against the golden frame of the *same sequence
 * number* regardless of where either ran.
 */

#ifndef CLUMSY_NPU_CHIP_HH
#define CLUMSY_NPU_CHIP_HH

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "core/experiment.hh"
#include "npu/config.hh"

namespace clumsy::dram
{
class DramGateway;
}

namespace clumsy::traffic
{
class PacketSource;
}

namespace clumsy::npu
{

/**
 * The chip run's surroundings when it is one of several on a line
 * card (src/linecard/). The default-constructed env is the standalone
 * chip: own arrival stream, flat DRAM penalty, engine ids starting at
 * zero, no horizon feed — byte-identical to the pre-env model.
 */
struct ChipEnv
{
    /**
     * Arrival stream override. Null = the chip builds its own source
     * from the experiment's trace config; the line card passes each
     * chip its filtered share of the card-wide stream (packets keep
     * their global sequence numbers and arrival times).
     */
    traffic::PacketSource *source = nullptr;

    /** Modeled DRAM behind the shared L2 port (null = flat penalty). */
    dram::DramGateway *dram = nullptr;

    /**
     * This chip's offset into the card's physical DRAM address space
     * (chip c: c * ProcessorConfig::memBytes), added to every L2 line
     * base before it reaches the gateway.
     */
    std::uint64_t dramSalt = 0;

    /**
     * Global id of this chip's engine 0 (chip c of a card:
     * c * peCount). Salts per-engine fault seeds and fault-map
     * generation so chips age differently; zero preserves the
     * standalone chip's seeds exactly.
     */
    unsigned engineSaltBase = 0;

    /**
     * Horizon feed for the card's DRAM commit order: called before
     * every engine step taken with no arrival due, with a monotone
     * lower bound (chip quanta) on the time of any future DRAM
     * request this chip can make. Null = not tracked (no per-step
     * O(P) scan).
     */
    std::function<void(Quanta)> progress;
};

/**
 * Chip-level quantities of one run. All fields are doubles — counters
 * included — so trial runs average componentwise without a second
 * struct.
 */
struct ChipMetrics
{
    /** Wall-clock of the data plane: max engine data time, cycles. */
    double makespanCycles = 0.0;

    /** Completed packets per second at the modeled clock. */
    double throughputPps = 0.0;

    /** Max engine busy time over mean engine busy time (1 = even). */
    double loadImbalance = 1.0;

    /** Mean queue depth observed at enqueue, over all engines. */
    double queueOccMean = 0.0;

    /** Deepest any engine queue ever got. */
    double queueOccMax = 0.0;

    double dropsQueueFull = 0.0;     ///< drops in drop mode
    double dropsDeadPe = 0.0;        ///< packets for dead engines
    double backpressureStalls = 0.0; ///< arrival stalls (backpressure)

    double l2PortWaits = 0.0;      ///< accesses that found the port busy
    double l2PortWaitCycles = 0.0; ///< total port queuing, cycles

    /**
     * Ingress-FIFO drops (NpuConfig::ingressCapacity > 0; zero and
     * inert otherwise) and modeled-DRAM demand (ChipEnv::dram
     * attached; zero and inert otherwise — averages mix cleanly).
     */
    double ingressDrops = 0.0;
    double dramRequests = 0.0;    ///< line transfers sent to DRAM
    double dramStallCycles = 0.0; ///< stall beyond the flat penalty

    /**
     * Shared-L2 observability (NpuConfig::l2 == Shared; all zero in
     * private mode, so averages mix cleanly across modes):
     * data-plane hits on a shared frame another engine's refill
     * installed, the fraction of all data-plane L2 hits they make up,
     * lines of one engine evicted by another engine's fill, and port
     * requests that folded into another engine's in-flight transfer.
     */
    double crossEngineHits = 0.0;
    double crossEngineHitFraction = 0.0;
    double l2EvictionsByOther = 0.0;
    double mshrMerges = 0.0;

    /**
     * Chip-level ED2F2: per-packet energy times the square of the
     * *makespan*-based per-packet delay (parallelism helps delay, not
     * energy) times fallibility squared.
     */
    double chipEdf = 0.0;

    std::vector<double> peUtilization; ///< busy/makespan per engine
    std::vector<double> pePackets;     ///< packets completed per engine

    /** Per-engine data-plane L2 demand hits/misses (both L2 modes). */
    std::vector<double> peL2Hits;
    std::vector<double> peL2Misses;

    /**
     * Per-engine Cr trajectory and epoch-decision counters (per-PE
     * DVS observability). Engines with no dynamic controller (golden
     * runs, dvs=static, static operating points) report their fixed
     * Cr and zero decisions.
     */
    std::vector<double> peCrFinal;   ///< Cr at end of run per engine
    std::vector<double> peCrMean;    ///< residency-weighted mean Cr
    std::vector<double> peEpochs;    ///< epoch decisions per engine
    std::vector<double> peStepsUp;   ///< clock-up decisions per engine
    std::vector<double> peStepsDown; ///< clock-down decisions per engine
};

/** Everything one chip run (golden or one faulty trial) produced. */
struct ChipRun
{
    /**
     * The engines' metrics merged into single-core form so the
     * experiment aggregation (core::aggregateTrials) applies
     * unchanged. For a one-engine chip this equals the single-core
     * run's metrics bit for bit.
     */
    core::RunMetrics merged;

    ChipMetrics chip;

    /** Queue-depth distribution merged across engines. */
    Histogram queueOcc{0.0, 1.0, 1};

    /** Per-engine marked-value frames (golden runs keep these). */
    std::vector<core::ValueRecorder> recorders;

    /** trace seq -> (engine, frame index in that engine's recorder). */
    std::map<std::uint64_t, std::pair<unsigned, std::size_t>>
        completions;
};

/** Run the chip fault-free; panics if any engine dies. */
ChipRun runChipGolden(const core::AppFactory &factory,
                      const core::ExperimentConfig &config,
                      const NpuConfig &npu);

/** Run faulty trial @p trial against a golden chip run. */
ChipRun runChipTrial(const core::AppFactory &factory,
                     const core::ExperimentConfig &config,
                     const NpuConfig &npu, unsigned trial,
                     const ChipRun &golden);

/** Aggregated outcome of golden + trials on one chip. */
struct ChipExperimentResult
{
    /** Single-core-form aggregates over the merged metrics. */
    core::ExperimentResult core;

    ChipMetrics goldenChip;
    ChipMetrics faultyChip; ///< componentwise mean over trials

    /** Golden run's merged queue-depth distribution. */
    Histogram goldenQueueOcc{0.0, 1.0, 1};
};

/** Componentwise mean, accumulated in the given (trial) order. */
ChipMetrics averageChipMetrics(const std::vector<ChipMetrics> &runs);

/**
 * Outcome of one O(1)-memory streaming chip run: the usual merged and
 * chip-level metrics, plus the recorders' rolling digests in place of
 * stored frames. Two runs that processed identical packets identically
 * produce equal valueDigest values.
 */
struct ChipStreamResult
{
    core::RunMetrics merged;
    ChipMetrics chip;

    /** Order-independent-of-jobs fold of the per-engine digests. */
    std::uint64_t valueDigest = 0;

    /** Per-engine rolling recorder digests (PE order). */
    std::vector<std::uint64_t> peDigests;
};

/**
 * One chip run in streaming mode: recorders run in Digest mode and no
 * per-sequence completion map is kept, so peak memory is independent
 * of config.numPackets — the form bench/traffic_scale uses for
 * 10M-packet runs. The step loop, engine scheduling, metrics and the
 * packet stream are exactly runChipGolden/runChipTrial's; only the
 * O(packets) bookkeeping is gone, which is why golden-vs-faulty
 * comparison is unavailable here (use the digests to check identity,
 * not to localize divergence).
 */
ChipStreamResult runChipStream(const core::AppFactory &factory,
                               const core::ExperimentConfig &config,
                               const NpuConfig &npu, bool golden = true,
                               unsigned trial = 0,
                               const ChipEnv &env = {});

/**
 * Golden + trials on one chip. With NpuConfig::chipJobs > 1 the
 * engine bring-up horizon and the faulty-trial fan-out run on a
 * worker pool (the factory must then be callable from multiple
 * threads; the stock apps::appFactory is); the result is byte-
 * identical to the serial run for every chipJobs value.
 */
ChipExperimentResult runChipExperiment(const core::AppFactory &factory,
                                       const core::ExperimentConfig &config,
                                       const NpuConfig &npu);

} // namespace clumsy::npu

#endif // CLUMSY_NPU_CHIP_HH
