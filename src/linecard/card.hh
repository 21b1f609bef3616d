/**
 * @file
 * The line-card tier: N chip models (src/npu/) behind one inter-chip
 * dispatcher, sharing one analytical DRAM (src/dram/) through the
 * commit fabric (linecard/fabric.hh).
 *
 * Packet split. The card reuses npu::Dispatcher one level up: a
 * card-level policy (rr / flow / shortest) assigns every packet of
 * the card-wide trace to a chip. The split is feedback-free — the
 * "queue depth" the shortest policy sees is each chip's total
 * assigned count, not a live occupancy — so it is a pure function of
 * the trace: one card stream (linecard/stream.hh) draws the trace
 * once, in global order, into per-chip FIFOs, global sequence numbers
 * and arrival times intact. Control-plane churn streams carry no
 * packet-count state, so every chip replays the identical global
 * update stream (the control plane is a broadcast), drained against
 * the global sequence numbers it actually processes.
 *
 * Chip variation. Chip c's engines get global ids starting at
 * c * peCount (decorrelated fault seeds and fault maps), its DRAM
 * lines live at physical offset c * memBytes (same bank mapping,
 * different rows), and an optional per-chip Cr vector models
 * voltage/process spread across the card. Chip 0 is unsalted: a
 * one-chip card with the DRAM model off is bit-identical to
 * clumsy_npu.
 *
 * Scheduling. The chips of one run advance together on the calling
 * thread, one fiber each, under the DRAM fabric's (time, chip) commit
 * order (linecard/fabric.hh); with the DRAM model off they share
 * only the stream, and switch where it hands a full FIFO to its
 * owner. Parallelism (--card-jobs) is across runs instead:
 * runCardExperiment fans the golden run and the faulty trials out on
 * a worker pool and reduces them in trial order, so results are
 * byte-identical at every job count — the same contract --chip-jobs
 * honours one level down.
 */

#ifndef CLUMSY_LINECARD_CARD_HH
#define CLUMSY_LINECARD_CARD_HH

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/fields.hh"
#include "core/experiment.hh"
#include "dram/dram.hh"
#include "npu/chip.hh"
#include "npu/config.hh"

namespace clumsy::linecard
{

/** Static configuration of the card tier. */
struct CardConfig
{
    /** Chips on the card. */
    unsigned chips = 1;

    /** Inter-chip packet dispatch policy (count-based, no feedback). */
    npu::DispatchPolicy dispatch = npu::DispatchPolicy::RoundRobin;

    /** The shared DRAM behind every chip's L2 (banks = 0: model off). */
    dram::DramConfig dram;

    /**
     * Worker threads runCardExperiment runs its golden run and trials
     * on (at most trials + 1 are used). 1 = serial (the default); 0 =
     * the machine's hardware default. Byte-identical results at every
     * value; a single runCard() call ignores it.
     */
    unsigned cardJobs = 1;

    /**
     * Per-chip ingress FIFO capacity, packets (0 = unbounded). The
     * card forwards this to every chip's NpuConfig::ingressCapacity.
     */
    unsigned ingressCapacity = 0;

    /**
     * Per-chip relative cycle time overrides (voltage/process spread
     * across the card). Empty = uniform; else size must equal chips.
     */
    std::vector<double> perChipCr;

    /** Sanity-check; fatal()s on nonsense. */
    void validate() const;
};

/** Card-level quantities of one run (all doubles, like ChipMetrics). */
struct CardMetrics
{
    /** Wall-clock of the card: max chip makespan, cycles. */
    double makespanCycles = 0.0;

    /** Completed packets per second across the card. */
    double throughputPps = 0.0;

    /** Max chip packet count over mean chip packet count (1 = even). */
    double loadImbalance = 1.0;

    double packetsProcessed = 0.0; ///< completed, card-wide
    double ingressDrops = 0.0;     ///< chip-edge drops, summed

    // Shared-DRAM demand (all zero with the model off):
    double dramAccesses = 0.0;
    double dramRowHits = 0.0;
    double dramRowMisses = 0.0;
    double dramRowConflicts = 0.0;
    double dramRowHitFraction = 0.0; ///< rowHits / accesses
    double dramStallCycles = 0.0;    ///< beyond-flat stall, summed

    std::vector<double> chipPackets;        ///< completed per chip
    std::vector<double> chipMakespanCycles; ///< makespan per chip
};

/** CardMetrics' fields in document order (common/fields.hh). */
inline constexpr auto kCardMetricsFields = [] {
    using M = CardMetrics;
    return std::tuple{
        Field{"makespan_cycles", &M::makespanCycles},
        Field{"throughput_pps", &M::throughputPps},
        Field{"load_imbalance", &M::loadImbalance},
        Field{"packets_processed", &M::packetsProcessed},
        Field{"ingress_drops", &M::ingressDrops},
        Field{"dram_accesses", &M::dramAccesses},
        Field{"dram_row_hits", &M::dramRowHits},
        Field{"dram_row_misses", &M::dramRowMisses},
        Field{"dram_row_conflicts", &M::dramRowConflicts},
        Field{"dram_row_hit_fraction", &M::dramRowHitFraction},
        Field{"dram_stall_cycles", &M::dramStallCycles},
        Field{"chip_packets", &M::chipPackets},
        Field{"chip_makespan_cycles", &M::chipMakespanCycles},
    };
}();

/** Everything one card run (golden or one faulty trial) produced. */
struct CardRunResult
{
    /** Per-chip streaming results, chip order. */
    std::vector<npu::ChipStreamResult> chips;

    CardMetrics card;

    /** FNV-1a fold of the chips' value digests, chip order. */
    std::uint64_t valueDigest = 0;

    /**
     * The deepest any chip's card-stream FIFO was during the run
     * (CardStream::peakDepth): host memory, not a modeled quantity.
     */
    std::size_t streamPeakDepth = 0;
};

/**
 * Run the whole card once, on the calling thread. @p golden runs
 * injection-free and panics if any chip dies; a faulty run injects
 * with trial seed @p trial on every chip.
 */
CardRunResult runCard(const core::AppFactory &factory,
                      const core::ExperimentConfig &config,
                      const npu::NpuConfig &npu, const CardConfig &card,
                      bool golden = true, unsigned trial = 0);

/** Componentwise mean, accumulated in the given (trial) order. */
CardMetrics averageCardMetrics(const std::vector<CardMetrics> &runs);

/**
 * The chips' merged metrics folded into single-core form (sums for
 * counters, packet-weighted means for per-packet rates) so the
 * experiment aggregation (core::aggregateTrials) applies unchanged —
 * the same contract the chip tier honours one level down.
 */
core::RunMetrics mergeCardRunMetrics(const CardRunResult &run);

/** Aggregated outcome of golden + trials on one card. */
struct CardExperimentResult
{
    CardRunResult golden;
    CardMetrics faultyCard; ///< componentwise mean over trials
    double fatalFraction = 0.0; ///< trials in which any chip died
};

/**
 * Golden + config.trials (>= 1, see ExperimentConfig::validate) faulty
 * card runs on min(CardConfig::cardJobs, trials + 1) workers, reduced
 * in trial order.
 */
CardExperimentResult runCardExperiment(const core::AppFactory &factory,
                                       const core::ExperimentConfig &config,
                                       const npu::NpuConfig &npu,
                                       const CardConfig &card);

} // namespace clumsy::linecard

#endif // CLUMSY_LINECARD_CARD_HH
