/**
 * @file
 * Golden-vs-faulty experiment harness (paper Sections 2 and 5.2).
 *
 * Error measurement works exactly as in the paper: each application
 * marks the values of its important data structures while processing
 * each packet (checksums, TTLs, table entries, tree paths, digests).
 * The harness first runs the application fault-free on a seeded trace
 * (the golden run), then replays the identical trace with fault
 * injection enabled and compares the marked values packet by packet.
 * A packet whose marked values differ has an application error; a run
 * that trips a loop budget or dereferences a wild pointer has a fatal
 * error and stops, with per-packet quantities computed over the
 * packets completed before the death.
 */

#ifndef CLUMSY_CORE_EXPERIMENT_HH
#define CLUMSY_CORE_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/metrics.hh"
#include "core/processor.hh"
#include "ctrl/ctrl.hh"
#include "mem/recovery.hh"
#include "net/trace_gen.hh"

namespace clumsy::core
{

/** Which execution phases inject faults (paper Figures 6-7). */
enum class FaultPlane
{
    ControlOnly, ///< faults only during initialize()
    DataOnly,    ///< faults only during per-packet processing
    Both,
};

/** Human-readable plane name. */
std::string to_string(FaultPlane plane);

/**
 * Records the per-packet marked values of an application run.
 *
 * Full mode (the default) stores every frame so faulty trials can be
 * compared packet by packet. Digest mode stores nothing: frames fold
 * into a rolling 64-bit FNV-1a digest, so multi-million-packet
 * streaming runs (npu::runChipStream, bench/traffic_scale) keep peak
 * memory independent of packet count. Both modes maintain the digest
 * over identical bytes, so a Full recorder's digest() equals the
 * Digest recorder's for the same run.
 *
 * Full mode keeps one flat log: every frame's (key, value) marks back
 * to back in one vector, plus each frame's start offset. Recording a
 * mark appends to it — no per-packet container — and the workloads'
 * keys are short enough (<= 15 characters) to stay inside the
 * std::string small-buffer, so the steady state allocates only when
 * the log's capacity doubles.
 */
class ValueRecorder
{
  public:
    enum class Mode
    {
        Full,   ///< store frames (golden-vs-faulty comparison)
        Digest, ///< rolling digest only, O(1) memory
    };

    ValueRecorder() = default;
    explicit ValueRecorder(Mode mode) : mode_(mode) {}

    /** Start the frame for the next packet. */
    void beginPacket();

    /** Record one marked value under a stable key. */
    void record(const std::string &key, std::uint64_t value);

    /**
     * String-literal overload: workloads mark values with constant
     * keys on every packet, and in Digest mode the key bytes fold
     * straight into the rolling hash, so no std::string is
     * constructed per marked value. The digest is identical to the
     * std::string overload's for the same characters.
     */
    void record(const char *key, std::uint64_t value);

    /** Number of packet frames recorded. */
    std::size_t packetCount() const { return framesBegun_; }

    /** The mode this recorder runs in. */
    Mode mode() const { return mode_; }

    /** Rolling FNV-1a digest over frame marks, keys and values. */
    std::uint64_t digest() const { return digest_; }

    /**
     * Compare one packet frame against another recorder's same frame.
     * @return the keys whose value sequences differ (missing keys and
     * length mismatches count as differences), in key order: first
     * this frame's differing keys, then the keys only @p other has.
     *
     * Frames that are equal mark for mark — almost every packet of a
     * trial — return empty without grouping: equal frames group into
     * equal per-key sequences under any grouping, so the answer is
     * the one the full comparison would give. Only a frame that
     * differs is grouped per key.
     */
    std::vector<std::string> comparePacket(std::size_t idx,
                                           const ValueRecorder &other)
        const;

    /**
     * Compare my frame @p idx against @p other's frame @p otherIdx.
     * The multi-engine chip needs the general form: a packet's frame
     * index inside a PE-local recorder differs between runs when the
     * dispatcher interleaves packets differently.
     */
    std::vector<std::string> comparePacket(std::size_t idx,
                                           const ValueRecorder &other,
                                           std::size_t otherIdx) const;

  private:
    using Mark = std::pair<std::string, std::uint64_t>;

    /** Frame @p idx's marks (a view into marks_). */
    std::span<const Mark> frame(std::size_t idx) const;

    std::vector<Mark> marks_;             ///< Full mode: every frame's marks
    std::vector<std::size_t> frameStart_; ///< marks_ offset of each frame
    Mode mode_ = Mode::Full;
    std::size_t framesBegun_ = 0;
    std::uint64_t digest_ = 0xcbf29ce484222325ull; ///< FNV offset basis
};

/** Interface every NetBench-style workload implements. */
class PacketApp
{
  public:
    virtual ~PacketApp() = default;

    /** Short name ("route", "crc", ...). */
    virtual std::string name() const = 0;

    /** The trace shape this workload consumes. */
    virtual net::TraceConfig traceConfig() const
    {
        return net::TraceConfig{};
    }

    /**
     * Control-plane phase: build the long-lived structures in
     * simulated memory (routing tables, CRC table, ...).
     */
    virtual void initialize(ClumsyProcessor &proc) = 0;

    /**
     * Data-plane phase: process one packet, recording every marked
     * value. Implementations must bail out early when
     * proc.fatalOccurred() becomes true.
     */
    virtual void processPacket(ClumsyProcessor &proc,
                               const net::Packet &pkt,
                               ValueRecorder &rec) = 0;

    /**
     * Apply one control-plane event (src/ctrl/) between packets,
     * through the timed, faulty memory path. Workloads without an
     * updatable structure ignore the event. @return true when the
     * event was applied (counted in RunMetrics::ctrlEventsApplied).
     */
    virtual bool applyCtrlEvent(ClumsyProcessor &proc,
                                const ctrl::CtrlEvent &event)
    {
        (void)proc;
        (void)event;
        return false;
    }
};

/** Factory so the harness can run an app on fresh state repeatedly. */
using AppFactory = std::function<std::unique_ptr<PacketApp>()>;

/** One experiment's knobs. */
struct ExperimentConfig
{
    std::uint64_t numPackets = 1000;
    std::uint64_t traceSeed = 1;
    std::uint64_t faultSeed = 0x5eed;
    unsigned trials = 1; ///< faulty replays with seeds faultSeed+t

    double cr = 1.0;
    bool dynamicFrequency = false;
    mem::RecoveryScheme scheme = mem::RecoveryScheme::NoDetection;
    FaultPlane plane = FaultPlane::Both;

    /** Fault-rate multiplier (1 = the paper's rates). */
    double faultScale = 1.0;

    // Traffic-model overrides (sweep axes flows= / churn=; applied
    // over the app's own traceConfig() by resolveTraceConfig()):

    /**
     * Flow population override (0 = the app's default). Under churn
     * this is the *live* population; flows churn through it.
     */
    std::uint32_t traceFlows = 0;

    /**
     * Mean flow lifetime in packets; a nonzero value forces the churn
     * model on with this lifetime (0 = the app's own churn setting).
     */
    std::uint64_t churnLifetime = 0;

    /** Flow-popularity Zipf skew override (< 0 = the app's default). */
    double flowZipf = -1.0;

    /**
     * Control-plane churn stream (sweep axes ctrl= / updates=; CLI
     * --ctrl-rate / --ctrl-mix). rate 0 (the default) disables the
     * stream entirely, keeping runs bit-identical to builds that
     * predate the subsystem.
     */
    ctrl::CtrlConfig ctrl;

    /** Template for the processors built by the harness. */
    ProcessorConfig processor;

    /**
     * Reject degenerate run sizes and fault rates: fatal() unless
     * numPackets >= 1, trials >= 1 and faultScale >= 0. The CLIs and
     * the sweep grid both call this before any simulation.
     */
    void validate() const;
};

/** Aggregated outcome of one experiment (over all trials). */
struct ExperimentResult
{
    std::string app;
    RunMetrics golden;          ///< fault-free reference run
    RunMetrics faulty;          ///< last faulty trial (raw numbers)

    // Trial-averaged quantities:
    double anyErrorProb = 0.0;
    double fatalProb = 0.0; ///< mean per-packet fatal hazard
    double fatalFraction = 0.0; ///< fraction of trials that died
    double fallibility = 1.0;
    double cyclesPerPacket = 0.0;
    double energyPerPacketPj = 0.0;
    double l1dEnergyPerPacketPj = 0.0;
    double edf = 0.0; ///< energy*delay^2*fallibility^2, trial-avg
    std::map<std::string, double> errorProbByType;
};

/**
 * The trial-averaged ExperimentResult fields, in document order (the
 * "aggregate" object; golden and faulty_last are RunMetrics).
 */
inline constexpr auto kExperimentAggregateFields = [] {
    using R = ExperimentResult;
    return std::tuple{
        Field{"any_error_prob", &R::anyErrorProb},
        Field{"fatal_prob", &R::fatalProb},
        Field{"fatal_fraction", &R::fatalFraction},
        Field{"fallibility", &R::fallibility},
        Field{"cycles_per_packet", &R::cyclesPerPacket},
        Field{"energy_per_packet_pj", &R::energyPerPacketPj},
        Field{"l1d_energy_per_packet_pj", &R::l1dEnergyPerPacketPj},
        Field{"edf", &R::edf},
        Field{"error_prob_by_type", &R::errorProbByType},
    };
}();

/**
 * The L1D injector's access count of a golden run, read after
 * initialize() and at the end of the run.
 */
struct AccessCounts
{
    std::uint64_t afterInit = 0;
    std::uint64_t total = 0;
};

/**
 * The fault-free reference run: its metrics plus the per-packet marked
 * values every faulty trial is compared against. Immutable once built,
 * so any number of trials (of any number of cells) may share one
 * record concurrently.
 */
struct GoldenRecord
{
    RunMetrics metrics;
    ValueRecorder recorder;
    /**
     * Set by runGolden(). Records built from other harnesses' metrics
     * (the chip and card tiers) leave it empty, and no trial is
     * elided against them (cleanTrial()).
     */
    std::optional<AccessCounts> accesses = std::nullopt;
};

/**
 * Derive the processor configuration for one run of an experiment:
 * recovery scheme, Cr and the decorrelated per-(operating point,
 * trial) fault seed. Exposed so the multi-PE chip model (src/npu/)
 * builds its engines from exactly the seeds the single-core harness
 * would use — PE 0 of a one-engine chip must replay clumsy_sim
 * bit-for-bit.
 */
ProcessorConfig makeRunProcessorConfig(const ExperimentConfig &config,
                                       bool golden, unsigned trial);

/**
 * The trace configuration a run actually generates from: the app's
 * traceConfig() with the experiment's seed and traffic-model
 * overrides (flows / churn lifetime / flow Zipf) applied. Both
 * harnesses (single-core and chip) build their traffic::PacketSource
 * from this, so golden, faulty, sim and npu runs of one experiment
 * replay the identical stream.
 */
net::TraceConfig resolveTraceConfig(const ExperimentConfig &config,
                                    const PacketApp &app);

/** Execute the golden (injection-disabled) run for one experiment. */
GoldenRecord runGolden(const AppFactory &factory,
                       const ExperimentConfig &config);

/**
 * @return true when faulty trial @p trial of @p config provably draws
 * no fault, so it would replay @p golden access for access and end
 * with its metrics. Decided without simulating: while every draw is
 * clean a trial performs the golden's access sequence, so it is clean
 * exactly when its fault stream's first golden.accesses draws (those
 * of the planes it injects) all are. Always false when a draw count
 * could differ from the golden's: under dynamic frequency, a fault
 * map (one draw per weak cell), fill injection (skipped while
 * injection is off) or a record without access counts.
 */
bool cleanTrial(const ExperimentConfig &config, unsigned trial,
                const GoldenRecord &golden);

/**
 * Execute faulty trial number @p trial against a shared golden record.
 * Trials are independent given (config, trial): each derives its own
 * decorrelated fault seed, so they can run on any thread in any order.
 * A cleanTrial() returns the golden's metrics without simulating.
 */
RunMetrics runFaultyTrial(const AppFactory &factory,
                          const ExperimentConfig &config, unsigned trial,
                          const GoldenRecord &golden);

/**
 * Reduce per-trial metrics into the experiment aggregates. @p trials
 * must be ordered by trial index: the reduction accumulates in that
 * fixed order, so the result is bit-identical no matter which threads
 * produced the entries or when they completed.
 */
ExperimentResult aggregateTrials(const std::string &app,
                                 const GoldenRecord &golden,
                                 const std::vector<RunMetrics> &trials);

/** Run golden + faulty trials for one application, serially. */
ExperimentResult runExperiment(const AppFactory &factory,
                               const ExperimentConfig &config);

} // namespace clumsy::core

#endif // CLUMSY_CORE_EXPERIMENT_HH
