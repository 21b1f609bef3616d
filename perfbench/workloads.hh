/**
 * @file
 * The benchmark's workloads and the checks behind failed_runs_frac.
 *
 * A workload is one fixed configuration of the simulator, generated
 * from the workload seed, and one unit of repeatable work ("rep")
 * driven through the library's public entry points:
 *
 *   paper-grid   sweep::runSweep over the paper's Figs. 9-12 grid
 *   chip-shared  npu::runChipExperiment on a 4-PE shared-L2 chip
 *   card-dram    linecard::runCard on 4 chips over an 8-bank DRAM
 *
 * Every rep builds fresh processors, so the modeled caches start
 * empty. The untraced rep gives the end-to-end metrics; the traced
 * rep redoes the same work through timed calls and must reproduce
 * the untraced rep's modeled outputs byte for byte.
 */

#ifndef CLUMSY_PERFBENCH_WORKLOADS_HH
#define CLUMSY_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "linecard/card.hh"
#include "npu/chip.hh"
#include "trace.hh"

namespace perfbench
{

/** Counts simulated runs and the runs implicated in failed checks. */
class Checks
{
  public:
    /** Count @p runs simulated runs as attempted. */
    void ran(std::uint64_t runs) { attempted_ += runs; }

    /**
     * Record one output check covering @p runs runs; a failure
     * counts them as failed and keeps @p what for the report.
     * @return @p ok.
     */
    bool expect(bool ok, std::uint64_t runs, const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/** Modeled end-to-end outputs of one rep (repeat exactly per seed). */
struct Modeled
{
    double cyclesPerPkt = 0.0; ///< golden cycles per packet
    /**
     * Trial-averaged ED^2F^2 of the faulty configurations over a
     * fault-free reference on the same trace, geometric mean over
     * the workload's experiments (robust to the rare trial whose
     * early fatal error inflates its per-packet figures).
     */
    double relEd2f2 = 0.0;
    double fallibility = 1.0;  ///< 1 + errorFrac
    double errorFrac = 0.0;    ///< packets with an application error
};

/** One rep of a workload. */
struct Rep
{
    double wallS = 0.0;      ///< host wall seconds
    double cpuS = 0.0;       ///< process CPU seconds, all threads
    double simPackets = 0.0; ///< packets simulated, all runs
    std::uint64_t runs = 0;  ///< golden runs + faulty trials
    Modeled model;
    std::string digest; ///< canonical text of every modeled output
};

/** Per-layer metric values, keyed by BENCHMARK.json name. */
using Layers = std::map<std::string, double>;

/** Thread counts a workload uses (recorded in the run manifest). */
struct Threads
{
    unsigned sweepJobs = 1;
    unsigned chipJobs = 1;
    unsigned cardJobs = 1;
};

/** What every workload shares. */
struct Context
{
    std::uint64_t seed = 1;
    unsigned nproc = 1;
    Tracer *tracer = nullptr;
    Checks *checks = nullptr;
};

/** A benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual Threads threads() const = 0;

    /**
     * Prepare the inputs: configurations plus one fresh processor and
     * table build (PacketApp::initialize) per application. Timed
     * several times for setup_s; leaves no state the reps depend on.
     */
    virtual void setup() = 0;

    /** One untraced rep. */
    virtual Rep run() = 0;

    /**
     * The same rep through timed calls, recording spans and filling
     * the layer metrics of the modules it drives: host times as the
     * median over the traced reps so far, modeled counters as one
     * rep's values, which every traced rep must repeat exactly.
     */
    virtual Rep runTraced(Layers &layers, int parentSpan) = 0;

    /**
     * The replica loop and the layer probes (twins, job-count
     * reruns) of the traced run.
     */
    virtual void measureLayers(Layers &layers, int parentSpan) = 0;

    /**
     * Rerun one configuration serially (or, for the serial chip
     * workload, threaded) and byte-compare it with @p threaded.
     */
    virtual void probeDeterminism(const Rep &threaded) = 0;

    /** The accuracy line: distance from the paper, or "unvalidated". */
    virtual std::string accuracy() const = 0;
};

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build a workload; nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Context &ctx);

/** Every per-layer metric name with its unit, BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>> &layerMetrics();

// Canonical, exact text forms of modeled outputs (doubles in %a).
std::string serialize(const clumsy::core::RunMetrics &m);
std::string serialize(const clumsy::core::ExperimentResult &r);
std::string serialize(const clumsy::npu::ChipMetrics &c);
std::string serialize(const clumsy::linecard::CardMetrics &c);

} // namespace perfbench

#endif // CLUMSY_PERFBENCH_WORKLOADS_HH
