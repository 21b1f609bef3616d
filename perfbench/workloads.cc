#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "apps/app.hh"
#include "common/logging.hh"
#include "core/metrics.hh"
#include "replica.hh"
#include "stats.hh"
#include "sweep/runner.hh"
#include "sweep/spec.hh"

namespace perfbench
{

using namespace clumsy;

bool
Checks::expect(bool ok, std::uint64_t runs, const std::string &what)
{
    if (!ok) {
        failed_ += runs;
        failures_.push_back(what);
    }
    return ok;
}

// ---------------------------------------------------------------------
// Canonical text forms: every field, doubles as exact hex floats.

namespace
{

void
put(std::string &out, const char *key, double v)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s=%a;", key, v);
    out += buf;
}

void
put(std::string &out, const char *key, const std::vector<double> &v)
{
    out += key;
    out += "=[";
    for (const double x : v) {
        char buf[48];
        std::snprintf(buf, sizeof buf, "%a,", x);
        out += buf;
    }
    out += "];";
}

template <typename Map>
void
putMap(std::string &out, const char *key, const Map &m)
{
    out += key;
    out += "={";
    for (const auto &kv : m)
        put(out, kv.first.c_str(), static_cast<double>(kv.second));
    out += "};";
}

double
geomean(const std::vector<double> &v)
{
    double logSum = 0.0;
    for (const double x : v)
        logSum += std::log(x);
    return v.empty() ? 0.0 : std::exp(logSum / static_cast<double>(v.size()));
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/** Fault seed of a workload seed (decorrelated from the trace seed). */
std::uint64_t
faultSeedOf(std::uint64_t seed)
{
    return 0x5eed + seed * 0x9e3779b97f4a7c15ull;
}

/**
 * Chip-tier conservation: every attempted packet is processed or
 * counted as a drop (queue full, dead engine, ingress FIFO). Only
 * meaningful for runs without a fatal error.
 */
bool
conserved(const core::RunMetrics &m, const npu::ChipMetrics &c)
{
    return m.fatal ||
           static_cast<double>(m.packetsProcessed) + c.dropsQueueFull +
                   c.dropsDeadPe + c.ingressDrops ==
               static_cast<double>(m.packetsAttempted);
}

bool
goldenClean(const core::RunMetrics &m)
{
    return !m.fatal && m.packetsWithError == 0;
}

/** DRAM stat partition: every access is a row hit, miss or conflict. */
bool
dramPartitioned(const linecard::CardMetrics &c)
{
    return c.dramRowHits + c.dramRowMisses + c.dramRowConflicts ==
           c.dramAccesses;
}

} // namespace

std::string
serialize(const core::RunMetrics &m)
{
    std::string out;
    put(out, "attempted", static_cast<double>(m.packetsAttempted));
    put(out, "processed", static_cast<double>(m.packetsProcessed));
    put(out, "with_error", static_cast<double>(m.packetsWithError));
    put(out, "fatal", m.fatal ? 1.0 : 0.0);
    out += "fatal_reason=" + m.fatalReason + ";";
    put(out, "cycles_pp", m.cyclesPerPacket);
    put(out, "energy_pp", m.energyPerPacketPj);
    put(out, "energy", m.totalEnergyPj);
    put(out, "l1d_pj", m.l1dEnergyPj);
    put(out, "insts", static_cast<double>(m.instructions));
    put(out, "daccesses", static_cast<double>(m.dcacheAccesses));
    put(out, "dmiss", m.dcacheMissRate);
    put(out, "faults", static_cast<double>(m.faultsInjected));
    put(out, "parity", static_cast<double>(m.parityTrips));
    put(out, "ecc", static_cast<double>(m.eccCorrections));
    put(out, "fswitch", static_cast<double>(m.freqSwitches));
    put(out, "ctrl", static_cast<double>(m.ctrlEventsApplied));
    putMap(out, "errors", m.errorsByType);
    return out;
}

std::string
serialize(const core::ExperimentResult &r)
{
    std::string out = "app=" + r.app + ";golden{" + serialize(r.golden) +
                      "}faulty{" + serialize(r.faulty) + "}";
    put(out, "any_error", r.anyErrorProb);
    put(out, "fatal_prob", r.fatalProb);
    put(out, "fatal_frac", r.fatalFraction);
    put(out, "fall", r.fallibility);
    put(out, "cycles_pp", r.cyclesPerPacket);
    put(out, "energy_pp", r.energyPerPacketPj);
    put(out, "l1d_pp", r.l1dEnergyPerPacketPj);
    put(out, "edf", r.edf);
    putMap(out, "error_by_type", r.errorProbByType);
    return out;
}

std::string
serialize(const npu::ChipMetrics &c)
{
    std::string out;
    put(out, "makespan", c.makespanCycles);
    put(out, "pps", c.throughputPps);
    put(out, "imbalance", c.loadImbalance);
    put(out, "qocc_mean", c.queueOccMean);
    put(out, "qocc_max", c.queueOccMax);
    put(out, "drop_full", c.dropsQueueFull);
    put(out, "drop_dead", c.dropsDeadPe);
    put(out, "backpressure", c.backpressureStalls);
    put(out, "port_waits", c.l2PortWaits);
    put(out, "port_wait_cycles", c.l2PortWaitCycles);
    put(out, "ingress_drops", c.ingressDrops);
    put(out, "dram_req", c.dramRequests);
    put(out, "dram_stall", c.dramStallCycles);
    put(out, "xhits", c.crossEngineHits);
    put(out, "xhit_frac", c.crossEngineHitFraction);
    put(out, "evict_other", c.l2EvictionsByOther);
    put(out, "mshr_merges", c.mshrMerges);
    put(out, "chip_edf", c.chipEdf);
    put(out, "pe_util", c.peUtilization);
    put(out, "pe_pkts", c.pePackets);
    put(out, "pe_l2_hits", c.peL2Hits);
    put(out, "pe_l2_misses", c.peL2Misses);
    put(out, "pe_cr_final", c.peCrFinal);
    put(out, "pe_cr_mean", c.peCrMean);
    put(out, "pe_epochs", c.peEpochs);
    put(out, "pe_up", c.peStepsUp);
    put(out, "pe_down", c.peStepsDown);
    return out;
}

std::string
serialize(const linecard::CardMetrics &c)
{
    std::string out;
    put(out, "makespan", c.makespanCycles);
    put(out, "pps", c.throughputPps);
    put(out, "imbalance", c.loadImbalance);
    put(out, "processed", c.packetsProcessed);
    put(out, "ingress_drops", c.ingressDrops);
    put(out, "dram_acc", c.dramAccesses);
    put(out, "dram_hits", c.dramRowHits);
    put(out, "dram_misses", c.dramRowMisses);
    put(out, "dram_conflicts", c.dramRowConflicts);
    put(out, "dram_hit_frac", c.dramRowHitFraction);
    put(out, "dram_stall", c.dramStallCycles);
    put(out, "chip_pkts", c.chipPackets);
    put(out, "chip_makespan", c.chipMakespanCycles);
    return out;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper-grid", "chip-shared", "card-dram"};
    return names;
}

const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"sweep.cell_s", "s"},
        {"sweep.busy_frac", "frac"},
        {"sweep.straggler_s", "s"},
        {"apps.init_s", "s"},
        {"apps.process_s", "s"},
        {"apps.host_ns_per_pkt", "ns"},
        {"core.compare_s", "s"},
        {"core.run_s", "s"},
        {"core.runs", "count"},
        {"traffic.next_s", "s"},
        {"traffic.host_ns_per_pkt", "ns"},
        {"ctrl.apply_s", "s"},
        {"ctrl.events_applied", "count"},
        {"mem.l1d_accesses", "count"},
        {"mem.host_ns_per_access", "ns"},
        {"mem.l1d_miss_rate", "frac"},
        {"mem.l2_miss_rate", "frac"},
        {"mem.parity_trips", "count"},
        {"mem.strike_retries", "count"},
        {"mem.retry_frac", "frac"},
        {"fault.injected", "count"},
        {"fault.per_kaccess", "1/kaccess"},
        {"energy.l1d_pj_per_pkt", "pJ"},
        {"core.instructions", "count"},
        {"core.freq_switches", "count"},
        {"npu.run_s", "s"},
        {"npu.host_ns_per_pkt", "ns"},
        {"npu.tier_ns_per_pkt", "ns"},
        {"npu.l2_port_waits", "count"},
        {"npu.l2_port_wait_cycles", "cycles"},
        {"npu.backpressure_stalls", "count"},
        {"npu.queue_occ_mean", "pkts"},
        {"npu.mshr_merges", "count"},
        {"npu.cross_engine_hit_frac", "frac"},
        {"npu.load_imbalance", "ratio"},
        {"npu.pe_util_mean", "frac"},
        {"linecard.run_s", "s"},
        {"linecard.host_ns_per_pkt", "ns"},
        {"linecard.fabric_s", "s"},
        {"linecard.jobs_speedup", "x"},
        {"linecard.load_imbalance", "ratio"},
        {"dram.accesses", "count"},
        {"dram.row_hit_frac", "frac"},
        {"dram.row_conflicts", "count"},
        {"dram.stall_cycles", "cycles"},
        {"trace.overhead_frac", "frac"},
    };
    return m;
}

namespace
{

/** Build every app's tables once on a fresh processor (set-up work). */
void
buildTables(const std::string &app, const core::ExperimentConfig &cfg)
{
    auto instance = apps::makeApp(app);
    core::ClumsyProcessor proc(core::makeRunProcessorConfig(cfg, true, 0));
    instance->initialize(proc);
}

/**
 * The layer metrics of the traced reps. The number of traced reps
 * depends on host speed, so nothing is summed across them: host
 * times are the median over the reps so far, and modeled counters
 * are the first rep's, which every later rep must repeat exactly.
 */
class TracedReps
{
  public:
    explicit TracedReps(std::string workload) : workload_(std::move(workload))
    {
    }

    /** Fold one traced rep's figures into @p layers. */
    void add(const Layers &host, const Layers &modeled, Layers &layers,
             Checks &checks)
    {
        host_.push_back(host);
        for (const auto &[name, value] : host) {
            std::vector<double> values;
            for (const Layers &rep : host_)
                values.push_back(rep.at(name));
            layers[name] = median(values);
        }
        if (host_.size() == 1)
            modeled_ = modeled;
        checks.expect(modeled == modeled_, 0,
                      workload_ + ": traced rep " +
                          std::to_string(host_.size() - 1) +
                          " modeled layer counters differ from rep 0");
        for (const auto &[name, value] : modeled_)
            layers[name] = value;
    }

  private:
    std::string workload_;
    std::vector<Layers> host_;
    Layers modeled_;
};

// ---------------------------------------------------------------------
// paper-grid: Figs. 9-12 through sweep::runSweep.

/** The result of @p app's static-clock cell at (@p scheme, @p cr). */
const core::ExperimentResult &
staticCell(const sweep::SweepOutcome &outcome, const std::string &app,
           mem::RecoveryScheme scheme, double cr)
{
    for (const sweep::CellOutcome &out : outcome.cells) {
        if (out.cell.app == app && out.cell.scheme == scheme &&
            !out.cell.point.dynamic && out.cell.point.cr == cr)
            return out.result;
    }
    clumsy::panic("paper-grid has no cell %s/%g", app.c_str(), cr);
}

class PaperGrid final : public Workload
{
  public:
    explicit PaperGrid(const Context &ctx) : ctx_(ctx)
    {
        jobs_ = std::max(1u, ctx.nproc);
        spec_.apps = apps::allAppNames();
        spec_.points = {{1.0, false},
                        {0.75, false},
                        {0.5, false},
                        {0.25, false},
                        {1.0, true}};
        spec_.schemes.assign(std::begin(mem::kAllRecoverySchemes),
                             std::end(mem::kAllRecoverySchemes));
        spec_.packets = 240;
        spec_.trials = 3;
        spec_.traceSeed = ctx.seed;
        spec_.faultSeed = faultSeedOf(ctx.seed);
    }

    Threads threads() const override { return {jobs_, 1, 1}; }

    void setup() override
    {
        const std::vector<sweep::SweepCell> cells = sweep::expand(spec_);
        for (const std::string &app : spec_.apps)
            buildTables(app, sweep::makeConfig(spec_, cells.front()));
    }

    Rep run() override
    {
        const auto start = Clock::now();
        last_ = sweep::runSweep(spec_, jobs_);
        return summarize(last_, secondsSince(start));
    }

    Rep runTraced(Layers &layers, int parentSpan) override
    {
        Tracer &tracer = *ctx_.tracer;
        std::vector<double> cellS;
        const auto start = Clock::now();
        {
            const ScopedSpan span(tracer, "sweep.runSweep", parentSpan);
            const int sweepSpan = span.id();
            // A cell's wall is the sum of its golden and trial jobs,
            // which may have run on several workers; the span ends at
            // the cell's completion and is as long as that sum.
            const sweep::ProgressFn progress =
                [&](const sweep::SweepCell &cell, double wallMs,
                    std::size_t, std::size_t) {
                    cellS.push_back(wallMs / 1e3);
                    const double end = tracer.nowUs();
                    tracer.add("sweep.cell " + cell.key(),
                               end - wallMs * 1e3, end, sweepSpan);
                };
            last_ = sweep::runSweep(spec_, jobs_, nullptr, progress);
        }
        const double wall = secondsSince(start);
        double sum = 0.0;
        for (const double s : cellS)
            sum += s;
        traced_.add({{"sweep.cell_s", median(cellS)},
                     {"sweep.busy_frac", sum / (jobs_ * wall)},
                     {"sweep.straggler_s", wall - sum / jobs_}},
                    {}, layers, *ctx_.checks);
        return summarize(last_, wall);
    }

    void measureLayers(Layers &layers, int parentSpan) override
    {
        // The replica replays every app at the headline static point
        // and at the dynamic point, both with two-strike recovery.
        ReplicaStats stats;
        for (const std::string &app : spec_.apps) {
            for (const sweep::OperatingPoint point :
                 {sweep::OperatingPoint{0.5, false},
                  sweep::OperatingPoint{1.0, true}}) {
                sweep::SweepCell cell;
                cell.app = app;
                cell.point = point;
                cell.scheme = mem::RecoveryScheme::TwoStrike;
                replicateExperiment(cell.key(), apps::appFactory(app),
                                    sweep::makeConfig(spec_, cell), stats,
                                    *ctx_.tracer, *ctx_.checks,
                                    parentSpan);
            }
        }
        replicaLayers(stats, layers);
    }

    void probeDeterminism(const Rep &) override
    {
        sweep::SweepSpec one = spec_;
        one.apps = {spec_.apps[ctx_.seed % spec_.apps.size()]};
        one.points = {{0.5, false}};
        one.schemes = {mem::RecoveryScheme::TwoStrike};
        const sweep::SweepOutcome serial = sweep::runSweep(one, 1);
        ctx_.checks->ran(1 + one.trials);
        const sweep::CellOutcome &mine = serial.cells.front();
        bool same = false;
        for (const sweep::CellOutcome &out : last_.cells) {
            if (out.cell.key() == mine.cell.key())
                same = serialize(out.result) == serialize(mine.result);
        }
        ctx_.checks->expect(same, 1 + one.trials,
                            "paper-grid: jobs=1 rerun of " +
                                mine.cell.key() + " != jobs=" +
                                std::to_string(jobs_) + " run");
    }

    std::string accuracy() const override
    {
        // Figure 12(b) form: per app, ED^2F^2 of (two-strike, Cr 0.5)
        // over (no detection, Cr 1) from the trial-averaged energy,
        // delay and fallibility; then the mean over the apps.
        auto edf = [](const core::ExperimentResult &r) {
            return r.energyPerPacketPj * r.cyclesPerPacket *
                   r.cyclesPerPacket * r.fallibility * r.fallibility;
        };
        std::vector<double> rel;
        for (const std::string &app : spec_.apps)
            rel.push_back(
                edf(staticCell(last_, app, mem::RecoveryScheme::TwoStrike,
                               0.5)) /
                edf(staticCell(last_, app, mem::RecoveryScheme::NoDetection,
                               1.0)));
        const double ours = mean(rel);
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "all-app mean relative ED2F2 at Cr 0.5 + "
                      "two-strike = %.4f (paper: 0.76, a 24%% cut; "
                      "difference %+.4f)",
                      ours, ours - 0.76);
        return buf;
    }

  private:
    Context ctx_;
    unsigned jobs_ = 1;
    sweep::SweepSpec spec_;
    sweep::SweepOutcome last_;
    TracedReps traced_{"paper-grid"};

    Rep summarize(const sweep::SweepOutcome &outcome, double wall)
    {
        Rep rep;
        rep.wallS = wall;
        rep.runs = outcome.cells.size() * (1 + spec_.trials);
        rep.simPackets = static_cast<double>(rep.runs * spec_.packets);
        ctx_.checks->ran(rep.runs);
        std::vector<double> cycles, edfs, errors;
        for (const sweep::CellOutcome &out : outcome.cells) {
            const core::ExperimentResult &r = out.result;
            ctx_.checks->expect(goldenClean(r.golden), 1,
                                "paper-grid: golden run of " +
                                    out.cell.key() + " has errors");
            cycles.push_back(r.golden.cyclesPerPacket);
            // Relative to the app's (no detection, Cr 1) cell: the
            // paper's Figure 9-12 bars.
            edfs.push_back(r.edf /
                           staticCell(outcome, out.cell.app,
                                      mem::RecoveryScheme::NoDetection, 1.0)
                               .edf);
            errors.push_back(r.anyErrorProb);
            rep.digest += out.cell.key() + "|" + serialize(r) + "\n";
        }
        rep.model.cyclesPerPkt = mean(cycles);
        rep.model.relEd2f2 = geomean(edfs);
        rep.model.errorFrac = mean(errors);
        rep.model.fallibility = 1.0 + rep.model.errorFrac;
        return rep;
    }
};

// ---------------------------------------------------------------------
// chip-shared: a 4-PE shared-L2 chip through npu::runChipExperiment.

/** One experiment of a workload: an app on one trace instance. */
struct Instance
{
    std::string app;
    core::ExperimentConfig cfg;
    unsigned index = 0; ///< trace instance within the app
};

/**
 * Trace seed of instance @p k of a run with workload seed @p seed.
 * Chip and card figures depend on the trace far more than the
 * single-core ones do, so those workloads run several independent
 * traces per rep and report their mean.
 */
std::uint64_t
instanceSeed(std::uint64_t seed, unsigned k)
{
    return seed * 1000 + k;
}

class ChipShared final : public Workload
{
  public:
    explicit ChipShared(const Context &ctx) : ctx_(ctx)
    {
        npu_.peCount = 4;
        npu_.dispatch = npu::DispatchPolicy::FlowHash;
        npu_.mshrs = 4;
        npu_.dvs = npu::DvsMode::Queue;
        npu_.l2 = npu::L2Mode::Shared;
        npu_.chipJobs = 1;
        const unsigned traces = 16;
        for (const std::string app : {"nat", "session"}) {
            for (unsigned k = 0; k < traces; ++k) {
                Instance in{app, {}, k};
                core::ExperimentConfig &cfg = in.cfg;
                cfg.numPackets = 400;
                cfg.trials = 2;
                cfg.traceSeed = instanceSeed(ctx.seed, k);
                cfg.faultSeed = faultSeedOf(cfg.traceSeed);
                cfg.cr = 0.5;
                cfg.scheme = mem::RecoveryScheme::TwoStrike;
                cfg.processor.hierarchy.scheme = cfg.scheme;
                if (app == "session")
                    cfg.churnLifetime = 512; // flow churn through the table
                instances_.push_back(in);
            }
        }
    }

    Threads threads() const override { return {1, npu_.chipJobs, 1}; }

    void setup() override
    {
        for (const Instance &in : instances_) {
            if (in.index != 0)
                continue;
            npu_.validate(in.cfg.processor.hierarchy);
            buildTables(in.app, in.cfg);
        }
    }

    Rep run() override
    {
        const auto start = Clock::now();
        last_.clear();
        for (const Instance &in : instances_)
            last_.push_back(npu::runChipExperiment(apps::appFactory(in.app),
                                                   in.cfg, npu_));
        return summarize(last_, secondsSince(start));
    }

    Rep runTraced(Layers &layers, int parentSpan) override
    {
        Tracer &tracer = *ctx_.tracer;
        Checks &checks = *ctx_.checks;
        Timer npuTimer;
        double packets = 0.0;
        ChipCounters counters;
        const auto start = Clock::now();
        last_.clear();
        for (const Instance &in : instances_) {
            const ScopedSpan expSpan(tracer, "npu.experiment " + in.app,
                                     parentSpan);
            const core::AppFactory factory = apps::appFactory(in.app);
            const core::ExperimentConfig &cfg = in.cfg;

            // runChipExperiment's body at chip-jobs 1, call for call.
            auto timedRun = [&](bool golden, unsigned t,
                                const npu::ChipRun *ref) {
                const int runId = tracer.newRun();
                const ScopedSpan span(tracer,
                                      golden ? "npu.golden" : "npu.trial",
                                      expSpan.id(), runId);
                npu::ChipRun r = npuTimer.time([&] {
                    return golden ? npu::runChipGolden(factory, cfg, npu_)
                                  : npu::runChipTrial(factory, cfg, npu_, t,
                                                      *ref);
                });
                packets += static_cast<double>(cfg.numPackets);
                checks.expect(conserved(r.merged, r.chip), 1,
                              "chip-shared: " + in.app +
                                  " run breaks packet conservation");
                counters.add(r.chip);
                return r;
            };
            const npu::ChipRun golden = timedRun(true, 0, nullptr);
            std::vector<core::RunMetrics> trials;
            std::vector<npu::ChipMetrics> chips;
            for (unsigned t = 0; t < cfg.trials; ++t) {
                npu::ChipRun r = timedRun(false, t, &golden);
                trials.push_back(std::move(r.merged));
                chips.push_back(std::move(r.chip));
            }
            npu::ChipExperimentResult res;
            res.core = core::aggregateTrials(
                factory()->name(), core::GoldenRecord{golden.merged, {}},
                trials);
            res.goldenChip = golden.chip;
            res.faultyChip = npu::averageChipMetrics(chips);
            last_.push_back(std::move(res));
        }
        const double wall = secondsSince(start);
        traced_.add({{"npu.run_s", npuTimer.seconds},
                     {"npu.host_ns_per_pkt",
                      npuTimer.seconds * 1e9 / std::max(1.0, packets)}},
                    counters.layers(), layers, checks);
        return summarize(last_, wall);
    }

    void measureLayers(Layers &layers, int parentSpan) override
    {
        // The replica replays each app's first trace on one core.
        ReplicaStats stats;
        for (const Instance &in : instances_) {
            if (in.index == 0)
                replicateExperiment(in.app + " single-core",
                                    apps::appFactory(in.app), in.cfg, stats,
                                    *ctx_.tracer, *ctx_.checks, parentSpan);
        }
        replicaLayers(stats, layers);
        layers["npu.tier_ns_per_pkt"] =
            layers["npu.host_ns_per_pkt"] - stats.nsPerPacket();
    }

    void probeDeterminism(const Rep &) override
    {
        // The workload runs chip-jobs 1; the probe reruns one
        // experiment at chip-jobs = nproc, which must not change a byte.
        const std::size_t i = ctx_.seed % instances_.size();
        const Instance &in = instances_[i];
        npu::NpuConfig threaded = npu_;
        threaded.chipJobs = std::max(1u, ctx_.nproc);
        const npu::ChipExperimentResult r = npu::runChipExperiment(
            apps::appFactory(in.app), in.cfg, threaded);
        const std::uint64_t runs = 1 + in.cfg.trials;
        ctx_.checks->ran(runs);
        ctx_.checks->expect(text(r) == text(last_[i]), runs,
                            "chip-shared: " + in.app + " at chip-jobs " +
                                std::to_string(threaded.chipJobs) +
                                " != chip-jobs 1");
    }

    std::string accuracy() const override
    {
        return "unvalidated: no reference (the paper models one core)";
    }

  private:
    Context ctx_;
    std::vector<Instance> instances_;
    npu::NpuConfig npu_;
    std::vector<npu::ChipExperimentResult> last_;

    TracedReps traced_{"chip-shared"};

    /** The modeled chip counters of one traced rep, over its runs. */
    struct ChipCounters
    {
        double runs = 0.0, portWaits = 0.0, portWaitCycles = 0.0;
        double backpressure = 0.0, mshrMerges = 0.0, queueOcc = 0.0;
        double crossHitFrac = 0.0, imbalance = 0.0, peUtil = 0.0;

        void add(const npu::ChipMetrics &c)
        {
            runs += 1.0;
            portWaits += c.l2PortWaits;
            portWaitCycles += c.l2PortWaitCycles;
            backpressure += c.backpressureStalls;
            mshrMerges += c.mshrMerges;
            queueOcc += c.queueOccMean;
            crossHitFrac += c.crossEngineHitFraction;
            imbalance += c.loadImbalance;
            peUtil += mean(c.peUtilization);
        }

        Layers layers() const
        {
            const double n = std::max(1.0, runs);
            return {{"npu.l2_port_waits", portWaits},
                    {"npu.l2_port_wait_cycles", portWaitCycles},
                    {"npu.backpressure_stalls", backpressure},
                    {"npu.mshr_merges", mshrMerges},
                    {"npu.queue_occ_mean", queueOcc / n},
                    {"npu.cross_engine_hit_frac", crossHitFrac / n},
                    {"npu.load_imbalance", imbalance / n},
                    {"npu.pe_util_mean", peUtil / n}};
        }
    };

    static std::string text(const npu::ChipExperimentResult &r)
    {
        return serialize(r.core) + "|golden{" + serialize(r.goldenChip) +
               "}faulty{" + serialize(r.faultyChip) + "}";
    }

    Rep summarize(const std::vector<npu::ChipExperimentResult> &results,
                  double wall)
    {
        Rep rep;
        rep.wallS = wall;
        std::vector<double> cycles, edfs, errors;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const npu::ChipExperimentResult &r = results[i];
            const Instance &in = instances_[i];
            const std::uint64_t runs = 1 + in.cfg.trials;
            const std::string what =
                "chip-shared: " + in.app + " trace " +
                std::to_string(in.index) + " ";
            rep.runs += runs;
            rep.simPackets += static_cast<double>(runs * in.cfg.numPackets);
            ctx_.checks->ran(runs);
            ctx_.checks->expect(goldenClean(r.core.golden), 1,
                                what + "golden run has errors");
            ctx_.checks->expect(conserved(r.core.golden, r.goldenChip), 1,
                                what + "golden breaks packet conservation");
            if (r.core.fatalFraction == 0.0) {
                // The trial means conserve when every trial does.
                double processed = 0.0;
                for (const double p : r.faultyChip.pePackets)
                    processed += p;
                const double accounted =
                    processed + r.faultyChip.dropsQueueFull +
                    r.faultyChip.dropsDeadPe + r.faultyChip.ingressDrops;
                ctx_.checks->expect(
                    std::fabs(accounted -
                              static_cast<double>(in.cfg.numPackets)) < 1e-6,
                    in.cfg.trials,
                    what + "trials break packet conservation");
            }
            cycles.push_back(r.goldenChip.makespanCycles /
                             static_cast<double>(std::max<std::uint64_t>(
                                 1, r.core.golden.packetsProcessed)));
            edfs.push_back(r.faultyChip.chipEdf / r.goldenChip.chipEdf);
            errors.push_back(r.core.anyErrorProb);
            rep.digest += text(r) + "\n";
        }
        rep.model.cyclesPerPkt = mean(cycles);
        rep.model.relEd2f2 = geomean(edfs);
        rep.model.errorFrac = mean(errors);
        rep.model.fallibility = 1.0 + rep.model.errorFrac;
        return rep;
    }
};

// ---------------------------------------------------------------------
// card-dram: 4 chips x 2 PEs over an 8-bank DRAM through
// linecard::runCard (runCardExperiment's body: it returns only trial
// means, and the card ED^2F^2 needs each trial's merged metrics).

class CardDram final : public Workload
{
  public:
    explicit CardDram(const Context &ctx) : ctx_(ctx)
    {
        const unsigned traces = 6;
        for (unsigned k = 0; k < traces; ++k) {
            core::ExperimentConfig cfg;
            cfg.numPackets = 600;
            cfg.trials = 2;
            cfg.traceSeed = instanceSeed(ctx.seed, k);
            cfg.faultSeed = faultSeedOf(cfg.traceSeed);
            cfg.cr = 0.5;
            cfg.scheme = mem::RecoveryScheme::TwoStrike;
            cfg.processor.hierarchy.scheme = cfg.scheme;
            cfg.ctrl.rate = 100; // FIB updates per 1000 packets
            cfg.ctrl.mix = ctrl::CtrlMix::Fib;
            cfgs_.push_back(cfg);
        }
        npu_.peCount = 2;
        card_.chips = 4;
        card_.dispatch = npu::DispatchPolicy::RoundRobin;
        card_.dram.banks = 8;
        card_.cardJobs = std::clamp(ctx.nproc, 1u, card_.chips);
    }

    Threads threads() const override { return {1, 1, card_.cardJobs}; }

    void setup() override
    {
        card_.validate();
        card_.dram.validate();
        npu_.validate(cfgs_.front().processor.hierarchy);
        buildTables(app_, cfgs_.front());
    }

    Rep run() override
    {
        const auto start = Clock::now();
        const core::AppFactory factory = apps::appFactory(app_);
        last_.clear();
        for (const core::ExperimentConfig &cfg : cfgs_) {
            for (unsigned t = 0; t <= cfg.trials; ++t)
                last_.push_back(linecard::runCard(factory, cfg, npu_, card_,
                                                  t == 0, t == 0 ? 0 : t - 1));
        }
        return summarize(last_, secondsSince(start));
    }

    Rep runTraced(Layers &layers, int parentSpan) override
    {
        Tracer &tracer = *ctx_.tracer;
        const core::AppFactory factory = apps::appFactory(app_);
        Timer cardTimer;
        double packets = 0.0, runs = 0.0, imbalance = 0.0;
        double accesses = 0.0, hits = 0.0, conflicts = 0.0, stall = 0.0;
        const auto start = Clock::now();
        last_.clear();
        for (const core::ExperimentConfig &cfg : cfgs_) {
            const ScopedSpan span(tracer, "linecard.experiment",
                                  parentSpan);
            for (unsigned t = 0; t <= cfg.trials; ++t) {
                const int runId = tracer.newRun();
                const ScopedSpan runSpan(
                    tracer, t == 0 ? "linecard.golden" : "linecard.trial",
                    span.id(), runId);
                const auto runStart = Clock::now();
                last_.push_back(cardTimer.time([&] {
                    return linecard::runCard(factory, cfg, npu_, card_,
                                             t == 0, t == 0 ? 0 : t - 1);
                }));
                if (t == 0 && &cfg == &cfgs_.front())
                    goldenS_.push_back(secondsSince(runStart));
                packets += static_cast<double>(cfg.numPackets);
                const linecard::CardMetrics &c = last_.back().card;
                runs += 1.0;
                imbalance += c.loadImbalance;
                accesses += c.dramAccesses;
                hits += c.dramRowHits;
                conflicts += c.dramRowConflicts;
                stall += c.dramStallCycles;
            }
        }
        const double wall = secondsSince(start);
        traced_.add({{"linecard.run_s", cardTimer.seconds},
                     {"linecard.host_ns_per_pkt",
                      cardTimer.seconds * 1e9 / std::max(1.0, packets)}},
                    {{"linecard.load_imbalance",
                      imbalance / std::max(1.0, runs)},
                     {"dram.accesses", accesses},
                     {"dram.row_hit_frac",
                      accesses > 0.0 ? hits / accesses : 0.0},
                     {"dram.row_conflicts", conflicts},
                     {"dram.stall_cycles", stall}},
                    layers, *ctx_.checks);
        return summarize(last_, wall);
    }

    void measureLayers(Layers &layers, int parentSpan) override
    {
        Tracer &tracer = *ctx_.tracer;
        ReplicaStats stats;
        replicateExperiment(app_ + " single-core", apps::appFactory(app_),
                            cfgs_.front(), stats, tracer, *ctx_.checks,
                            parentSpan);
        replicaLayers(stats, layers);

        // Host-time twins of the first trace's golden card run: the
        // DRAM model off (banks = 0) and one card job. Each is timed
        // as often as the traced golden run was; medians are compared.
        linecard::CardConfig noDram = card_;
        noDram.dram.banks = 0;
        linecard::CardConfig serial = card_;
        serial.cardJobs = 1;
        const std::vector<double> noDramS =
            timeGolden(noDram, "linecard.golden banks=0", parentSpan);
        const std::vector<double> serialS =
            timeGolden(serial, "linecard.golden card-jobs=1", parentSpan);
        layers["linecard.fabric_s"] = median(goldenS_) - median(noDramS);
        layers["linecard.jobs_speedup"] =
            median(serialS) / std::max(1e-9, median(goldenS_));
    }

    void probeDeterminism(const Rep &) override
    {
        linecard::CardConfig serial = card_;
        serial.cardJobs = 1;
        const core::AppFactory factory = apps::appFactory(app_);
        const core::ExperimentConfig &cfg = cfgs_.front();
        const linecard::CardRunResult golden =
            linecard::runCard(factory, cfg, npu_, serial, true, 0);
        const linecard::CardRunResult trial =
            linecard::runCard(factory, cfg, npu_, serial, false, 0);
        ctx_.checks->ran(2);
        ctx_.checks->expect(text(golden) == text(last_[0]) &&
                                text(trial) == text(last_[1]),
                            2,
                            "card-dram: card-jobs 1 rerun != card-jobs " +
                                std::to_string(card_.cardJobs) + " run");
    }

    std::string accuracy() const override
    {
        return "unvalidated: no reference (the paper models one core)";
    }

  private:
    Context ctx_;
    const std::string app_ = "lpm";
    std::vector<core::ExperimentConfig> cfgs_; ///< one per trace
    npu::NpuConfig npu_;
    linecard::CardConfig card_;
    /** Golden then trials, trace by trace. */
    std::vector<linecard::CardRunResult> last_;

    TracedReps traced_{"card-dram"};
    std::vector<double> goldenS_; ///< first trace's golden run, traced

    std::vector<double> timeGolden(const linecard::CardConfig &card,
                                   const std::string &name, int parentSpan)
    {
        std::vector<double> seconds;
        const core::AppFactory factory = apps::appFactory(app_);
        const std::size_t reps = std::max<std::size_t>(goldenS_.size(), 1);
        for (std::size_t i = 0; i < reps; ++i) {
            const ScopedSpan span(*ctx_.tracer, name, parentSpan,
                                  ctx_.tracer->newRun());
            const auto start = Clock::now();
            const linecard::CardRunResult r = linecard::runCard(
                factory, cfgs_.front(), npu_, card, true, 0);
            seconds.push_back(secondsSince(start));
            check(r, true);
        }
        return seconds;
    }

    /** Per-run checks; @return the run's merged metrics. */
    core::RunMetrics check(const linecard::CardRunResult &r, bool golden)
    {
        Checks &checks = *ctx_.checks;
        checks.ran(1);
        const core::RunMetrics merged = linecard::mergeCardRunMetrics(r);
        if (golden)
            checks.expect(goldenClean(merged), 1,
                          "card-dram: golden run has errors");
        checks.expect(dramPartitioned(r.card), 1,
                      "card-dram: DRAM hits + misses + conflicts != "
                      "accesses");
        for (const npu::ChipStreamResult &chip : r.chips)
            checks.expect(conserved(chip.merged, chip.chip), 1,
                          "card-dram: a chip breaks packet conservation");
        return merged;
    }

    static std::string text(const linecard::CardRunResult &r)
    {
        char digest[32];
        std::snprintf(digest, sizeof digest, "%016llx",
                      static_cast<unsigned long long>(r.valueDigest));
        return serialize(r.card) + "|" +
               serialize(linecard::mergeCardRunMetrics(r)) + "|" + digest;
    }

    Rep summarize(const std::vector<linecard::CardRunResult> &runs,
                  double wall)
    {
        Rep rep;
        rep.wallS = wall;
        rep.runs = runs.size();
        std::vector<double> cycles, edfs, errors;
        std::size_t i = 0;
        for (const core::ExperimentConfig &cfg : cfgs_) {
            const linecard::CardRunResult &golden = runs[i];
            const double goldenEdf =
                core::edfProduct(check(golden, true));
            rep.digest += text(golden) + "\n";
            cycles.push_back(golden.card.makespanCycles /
                             std::max(1.0, golden.card.packetsProcessed));
            std::vector<double> trialEdfs;
            for (unsigned t = 1; t <= cfg.trials; ++t) {
                const core::RunMetrics merged = check(runs[i + t], false);
                trialEdfs.push_back(core::edfProduct(merged) / goldenEdf);
                errors.push_back(core::anyErrorProb(merged));
                rep.digest += text(runs[i + t]) + "\n";
            }
            edfs.push_back(mean(trialEdfs));
            rep.simPackets +=
                static_cast<double>((1 + cfg.trials) * cfg.numPackets);
            i += 1 + cfg.trials;
        }
        rep.model.cyclesPerPkt = mean(cycles);
        rep.model.relEd2f2 = geomean(edfs);
        rep.model.errorFrac = mean(errors);
        rep.model.fallibility = 1.0 + rep.model.errorFrac;
        return rep;
    }
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Context &ctx)
{
    if (name == "paper-grid")
        return std::make_unique<PaperGrid>(ctx);
    if (name == "chip-shared")
        return std::make_unique<ChipShared>(ctx);
    if (name == "card-dram")
        return std::make_unique<CardDram>(ctx);
    return nullptr;
}

} // namespace perfbench
