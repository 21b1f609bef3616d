#include "core/experiment.hh"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/logging.hh"
#include "traffic/traffic.hh"

namespace clumsy::core
{

namespace
{

/** FNV-1a over a byte range (the recorder's rolling digest). */
std::uint64_t
fnvBytes(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

std::string
to_string(FaultPlane plane)
{
    switch (plane) {
      case FaultPlane::ControlOnly:
        return "control plane";
      case FaultPlane::DataOnly:
        return "data plane";
      case FaultPlane::Both:
        return "both planes";
    }
    panic("unreachable fault plane");
}

void
ExperimentConfig::validate() const
{
    if (numPackets < 1)
        fatal("packets must be >= 1");
    if (trials < 1)
        fatal("trials must be >= 1");
    // Negated so a NaN scale is rejected too.
    if (!(faultScale >= 0.0))
        fatal("fault-scale must be >= 0, got %g", faultScale);
}

void
ValueRecorder::beginPacket()
{
    // A frame marker in the digest separates consecutive packets, so
    // moving a value across a frame boundary changes the digest even
    // though the byte stream of keys and values would not.
    const std::uint64_t mark = 0xf4a3e0ull;
    digest_ = fnvBytes(digest_, &mark, sizeof mark);
    ++framesBegun_;
    if (mode_ == Mode::Full)
        frameStart_.push_back(marks_.size());
}

void
ValueRecorder::record(const std::string &key, std::uint64_t value)
{
    CLUMSY_ASSERT(framesBegun_ > 0,
                  "record() before the first beginPacket()");
    digest_ = fnvBytes(digest_, key.data(), key.size());
    digest_ = fnvBytes(digest_, &value, sizeof value);
    if (mode_ == Mode::Full)
        marks_.emplace_back(key, value);
}

void
ValueRecorder::record(const char *key, std::uint64_t value)
{
    CLUMSY_ASSERT(framesBegun_ > 0,
                  "record() before the first beginPacket()");
    digest_ = fnvBytes(digest_, key, std::strlen(key));
    digest_ = fnvBytes(digest_, &value, sizeof value);
    if (mode_ == Mode::Full)
        marks_.emplace_back(key, value);
}

std::vector<std::string>
ValueRecorder::comparePacket(std::size_t idx,
                             const ValueRecorder &other) const
{
    return comparePacket(idx, other, idx);
}

std::span<const ValueRecorder::Mark>
ValueRecorder::frame(std::size_t idx) const
{
    const std::size_t end =
        idx + 1 < frameStart_.size() ? frameStart_[idx + 1] : marks_.size();
    return std::span<const Mark>(marks_).subspan(frameStart_[idx],
                                                 end - frameStart_[idx]);
}

std::vector<std::string>
ValueRecorder::comparePacket(std::size_t idx, const ValueRecorder &other,
                             std::size_t otherIdx) const
{
    CLUMSY_ASSERT(mode_ == Mode::Full && other.mode_ == Mode::Full,
                  "comparePacket() needs Full-mode recorders");
    CLUMSY_ASSERT(idx < frameStart_.size() &&
                      otherIdx < other.frameStart_.size(),
                  "packet frame out of range");
    const std::span<const Mark> myFrame = frame(idx);
    const std::span<const Mark> theirFrame = other.frame(otherIdx);
    // Values first: they differ far more often than keys do.
    if (std::equal(myFrame.begin(), myFrame.end(), theirFrame.begin(),
                   theirFrame.end(), [](const Mark &a, const Mark &b) {
                       return a.second == b.second && a.first == b.first;
                   }))
        return {};

    // Group the frame's values per key, preserving per-key order
    // (e.g. the sequence of radix-tree nodes traversed).
    auto group = [](std::span<const Mark> marks) {
        std::map<std::string, std::vector<std::uint64_t>> m;
        for (const auto &[key, value] : marks)
            m[key].push_back(value);
        return m;
    };
    const auto mine = group(myFrame);
    const auto theirs = group(theirFrame);

    std::vector<std::string> mismatched;
    for (const auto &kv : mine) {
        auto it = theirs.find(kv.first);
        if (it == theirs.end() || it->second != kv.second)
            mismatched.push_back(kv.first);
    }
    for (const auto &kv : theirs) {
        if (!mine.count(kv.first))
            mismatched.push_back(kv.first);
    }
    return mismatched;
}

ProcessorConfig
makeRunProcessorConfig(const ExperimentConfig &config, bool golden,
                       unsigned trial)
{
    ProcessorConfig pc = config.processor;
    pc.hierarchy.scheme = config.scheme;
    pc.staticCr = config.cr;
    pc.dynamicFrequency = !golden && config.dynamicFrequency;
    pc.injectionEnabled = false; // planes toggle it during the run
    // Decorrelate the fault streams of different operating points:
    // with a shared stream, any fault drawn at Cr = 1 recurs at every
    // faster clock (the thresholds nest), which would make rare fatal
    // events step identically across a whole sweep.
    pc.faultSeed = config.faultSeed + trial * 0x9e3779b9ull +
                   static_cast<std::uint64_t>(config.cr * 1e4) * 7919 +
                   static_cast<std::uint64_t>(config.scheme) * 104729 +
                   (config.dynamicFrequency ? 15485863 : 0);
    pc.faultModel.scale = config.faultScale;
    return pc;
}

net::TraceConfig
resolveTraceConfig(const ExperimentConfig &config, const PacketApp &app)
{
    net::TraceConfig tc = app.traceConfig();
    tc.seed = config.traceSeed;
    if (config.traceFlows != 0)
        tc.numFlows = config.traceFlows;
    if (config.churnLifetime != 0) {
        tc.churn.enabled = true;
        tc.churn.meanLifetimePackets =
            static_cast<double>(config.churnLifetime);
    }
    if (config.flowZipf >= 0.0)
        tc.flowZipf = config.flowZipf;
    return tc;
}

namespace
{

/** Outcome of one end-to-end run (golden or one faulty trial). */
struct RawRun
{
    RunMetrics metrics;
    ValueRecorder recorder;
    AccessCounts accesses;
};

RawRun
runOnce(const AppFactory &factory, const ExperimentConfig &config,
        bool golden, unsigned trial, const ValueRecorder *reference)
{
    RawRun run;
    auto app = factory();
    ClumsyProcessor proc(makeRunProcessorConfig(config, golden, trial));

    const bool injectControl =
        !golden && config.plane != FaultPlane::DataOnly;
    const bool injectData =
        !golden && config.plane != FaultPlane::ControlOnly;

    proc.setInjectionEnabled(injectControl);
    app->initialize(proc);
    run.accesses.afterInit = proc.injector().accessCount();

    // Per-packet costs are data-plane costs (the paper's "average
    // number of cycles spent for each packet"): snapshot the
    // control-plane expenditure so it never leaks into the per-packet
    // averages — vital for runs a fatal error truncates early, where
    // dividing one-time init cycles by a handful of packets would
    // dwarf every real effect.
    const double initCycles = proc.nowCycles();
    const double initEnergy = proc.totalEnergyPj();
    const double initL1d = proc.l1dEnergyPj();

    const net::TraceConfig trace = resolveTraceConfig(config, *app);
    const auto src = traffic::makeSource(trace, 0);

    // Control-plane churn stream (nullptr at rate 0). Golden and
    // faulty runs replay the identical schedule: the stream is seeded
    // from the trace seed, decorrelated by kCtrlSeedSalt.
    const auto ctrlSrc = ctrl::makeCtrlSource(config.ctrl, trace);

    proc.setInjectionEnabled(injectData);
    RunMetrics &m = run.metrics;
    m.packetsAttempted = config.numPackets;
    net::Packet pkt; // redrawn in place: the payload storage is reused
    for (std::uint64_t i = 0; i < config.numPackets; ++i) {
        src->nextInto(pkt);
        if (proc.fatalOccurred())
            break;
        // Apply every update scheduled before this packet, through
        // the timed (and, in faulty runs, injected) path: a fatal
        // during an update truncates the run exactly like a fatal
        // during forwarding.
        if (ctrlSrc) {
            while (const ctrl::CtrlEvent *ev = ctrlSrc->peek()) {
                if (ev->beforePacket > i)
                    break;
                if (app->applyCtrlEvent(proc, *ev))
                    ++m.ctrlEventsApplied;
                ctrlSrc->advance();
                if (proc.fatalOccurred())
                    break;
            }
            if (proc.fatalOccurred())
                break;
        }
        proc.beginPacket();
        run.recorder.beginPacket();
        app->processPacket(proc, pkt, run.recorder);
        if (proc.fatalOccurred())
            break;
        proc.endPacket();
        ++m.packetsProcessed;
        if (reference) {
            const auto bad = run.recorder.comparePacket(i, *reference);
            if (!bad.empty())
                ++m.packetsWithError;
            for (const auto &key : bad)
                ++m.errorsByType[key];
        }
    }

    m.fatal = proc.fatalOccurred();
    m.fatalReason = proc.fatalReason();
    const double processed =
        m.packetsProcessed > 0 ? static_cast<double>(m.packetsProcessed)
                               : 1.0;
    m.cyclesPerPacket = (proc.nowCycles() - initCycles) / processed;
    m.totalEnergyPj = proc.totalEnergyPj();
    m.energyPerPacketPj = (m.totalEnergyPj - initEnergy) / processed;
    m.l1dEnergyPj = proc.l1dEnergyPj() - initL1d;
    m.instructions = proc.instructions();
    m.dcacheAccesses = proc.hierarchy().stats().get("reads") +
                       proc.hierarchy().stats().get("writes");
    m.dcacheMissRate = proc.hierarchy().l1d().missRate();
    m.faultsInjected = proc.injector().faultCount();
    m.parityTrips = proc.hierarchy().stats().get("parity_trips");
    m.eccCorrections = proc.hierarchy().stats().get("ecc_corrections");
    m.freqSwitches =
        proc.freqController() ? proc.freqController()->switches() : 0;
    run.accesses.total = proc.injector().accessCount();
    return run;
}

} // namespace

GoldenRecord
runGolden(const AppFactory &factory, const ExperimentConfig &config)
{
    RawRun run = runOnce(factory, config, true, 0, nullptr);
    CLUMSY_ASSERT(!run.metrics.fatal, "golden run must not die");
    return GoldenRecord{std::move(run.metrics), std::move(run.recorder),
                        run.accesses};
}

bool
cleanTrial(const ExperimentConfig &config, unsigned trial,
           const GoldenRecord &golden)
{
    const ProcessorConfig pc = makeRunProcessorConfig(config, false, trial);
    if (!golden.accesses || pc.dynamicFrequency ||
        pc.faultMap.enabled() || pc.hierarchy.injectOnFill)
        return false;
    // Induction over the draws: while every draw so far was clean, the
    // trial's state equals the golden's, so its next injected access
    // is the golden's next access. The planes the trial injects draw
    // one value per access, in order from the seed.
    std::uint64_t draws = 0;
    if (config.plane != FaultPlane::DataOnly)
        draws += golden.accesses->afterInit;
    if (config.plane != FaultPlane::ControlOnly)
        draws += golden.accesses->total - golden.accesses->afterInit;
    fault::FaultInjector injector(fault::FaultModel(pc.faultModel),
                                  pc.faultSeed);
    injector.setCycleTime(pc.staticCr);
    return injector.drawsClean(draws);
}

RunMetrics
runFaultyTrial(const AppFactory &factory, const ExperimentConfig &config,
               unsigned trial, const GoldenRecord &golden)
{
    if (cleanTrial(config, trial, golden))
        return golden.metrics;
    return runOnce(factory, config, false, trial, &golden.recorder)
        .metrics;
}

ExperimentResult
aggregateTrials(const std::string &app, const GoldenRecord &golden,
                const std::vector<RunMetrics> &trials)
{
    CLUMSY_ASSERT(!trials.empty(), "need at least one trial");

    ExperimentResult result;
    result.app = app;
    result.golden = golden.metrics;

    double sumErrProb = 0, sumFatalFrac = 0;
    double sumFall = 0, sumCycles = 0, sumEnergy = 0, sumL1d = 0;
    double sumEdf = 0;
    std::uint64_t totalDeaths = 0, totalProcessed = 0;
    std::map<std::string, double> sumErrByType;

    for (const RunMetrics &m : trials) {
        result.faulty = m;

        sumErrProb += anyErrorProb(m);
        totalDeaths += m.fatal ? 1 : 0;
        totalProcessed += m.packetsProcessed;
        sumFatalFrac += m.fatal ? 1.0 : 0.0;
        sumFall += fallibility(m);
        sumCycles += m.cyclesPerPacket;
        sumEnergy += m.energyPerPacketPj;
        const double processed = m.packetsProcessed > 0
                                     ? static_cast<double>(
                                           m.packetsProcessed)
                                     : 1.0;
        sumL1d += m.l1dEnergyPj / processed;
        sumEdf += edfProduct(m);
        for (const auto &kv : m.errorsByType)
            sumErrByType[kv.first] += static_cast<double>(kv.second) /
                                      processed;
    }

    const double n = static_cast<double>(trials.size());
    result.anyErrorProb = sumErrProb / n;
    // Pooled per-packet fatal hazard: deaths over total exposure, a
    // stable estimator even when an unlucky trial dies immediately.
    result.fatalProb =
        totalProcessed > 0
            ? static_cast<double>(totalDeaths) /
                  static_cast<double>(totalProcessed)
            : (totalDeaths > 0 ? 1.0 : 0.0);
    result.fatalFraction = sumFatalFrac / n;
    result.fallibility = sumFall / n;
    result.cyclesPerPacket = sumCycles / n;
    result.energyPerPacketPj = sumEnergy / n;
    result.l1dEnergyPerPacketPj = sumL1d / n;
    result.edf = sumEdf / n;
    for (const auto &kv : sumErrByType)
        result.errorProbByType[kv.first] = kv.second / n;
    return result;
}

ExperimentResult
runExperiment(const AppFactory &factory, const ExperimentConfig &config)
{
    CLUMSY_ASSERT(config.trials >= 1, "need at least one trial");

    std::string app;
    {
        auto probe = factory();
        app = probe->name();
    }

    const GoldenRecord golden = runGolden(factory, config);
    std::vector<RunMetrics> trials;
    trials.reserve(config.trials);
    for (unsigned t = 0; t < config.trials; ++t)
        trials.push_back(runFaultyTrial(factory, config, t, golden));
    return aggregateTrials(app, golden, trials);
}

} // namespace clumsy::core
