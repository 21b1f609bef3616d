#include "replica.hh"

#include "core/processor.hh"
#include "ctrl/ctrl.hh"
#include "traffic/traffic.hh"

namespace perfbench
{

using namespace clumsy;

namespace
{

struct ReplicaRun
{
    core::RunMetrics metrics;
    core::ValueRecorder recorder;
};

double
stat(const StatGroup &group, const char *key)
{
    return static_cast<double>(group.get(key));
}

/**
 * core::runOnce, call for call, with each call into a module timed.
 * Any change here that alters the order or arguments of a call shows
 * up as a replica mismatch.
 */
ReplicaRun
replicaRun(const core::AppFactory &factory,
           const core::ExperimentConfig &config, bool golden,
           unsigned trial, const core::ValueRecorder *reference,
           ReplicaStats &stats, Tracer &tracer, int parentSpan)
{
    const int runId = tracer.newRun();
    const ScopedSpan runSpan(tracer, golden ? "core.golden" : "core.trial",
                             parentSpan, runId);
    const auto runStart = Clock::now();

    ReplicaRun run;
    auto app = factory();
    core::ClumsyProcessor proc(
        core::makeRunProcessorConfig(config, golden, trial));

    const bool injectControl =
        !golden && config.plane != core::FaultPlane::DataOnly;
    const bool injectData =
        !golden && config.plane != core::FaultPlane::ControlOnly;

    proc.setInjectionEnabled(injectControl);
    {
        const ScopedSpan span(tracer, "apps.initialize", runSpan.id(),
                              runId);
        stats.init.time([&] { app->initialize(proc); });
    }

    const double initCycles = proc.nowCycles();
    const double initEnergy = proc.totalEnergyPj();
    const double initL1d = proc.l1dEnergyPj();

    const net::TraceConfig trace = core::resolveTraceConfig(config, *app);
    const auto src = traffic::makeSource(trace, 0);
    const auto ctrlSrc = ctrl::makeCtrlSource(config.ctrl, trace);

    proc.setInjectionEnabled(injectData);
    core::RunMetrics &m = run.metrics;
    m.packetsAttempted = config.numPackets;
    {
        const ScopedSpan span(tracer, "core.packet_loop", runSpan.id(),
                              runId);
        for (std::uint64_t i = 0; i < config.numPackets; ++i) {
            const net::Packet pkt = stats.next.time([&] {
                return src->next();
            });
            if (proc.fatalOccurred())
                break;
            if (ctrlSrc) {
                while (const ctrl::CtrlEvent *ev = ctrlSrc->peek()) {
                    if (ev->beforePacket > i)
                        break;
                    if (stats.ctrl.time([&] {
                            return app->applyCtrlEvent(proc, *ev);
                        }))
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
            stats.process.time(
                [&] { app->processPacket(proc, pkt, run.recorder); });
            if (proc.fatalOccurred())
                break;
            proc.endPacket();
            ++m.packetsProcessed;
            if (reference) {
                const auto bad = stats.compare.time([&] {
                    return run.recorder.comparePacket(i, *reference);
                });
                if (!bad.empty())
                    ++m.packetsWithError;
                for (const auto &key : bad)
                    ++m.errorsByType[key];
            }
        }
    }

    m.fatal = proc.fatalOccurred();
    m.fatalReason = proc.fatalReason();
    const double processed =
        m.packetsProcessed > 0 ? static_cast<double>(m.packetsProcessed)
                               : 1.0;
    const StatGroup &hier = proc.hierarchy().stats();
    m.cyclesPerPacket = (proc.nowCycles() - initCycles) / processed;
    m.totalEnergyPj = proc.totalEnergyPj();
    m.energyPerPacketPj = (m.totalEnergyPj - initEnergy) / processed;
    m.l1dEnergyPj = proc.l1dEnergyPj() - initL1d;
    m.instructions = proc.instructions();
    m.dcacheAccesses = hier.get("reads") + hier.get("writes");
    m.dcacheMissRate = proc.hierarchy().l1d().missRate();
    m.faultsInjected = proc.injector().faultCount();
    m.parityTrips = hier.get("parity_trips");
    m.eccCorrections = hier.get("ecc_corrections");
    m.freqSwitches =
        proc.freqController() ? proc.freqController()->switches() : 0;
    stats.run.seconds += secondsSince(runStart);
    ++stats.run.calls;

    // Module counters, read through their public accessors.
    const auto accesses = static_cast<double>(m.dcacheAccesses);
    stats.packets += m.packetsProcessed;
    stats.ctrlEvents += m.ctrlEventsApplied;
    stats.l1dAccesses += accesses;
    stats.l1dReads += stat(hier, "reads");
    stats.l1dHits += stat(proc.hierarchy().l1d().stats(), "hits");
    stats.l1dMisses += stat(proc.hierarchy().l1d().stats(), "misses");
    stats.l2Hits += stat(proc.hierarchy().l2().stats(), "hits");
    stats.l2Misses += stat(proc.hierarchy().l2().stats(), "misses");
    stats.parityTrips += static_cast<double>(m.parityTrips);
    stats.strikeRetries += stat(hier, "strike_retries");
    if (!golden) {
        stats.faultyAccesses += accesses;
        stats.faultsInjected += static_cast<double>(m.faultsInjected);
    }
    stats.l1dPj += m.l1dEnergyPj;
    stats.instructions += static_cast<double>(m.instructions);
    stats.freqSwitches += static_cast<double>(m.freqSwitches);
    return run;
}

} // namespace

void
replicateExperiment(const std::string &label,
                    const core::AppFactory &factory,
                    const core::ExperimentConfig &config,
                    ReplicaStats &stats, Tracer &tracer, Checks &checks,
                    int parentSpan)
{
    const ScopedSpan span(tracer, "replica " + label, parentSpan);

    const core::GoldenRecord reference = core::runGolden(factory, config);
    ReplicaRun golden =
        replicaRun(factory, config, true, 0, nullptr, stats, tracer,
                   span.id());
    checks.ran(2);
    checks.expect(serialize(golden.metrics) ==
                      serialize(reference.metrics),
                  2, label + ": replica golden metrics != runGolden");
    checks.expect(golden.recorder.digest() ==
                      reference.recorder.digest(),
                  2, label + ": replica golden digest != runGolden");
    checks.expect(!golden.metrics.fatal &&
                      golden.metrics.packetsWithError == 0,
                  1, label + ": replica golden run has errors");

    for (unsigned t = 0; t < config.trials; ++t) {
        const core::RunMetrics want =
            core::runFaultyTrial(factory, config, t, reference);
        const ReplicaRun got =
            replicaRun(factory, config, false, t, &golden.recorder, stats,
                       tracer, span.id());
        checks.ran(2);
        checks.expect(serialize(got.metrics) == serialize(want), 2,
                      label + ": replica trial " + std::to_string(t) +
                          " != runFaultyTrial");
    }
}

void
replicaLayers(const ReplicaStats &s, Layers &layers)
{
    const double packets = static_cast<double>(s.packets);
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    layers["apps.init_s"] = s.init.seconds;
    layers["apps.process_s"] = s.process.seconds;
    layers["apps.host_ns_per_pkt"] = ratio(s.process.seconds * 1e9, packets);
    layers["core.compare_s"] = s.compare.seconds;
    layers["core.run_s"] = s.run.seconds;
    layers["core.runs"] = static_cast<double>(s.run.calls);
    layers["traffic.next_s"] = s.next.seconds;
    layers["traffic.host_ns_per_pkt"] =
        ratio(s.next.seconds * 1e9, static_cast<double>(s.next.calls));
    layers["ctrl.apply_s"] = s.ctrl.seconds;
    layers["ctrl.events_applied"] = static_cast<double>(s.ctrlEvents);
    layers["mem.l1d_accesses"] = s.l1dAccesses;
    layers["mem.host_ns_per_access"] =
        ratio(s.process.seconds * 1e9, s.l1dAccesses);
    layers["mem.l1d_miss_rate"] = ratio(s.l1dMisses, s.l1dHits + s.l1dMisses);
    layers["mem.l2_miss_rate"] = ratio(s.l2Misses, s.l2Hits + s.l2Misses);
    layers["mem.parity_trips"] = s.parityTrips;
    layers["mem.strike_retries"] = s.strikeRetries;
    layers["mem.retry_frac"] = ratio(s.strikeRetries, s.l1dReads);
    layers["fault.injected"] = s.faultsInjected;
    layers["fault.per_kaccess"] =
        ratio(s.faultsInjected * 1e3, s.faultyAccesses);
    layers["energy.l1d_pj_per_pkt"] = ratio(s.l1dPj, packets);
    layers["core.instructions"] = s.instructions;
    layers["core.freq_switches"] = s.freqSwitches;
}

} // namespace perfbench
