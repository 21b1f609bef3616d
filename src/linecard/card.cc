#include "linecard/card.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "common/pool.hh"
#include "ctrl/ctrl.hh"
#include "linecard/fabric.hh"
#include "linecard/stream.hh"

namespace clumsy::linecard
{

void
CardConfig::validate() const
{
    if (chips < 1)
        fatal("a line card needs at least one chip, got %u", chips);
    dram.validate();
    if (!perChipCr.empty() && perChipCr.size() != chips)
        fatal("per-chip Cr list names %zu chips but the card has %u",
              perChipCr.size(), chips);
    for (double cr : perChipCr) {
        if (cr <= 0.0 || cr > 1.0)
            fatal("per-chip Cr %g outside (0, 1]", cr);
    }
}

CardRunResult
runCard(const core::AppFactory &factory,
        const core::ExperimentConfig &config, const npu::NpuConfig &npu,
        const CardConfig &card, bool golden, unsigned trial)
{
    card.validate();
    const bool dramOn = card.dram.banks > 0;

    // The per-chip experiment template. With the DRAM model on, the
    // flat miss penalty becomes exactly the model's row-hit time —
    // the model then only ever *adds* stall (the gateway returns
    // completion minus the flat floor, >= 0), so dram-banks=0 and the
    // historical flat model remain one timing family.
    core::ExperimentConfig base = config;
    if (dramOn)
        base.processor.hierarchy.memCycles = card.dram.rowHitCycles;
    npu::NpuConfig npuBase = npu;
    npuBase.chipJobs = 1; // the card owns the thread budget
    npuBase.ingressCapacity = card.ingressCapacity;
    npuBase.validate(base.processor.hierarchy);

    const net::TraceConfig trace = [&] {
        const std::unique_ptr<core::PacketApp> app = factory();
        return core::resolveTraceConfig(base, *app);
    }();

    // Every chip runs on its own fiber on this thread and pops its
    // share of the one card stream until the share ends; with the DRAM
    // model off the chips switch only where the stream hands a full
    // FIFO to its owner.
    DramFabric fabric(card.dram, card.chips,
                      cyclesToQuanta(card.dram.rowHitCycles));
    CardStream stream(trace, npuBase.arrivalGapCycles, base.numPackets,
                      card.dispatch, card.chips, fabric);
    // One control-plane stream per run; every engine of every chip
    // drains a clone of it.
    const std::unique_ptr<ctrl::CtrlSource> ctrlSrc =
        ctrl::makeCtrlSource(base.ctrl, trace);
    CardRunResult result;
    result.chips.resize(card.chips);
    fabric.run([&](unsigned c) {
        core::ExperimentConfig cc = base;
        if (!card.perChipCr.empty())
            cc.cr = card.perChipCr[c];

        ChipDramPort port(fabric, c);
        npu::ChipEnv env;
        env.source = &stream.chip(c);
        env.ctrl = ctrlSrc.get();
        env.engineSaltBase = c * npuBase.peCount;
        if (dramOn) {
            env.dram = &port;
            env.dramSalt =
                static_cast<std::uint64_t>(c) * base.processor.memBytes;
            env.progress = [&fabric, c](Quanta bound) {
                fabric.publish(c, bound);
            };
        }
        result.chips[c] =
            npu::runChipStream(factory, cc, npuBase, golden, trial, env);
    });
    // Every chip popped its share to the end, so the stream ends
    // drained.
    CLUMSY_ASSERT(!stream.pending(), "card stream left packets behind");
    result.streamPeakDepth = stream.peakDepth();

    if (golden) {
        for (unsigned c = 0; c < card.chips; ++c)
            CLUMSY_ASSERT(!result.chips[c].merged.fatal,
                          "golden card run must not die (chip %u)", c);
    }

    // ---- card-level reduction, in chip order ------------------------
    CardMetrics &m = result.card;
    m.chipPackets.resize(card.chips);
    m.chipMakespanCycles.resize(card.chips);
    double totalPackets = 0.0, maxPackets = 0.0;
    for (unsigned c = 0; c < card.chips; ++c) {
        const npu::ChipStreamResult &r = result.chips[c];
        const double processed =
            static_cast<double>(r.merged.packetsProcessed);
        m.chipPackets[c] = processed;
        m.chipMakespanCycles[c] = r.chip.makespanCycles;
        m.makespanCycles =
            std::max(m.makespanCycles, r.chip.makespanCycles);
        totalPackets += processed;
        maxPackets = std::max(maxPackets, processed);
        m.ingressDrops += r.chip.ingressDrops;
        m.dramStallCycles += r.chip.dramStallCycles;
    }
    m.packetsProcessed = totalPackets;
    m.throughputPps =
        m.makespanCycles > 0.0
            ? totalPackets / (m.makespanCycles / (npuBase.clockMhz * 1e6))
            : 0.0;
    const double meanPackets =
        totalPackets / static_cast<double>(card.chips);
    m.loadImbalance = meanPackets > 0.0 ? maxPackets / meanPackets : 1.0;
    if (dramOn) {
        const dram::DramStats &d = fabric.model().stats();
        m.dramAccesses = static_cast<double>(d.accesses);
        m.dramRowHits = static_cast<double>(d.rowHits);
        m.dramRowMisses = static_cast<double>(d.rowMisses);
        m.dramRowConflicts = static_cast<double>(d.rowConflicts);
        m.dramRowHitFraction =
            d.accesses > 0 ? static_cast<double>(d.rowHits) /
                                 static_cast<double>(d.accesses)
                           : 0.0;
    }

    // Fold the per-chip digests in chip order: equal streams of chip
    // results produce equal card digests, at every job count.
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto fold = [&h](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    for (const npu::ChipStreamResult &r : result.chips) {
        fold(r.valueDigest);
        fold(r.merged.packetsProcessed);
    }
    result.valueDigest = h;
    return result;
}

CardMetrics
averageCardMetrics(const std::vector<CardMetrics> &runs)
{
    return fieldMean(runs, kCardMetricsFields);
}

core::RunMetrics
mergeCardRunMetrics(const CardRunResult &run)
{
    core::RunMetrics m;
    double dataCycles = 0.0;
    double dataEnergy = 0.0;
    double dcacheMisses = 0.0;
    for (const npu::ChipStreamResult &r : run.chips) {
        const core::RunMetrics &c = r.merged;
        m.packetsAttempted += c.packetsAttempted;
        m.packetsProcessed += c.packetsProcessed;
        m.packetsWithError += c.packetsWithError;
        if (c.fatal && !m.fatal) {
            m.fatal = true;
            m.fatalReason = c.fatalReason;
        }
        const double processed =
            static_cast<double>(c.packetsProcessed);
        dataCycles += c.cyclesPerPacket * processed;
        dataEnergy += c.energyPerPacketPj * processed;
        m.totalEnergyPj += c.totalEnergyPj;
        m.l1dEnergyPj += c.l1dEnergyPj;
        m.instructions += c.instructions;
        m.dcacheAccesses += c.dcacheAccesses;
        dcacheMisses +=
            c.dcacheMissRate * static_cast<double>(c.dcacheAccesses);
        m.faultsInjected += c.faultsInjected;
        m.parityTrips += c.parityTrips;
        m.eccCorrections += c.eccCorrections;
        m.freqSwitches += c.freqSwitches;
        m.ctrlEventsApplied += c.ctrlEventsApplied;
        for (const auto &kv : c.errorsByType)
            m.errorsByType[kv.first] += kv.second;
    }
    const double processed =
        static_cast<double>(std::max<std::uint64_t>(
            m.packetsProcessed, 1));
    m.cyclesPerPacket = dataCycles / processed;
    m.energyPerPacketPj = dataEnergy / processed;
    m.dcacheMissRate =
        m.dcacheAccesses > 0
            ? dcacheMisses / static_cast<double>(m.dcacheAccesses)
            : 0.0;
    return m;
}

CardExperimentResult
runCardExperiment(const core::AppFactory &factory,
                  const core::ExperimentConfig &config,
                  const npu::NpuConfig &npu, const CardConfig &card)
{
    // Golden and trials are independent card runs: fan them out into
    // per-run slots and reduce in trial order, so the aggregate is
    // the same at every job count.
    CardExperimentResult result;
    std::vector<CardMetrics> faulty(config.trials);
    std::vector<char> died(config.trials, 0);
    const unsigned jobs = card.cardJobs == 0
                              ? WorkStealingPool::hardwareWorkers()
                              : card.cardJobs;
    const WorkStealingPool pool(std::min(jobs, config.trials + 1));
    pool.run(config.trials + 1, [&](std::size_t k) {
        if (k == 0) {
            result.golden = runCard(factory, config, npu, card, true, 0);
            return;
        }
        const CardRunResult run = runCard(factory, config, npu, card,
                                          false,
                                          static_cast<unsigned>(k - 1));
        for (const npu::ChipStreamResult &r : run.chips)
            died[k - 1] = died[k - 1] || r.merged.fatal;
        faulty[k - 1] = run.card;
    });
    const auto fatals = static_cast<unsigned>(
        std::count(died.begin(), died.end(), 1));
    result.faultyCard = averageCardMetrics(faulty);
    result.fatalFraction = static_cast<double>(fatals) /
                           static_cast<double>(config.trials);
    return result;
}

} // namespace clumsy::linecard
