#include "linecard/card.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "common/pool.hh"
#include "linecard/fabric.hh"
#include "npu/dispatcher.hh"
#include "traffic/traffic.hh"

namespace clumsy::linecard
{

namespace
{

/**
 * Chip @p chip's share of the card-wide packet stream: a fresh replica
 * of the global source pushed through a dispatcher replica, keeping
 * only the packets the card assigns to this chip — global sequence
 * numbers and arrival times intact. The dispatcher's "queue depths"
 * are total assigned counts (the split is feedback-free), so every
 * chip's replica computes the identical assignment independently.
 */
class CardSplitSource final : public traffic::PacketSource
{
  public:
    CardSplitSource(const net::TraceConfig &trace,
                    std::int64_t gapCycles,
                    npu::DispatchPolicy policy, unsigned chips,
                    unsigned chip)
        : inner_(traffic::makeSource(trace, gapCycles)),
          disp_(policy, chips),
          depths_(chips, 0),
          alive_(chips, 1),
          chip_(chip)
    {
    }

    net::Packet next() override
    {
        while (true) {
            net::Packet pkt = inner_->next();
            const int choice = disp_.choose(pkt, depths_, alive_);
            CLUMSY_ASSERT(choice >= 0,
                          "card dispatch failed with every chip alive");
            ++depths_[static_cast<unsigned>(choice)];
            if (static_cast<unsigned>(choice) == chip_) {
                arrival_ = inner_->lastArrivalCycles();
                return pkt;
            }
        }
    }

    std::int64_t lastArrivalCycles() const override { return arrival_; }

    const net::TraceConfig &config() const override
    {
        return inner_->config();
    }

  private:
    std::unique_ptr<traffic::PacketSource> inner_;
    npu::Dispatcher disp_;
    std::vector<unsigned> depths_;
    std::vector<char> alive_;
    unsigned chip_;
    std::int64_t arrival_ = 0;
};

} // namespace

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

std::vector<std::uint64_t>
cardAssignCounts(const net::TraceConfig &trace, std::int64_t gapCycles,
                 const CardConfig &card, std::uint64_t numPackets)
{
    const std::unique_ptr<traffic::PacketSource> src =
        traffic::makeSource(trace, gapCycles);
    npu::Dispatcher disp(card.dispatch, card.chips);
    std::vector<unsigned> depths(card.chips, 0);
    const std::vector<char> alive(card.chips, 1);
    std::vector<std::uint64_t> counts(card.chips, 0);
    for (std::uint64_t s = 0; s < numPackets; ++s) {
        const net::Packet pkt = src->next();
        const int choice = disp.choose(pkt, depths, alive);
        CLUMSY_ASSERT(choice >= 0,
                      "card dispatch failed with every chip alive");
        ++depths[static_cast<unsigned>(choice)];
        ++counts[static_cast<unsigned>(choice)];
    }
    return counts;
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

    // The trace every chip's split source replays, and each chip's
    // packet count from the counting pre-pass.
    const net::TraceConfig trace = [&] {
        const std::unique_ptr<core::PacketApp> app = factory();
        return core::resolveTraceConfig(base, *app);
    }();
    const std::vector<std::uint64_t> counts = cardAssignCounts(
        trace, npuBase.arrivalGapCycles, card, base.numPackets);

    // Every chip runs on its own fiber on this thread; with the DRAM
    // model off no chip ever parks, so each runs start to finish.
    DramFabric fabric(card.dram, card.chips,
                      cyclesToQuanta(card.dram.rowHitCycles));
    CardRunResult result;
    result.chips.resize(card.chips);
    fabric.run([&](unsigned c) {
        core::ExperimentConfig cc = base;
        cc.numPackets = counts[c];
        if (!card.perChipCr.empty())
            cc.cr = card.perChipCr[c];

        CardSplitSource source(trace, npuBase.arrivalGapCycles,
                               card.dispatch, card.chips, c);
        ChipDramPort port(fabric, c);
        npu::ChipEnv env;
        env.source = &source;
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
    CLUMSY_ASSERT(!runs.empty(), "need at least one card run");
    CardMetrics avg;
    avg.loadImbalance = 0.0;
    avg.chipPackets.assign(runs.front().chipPackets.size(), 0.0);
    avg.chipMakespanCycles.assign(
        runs.front().chipMakespanCycles.size(), 0.0);
    for (const CardMetrics &m : runs) {
        avg.makespanCycles += m.makespanCycles;
        avg.throughputPps += m.throughputPps;
        avg.loadImbalance += m.loadImbalance;
        avg.packetsProcessed += m.packetsProcessed;
        avg.ingressDrops += m.ingressDrops;
        avg.dramAccesses += m.dramAccesses;
        avg.dramRowHits += m.dramRowHits;
        avg.dramRowMisses += m.dramRowMisses;
        avg.dramRowConflicts += m.dramRowConflicts;
        avg.dramRowHitFraction += m.dramRowHitFraction;
        avg.dramStallCycles += m.dramStallCycles;
        for (std::size_t i = 0; i < avg.chipPackets.size(); ++i)
            avg.chipPackets[i] += m.chipPackets[i];
        for (std::size_t i = 0; i < avg.chipMakespanCycles.size(); ++i)
            avg.chipMakespanCycles[i] += m.chipMakespanCycles[i];
    }
    const double n = static_cast<double>(runs.size());
    avg.makespanCycles /= n;
    avg.throughputPps /= n;
    avg.loadImbalance /= n;
    avg.packetsProcessed /= n;
    avg.ingressDrops /= n;
    avg.dramAccesses /= n;
    avg.dramRowHits /= n;
    avg.dramRowMisses /= n;
    avg.dramRowConflicts /= n;
    avg.dramRowHitFraction /= n;
    avg.dramStallCycles /= n;
    for (double &v : avg.chipPackets)
        v /= n;
    for (double &v : avg.chipMakespanCycles)
        v /= n;
    return avg;
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
