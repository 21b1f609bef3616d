#include "npu/chip.hh"

#include <algorithm>
#include <deque>
#include <memory>
#include <string>

#include "common/logging.hh"
#include "common/pool.hh"
#include "core/metrics.hh"
#include "ctrl/ctrl.hh"
#include "net/trace_gen.hh"
#include "npu/dispatcher.hh"
#include "npu/event_queue.hh"
#include "npu/shared_l2.hh"
#include "traffic/traffic.hh"

namespace clumsy::npu
{

namespace
{

/** NpuConfig::chipJobs resolved: 0 means the machine's default. */
unsigned
resolveChipJobs(unsigned chipJobs)
{
    return chipJobs == 0 ? WorkStealingPool::hardwareWorkers()
                         : chipJobs;
}

/** One processing engine and its run state. */
struct Engine
{
    std::unique_ptr<core::ClumsyProcessor> proc;
    std::unique_ptr<core::PacketApp> app;
    std::deque<net::Packet> queue;
    Quanta origin = 0; ///< local quanta when the data plane started
    double initCycles = 0.0;
    double initEnergy = 0.0;
    double initL1d = 0.0;
    std::uint64_t initL2Hits = 0;   ///< private-L2 hits before data plane
    std::uint64_t initL2Misses = 0; ///< ... and misses
    Quanta busy = 0; ///< quanta spent inside packet processing
    std::uint64_t processed = 0;
    std::uint64_t maxDepth = 0;
    std::uint64_t ctrlApplied = 0; ///< control-plane events applied
    bool alive = true;

    /**
     * Queue-pressure accumulators of the current DVS epoch
     * (dvs=queue): depth/capacity sampled after every enqueue and
     * every dequeue, reset when the chip closes the epoch.
     */
    double pressureSum = 0.0;
    std::uint64_t pressureSamples = 0;

    Quanta dataTime() const { return proc->now() - origin; }

    /** Mean pressure this epoch; 0 when the queue never moved. */
    double epochPressure() const
    {
        return pressureSamples > 0
                   ? pressureSum / static_cast<double>(pressureSamples)
                   : 0.0;
    }
};

/**
 * Decorrelates engine fault streams: each engine gets the single-core
 * seed of its operating point offset by engine id. Engine 0 keeps the
 * unmodified seed so a one-engine chip replays the single-core run.
 */
constexpr std::uint64_t kPeSeedStride = 0x6a09e667f3bcc909ull;

ChipRun
runChipOnce(const core::AppFactory &factory,
            const core::ExperimentConfig &config, const NpuConfig &npu,
            bool golden, unsigned trial, const ChipRun *goldenRef,
            bool stream = false, const ChipEnv &env = {})
{
    npu.validate(config.processor.hierarchy);
    CLUMSY_ASSERT(!stream || goldenRef == nullptr,
                  "streaming runs cannot compare against a reference");

    const bool injectControl =
        !golden && config.plane != core::FaultPlane::DataOnly;
    const bool injectData =
        !golden && config.plane != core::FaultPlane::ControlOnly;

    SharedL2Port port(cyclesToQuanta(npu.portHitCycles),
                      cyclesToQuanta(npu.portMissCycles), npu.mshrs);
    if (env.dram != nullptr)
        port.attachDram(
            env.dram, env.dramSalt,
            cyclesToQuanta(config.processor.hierarchy.memCycles));

    ChipRun run;
    run.recorders.assign(
        npu.peCount,
        core::ValueRecorder(stream ? core::ValueRecorder::Mode::Digest
                                   : core::ValueRecorder::Mode::Full));

    // Build and initialize every engine. The control plane runs with
    // the L2 private (boot-time table construction is not the
    // steady-state contention the port models); the arbiter attaches
    // when the data plane starts, with each engine's origin at its
    // own post-init local time so all engines enter the shared chip
    // timeline at t = 0.
    //
    // Bring-up is the run's one true horizon — [boot, first arrival) —
    // during which engines touch only engine-local state (own
    // processor, own hierarchy behind the private L2 backend, own
    // fault stream), so with chip-jobs > 1 it runs on the worker pool.
    // Writes land in distinct engines[pe] slots and every
    // cross-engine interaction (fatal scan, shared-L2 construction)
    // happens after the barrier in ascending engine order, exactly as
    // the serial loop ordered it: byte-identical by construction.
    const WorkStealingPool chipPool(resolveChipJobs(npu.chipJobs));
    std::vector<Engine> engines(npu.peCount);
    chipPool.run(npu.peCount, [&](std::size_t peIdx) {
        const unsigned pe = static_cast<unsigned>(peIdx);
        Engine &e = engines[pe];
        core::ExperimentConfig peConfig = config;
        if (!npu.perPeCr.empty())
            peConfig.cr = npu.perPeCr[pe];
        core::ProcessorConfig pc =
            core::makeRunProcessorConfig(peConfig, golden, trial);
        // On a line card each engine salts by its *global* id
        // (engineSaltBase = chip * peCount), so chips age with
        // decorrelated fault streams; standalone the base is zero and
        // the historical seeds are untouched.
        pc.faultSeed += (env.engineSaltBase + pe) * kPeSeedStride;
        // The map seed is the chip's silicon: trials keep it fixed,
        // but each PE's array is its own die area, so salt by engine
        // id (engine 0 unsalted, preserving the 1-PE == single-core
        // equivalence).
        pc.faultMap.peSalt = env.engineSaltBase + pe;
        switch (npu.dvs) {
          case DvsMode::Static:
            // Ablation baseline: frozen at the launch Cr even when
            // the operating point asked for dynamic frequency.
            pc.dynamicFrequency = false;
            break;
          case DvsMode::Fault:
            break; // the single-core behaviour, untouched
          case DvsMode::Queue:
            // Per-PE DVS: always adaptive on faulty runs (golden
            // stays static, matching makeRunProcessorConfig's
            // convention), driven by chip-level epochs through a
            // queue-biased policy, launched at the operating point's
            // Cr (which must sit on the controller's ladder).
            pc.dynamicFrequency = !golden;
            if (pc.dynamicFrequency) {
                pc.freqCtl.policy = core::FreqPolicyKind::QueueBiased;
                pc.freqCtl.externalEpochs = true;
                pc.freqCtl.startLevel =
                    core::FrequencyLevels(pc.freqCtl.levels)
                        .indexOf(peConfig.cr);
            }
            break;
        }
        e.proc = std::make_unique<core::ClumsyProcessor>(pc);
        e.app = factory();
        e.proc->setInjectionEnabled(injectControl);
        e.app->initialize(*e.proc);
        e.initCycles = e.proc->nowCycles();
        e.initEnergy = e.proc->totalEnergyPj();
        e.initL1d = e.proc->l1dEnergyPj();
        e.initL2Hits = e.proc->hierarchy().l2().stats().get("hits");
        e.initL2Misses = e.proc->hierarchy().l2().stats().get("misses");
        e.origin = e.proc->now();
        e.proc->attachL2Port(&port, pe, e.origin);
        e.proc->setInjectionEnabled(injectData);
        e.alive = !e.proc->fatalOccurred();
    });

    // Genuinely shared L2 contents (l2=shared): swap every engine's
    // L2 backend to a view of one chip-wide array at the data-plane
    // boundary. The stores are diffed line-by-line (control-plane
    // faults leave engines with different bytes, and those lines must
    // never share a frame), dirty private lines — bytes the stores
    // don't hold yet — diverge their lines too, and then each
    // engine's warmed private contents migrate into the shared array
    // in LRU order, so the data plane starts exactly as warm as it
    // does with private L2s.
    std::unique_ptr<SharedL2Cache> sharedL2;
    if (npu.l2 == L2Mode::Shared) {
        sharedL2 = std::make_unique<SharedL2Cache>(
            config.processor.hierarchy.l2,
            config.processor.hierarchy.codec, config.processor.memBytes,
            npu.peCount);
        std::vector<SharedL2Cache::View *> views(npu.peCount);
        for (unsigned pe = 0; pe < npu.peCount; ++pe) {
            Engine &e = engines[pe];
            views[pe] = sharedL2->attach(pe, &e.proc->backingStore(),
                                         &e.proc->energyAccount());
        }
        sharedL2->seedDivergence(&chipPool);
        for (unsigned pe = 0; pe < npu.peCount; ++pe)
            sharedL2->noteDirtyLines(
                engines[pe].proc->hierarchy().l2());
        for (unsigned pe = 0; pe < npu.peCount; ++pe)
            sharedL2->migrateFrom(pe,
                                  engines[pe].proc->hierarchy().l2());
        for (unsigned pe = 0; pe < npu.peCount; ++pe)
            engines[pe].proc->setL2Backend(views[pe]);
    }

    // The arrival stream: a traffic source owns both the packet bytes
    // and each packet's arrival time (static gaps or the churn model's
    // ramped/bursty gaps), quantized here onto the chip timeline.
    const net::TraceConfig chipTrace =
        core::resolveTraceConfig(config, *engines[0].app);
    std::unique_ptr<traffic::PacketSource> ownedSrc;
    if (env.source == nullptr)
        ownedSrc = traffic::makeSource(chipTrace, npu.arrivalGapCycles);
    traffic::PacketSource *const src =
        env.source != nullptr ? env.source : ownedSrc.get();

    // Control-plane churn (ctrl= nonzero): every engine owns a full
    // copy of the update stream — its tables are private, so it must
    // see every update — drained against the trace sequence numbers it
    // processes. Which events an engine has applied when it starts a
    // packet therefore depends only on the dispatcher's (deterministic)
    // packet placement, never on chip-jobs or wall-clock interleaving,
    // and a one-engine chip drains the stream exactly as the
    // single-core harness does (seq == loop index there).
    std::vector<std::unique_ptr<ctrl::CtrlSource>> ctrlSrcs(npu.peCount);
    for (unsigned pe = 0; pe < npu.peCount; ++pe)
        ctrlSrcs[pe] = ctrl::makeCtrlSource(config.ctrl, chipTrace);

    Dispatcher disp(npu.dispatch, npu.peCount, npu.flowRehash);
    std::vector<Histogram> occ(
        npu.peCount, Histogram(0.0, npu.queueCapacity + 1.0,
                               npu.queueCapacity + 1));

    std::uint64_t generated = 0;
    bool havePending = false;
    net::Packet pending;
    Quanta pendingArrival = 0;

    // Bounded ingress FIFO (NpuConfig::ingressCapacity > 0): due
    // arrivals land here before dispatch, and a due arrival that
    // finds the FIFO full is dropped at the chip edge. The lookahead
    // slot holds the one packet pulled from the source whose
    // arrival has not come due yet. Capacity 0 skips all of this.
    const unsigned ingressCap = npu.ingressCapacity;
    std::deque<std::pair<net::Packet, Quanta>> ingress;
    bool haveLook = false;
    net::Packet look;
    Quanta lookArrival = 0;
    std::uint64_t ingressDrops = 0;

    core::RunMetrics &merged = run.merged;
    std::uint64_t completed = 0;
    std::uint64_t dropsQueueFull = 0, dropsDeadPe = 0,
                  backpressureStalls = 0;
    bool sawFatal = false;
    std::string firstFatalReason;

    // Any engine dead at boot (control-plane fault) is a chip fatal.
    for (const Engine &e : engines) {
        if (!e.alive && !sawFatal) {
            sawFatal = true;
            firstFatalReason = e.proc->fatalReason();
        }
    }

    // Engines holding work, ordered by (data time, engine id). The
    // queue's comparison is the linear scan's strict less-than over
    // pure integers, so its top is always the engine the scan would
    // have picked — byte-identical schedule, O(log P) per step.
    EngineEventQueue events(npu.peCount);

    // Chip-level DVS epochs (dvs=queue): every epochPackets completed
    // packets chip-wide, all alive engines decide together, each on
    // its own mean queue pressure since the previous epoch.
    const bool chipEpochs = npu.dvs == DvsMode::Queue;
    const std::uint64_t epochPackets =
        config.processor.freqCtl.epochPackets;
    auto samplePressure = [&](Engine &e) {
        if (!chipEpochs)
            return;
        e.pressureSum += static_cast<double>(e.queue.size()) /
                         static_cast<double>(npu.queueCapacity);
        ++e.pressureSamples;
    };
    auto closeChipEpoch = [&]() {
        for (unsigned pe = 0; pe < npu.peCount; ++pe) {
            Engine &e = engines[pe];
            if (e.alive) {
                e.proc->closeDvsEpoch(e.epochPressure());
                // A frequency switch charges a penalty, moving the
                // engine's clock: refresh its position in the event
                // queue.
                if (events.contains(pe))
                    events.update(pe, e.dataTime());
            }
            e.pressureSum = 0.0;
            e.pressureSamples = 0;
        }
    };

    // Dispatcher inputs, maintained incrementally: depths[pe] mirrors
    // engines[pe].queue.size() and alive[pe] mirrors engines[pe].alive
    // at every choose() call, updated at the few points that mutate
    // them (placement, dequeue, engine death) — O(1) per event instead
    // of an O(P) rebuild per arrival.
    std::vector<unsigned> depths(npu.peCount, 0);
    std::vector<char> alive(npu.peCount);
    for (unsigned pe = 0; pe < npu.peCount; ++pe)
        alive[pe] = engines[pe].alive ? 1 : 0;

    auto processOne = [&](unsigned pe) {
        Engine &e = engines[pe];
        const net::Packet pkt = e.queue.front();
        e.queue.pop_front();
        --depths[pe];
        samplePressure(e);
        if (ctrlSrcs[pe]) {
            while (const ctrl::CtrlEvent *ev = ctrlSrcs[pe]->peek()) {
                if (ev->beforePacket > pkt.seq)
                    break;
                if (e.app->applyCtrlEvent(*e.proc, *ev))
                    ++e.ctrlApplied;
                ctrlSrcs[pe]->advance();
                if (e.proc->fatalOccurred())
                    break;
            }
            if (e.proc->fatalOccurred()) {
                // A fault during the update is an engine fatal like
                // any other; the popped packet never started, so it
                // joins the rest of the queue as dead-PE drops.
                e.alive = false;
                if (!sawFatal) {
                    sawFatal = true;
                    firstFatalReason = e.proc->fatalReason();
                }
                dropsDeadPe += 1 + e.queue.size();
                e.queue.clear();
                depths[pe] = 0;
                alive[pe] = 0;
                events.erase(pe);
                return;
            }
        }
        const Quanta before = e.proc->now();
        e.proc->beginPacket();
        core::ValueRecorder &rec = run.recorders[pe];
        rec.beginPacket();
        const std::size_t frame = rec.packetCount() - 1;
        e.app->processPacket(*e.proc, pkt, rec);
        e.busy += e.proc->now() - before;
        if (e.proc->fatalOccurred()) {
            e.alive = false;
            if (!sawFatal) {
                sawFatal = true;
                firstFatalReason = e.proc->fatalReason();
            }
            dropsDeadPe += e.queue.size();
            e.queue.clear();
            depths[pe] = 0;
            alive[pe] = 0;
            events.erase(pe);
            return;
        }
        e.proc->endPacket();
        ++e.processed;
        ++completed;
        if (chipEpochs && completed % epochPackets == 0)
            closeChipEpoch();
        // endPacket and epoch closes can advance engine clocks
        // (frequency-switch penalties), so re-key this engine — and
        // closeChipEpoch() above re-keys every other queued engine —
        // only after both ran.
        if (e.queue.empty())
            events.erase(pe);
        else
            events.update(pe, e.dataTime());
        if (stream)
            return; // no per-sequence bookkeeping: O(1) memory
        // A trace sequence number must complete exactly once, no
        // matter how backpressure re-arbitration shuffles arrivals.
        const bool freshSeq =
            run.completions.emplace(pkt.seq, std::make_pair(pe, frame))
                .second;
        CLUMSY_ASSERT(freshSeq, "packet sequence completed twice");
        if (goldenRef) {
            const auto it = goldenRef->completions.find(pkt.seq);
            if (it != goldenRef->completions.end()) {
                const auto bad = rec.comparePacket(
                    frame, goldenRef->recorders[it->second.first],
                    it->second.second);
                if (!bad.empty())
                    ++merged.packetsWithError;
                for (const auto &key : bad)
                    ++merged.errorsByType[key];
            }
        }
    };

    // The pending arrival leaves the dispatch stage (placed or
    // dropped); with a bounded ingress it also leaves the FIFO head.
    auto consumePending = [&]() {
        havePending = false;
        if (ingressCap > 0)
            ingress.pop_front();
    };

    // One successful placement.
    auto place = [&](unsigned pe) {
        Engine &e = engines[pe];
        e.queue.push_back(pending);
        ++depths[pe];
        if (!events.contains(pe))
            events.push(pe, e.dataTime());
        consumePending();
        samplePressure(e);
        e.maxDepth = std::max<std::uint64_t>(e.maxDepth,
                                             e.queue.size());
        occ[pe].sample(static_cast<double>(e.queue.size()));
    };

    // Line-card horizon feed: no engine's clock ever runs backwards,
    // so the smallest alive engine data time lower-bounds the chip
    // time of every future DRAM request (any request is issued
    // mid-packet at or after its engine's current time). It is
    // published before each engine step taken with no arrival due;
    // steps that drain a queue under backpressure go unpublished.
    // Publishing less often only delays other chips' DRAM commits
    // (each request advances this chip's bound by itself), and it
    // keeps this O(P) scan out of the per-arrival path.
    auto publishHorizon = [&]() {
        Quanta minDt = 0;
        bool any = false;
        for (const Engine &e : engines) {
            if (!e.alive)
                continue;
            const Quanta dt = e.dataTime();
            if (!any || dt < minDt) {
                minDt = dt;
                any = true;
            }
        }
        if (any)
            env.progress(minDt);
    };

    while (true) {
        // The engine that runs next: smallest (data time, id) among
        // alive engines holding work — the event queue's top. Pure
        // integer comparisons keep the schedule byte-identical
        // everywhere.
        const int stepPe =
            events.empty() ? -1 : static_cast<int>(events.top());
        const Quanta stepDt = events.empty() ? 0 : events.topKey();

        if (ingressCap > 0) {
            // Bounded-ingress admission: pull arrivals through the
            // lookahead slot and admit every one that is due at the
            // step horizon (or the first one outright when the chip
            // is idle — time jumps forward to it). A due arrival
            // that finds the FIFO full is dropped at the chip edge;
            // the head of the FIFO is the dispatch stage's pending
            // packet.
            while (true) {
                if (!haveLook && generated < config.numPackets) {
                    look = src->next();
                    lookArrival =
                        cyclesToQuanta(src->lastArrivalCycles());
                    haveLook = true;
                    ++generated;
                }
                if (!haveLook)
                    break;
                const bool due = stepPe >= 0 ? lookArrival <= stepDt
                                             : ingress.empty();
                if (!due)
                    break;
                if (ingress.size() < ingressCap)
                    ingress.emplace_back(look, lookArrival);
                else
                    ++ingressDrops;
                haveLook = false;
            }
            havePending = !ingress.empty();
            if (havePending) {
                pending = ingress.front().first;
                pendingArrival = ingress.front().second;
            }
        } else if (!havePending && generated < config.numPackets) {
            // Pull the next arrival eagerly: its timestamp comes from
            // the source (the churn model only knows a packet's
            // arrival once it has drawn the packet), and it stays
            // pending until some engine accepts it.
            pending = src->next();
            pendingArrival = cyclesToQuanta(src->lastArrivalCycles());
            havePending = true;
            ++generated;
        }
        if (!havePending && stepPe < 0)
            break;

        const bool doDispatch =
            havePending && (stepPe < 0 || pendingArrival <= stepDt);

        if (!doDispatch) {
            if (env.progress)
                publishHorizon();
            processOne(static_cast<unsigned>(stepPe));
            continue;
        }

        // One dispatch per pass: the pending arrival is due no later
        // than the earliest queued engine (or the chip is idle), so it
        // is placed, dropped, or stalls behind a drain before any
        // engine steps past it. With a bounded ingress the pending
        // packet is the FIFO head, and the next pass re-admits due
        // arrivals before dispatching.
        const int pe = disp.choose(pending, depths, alive);
        if (pe < 0) {
            ++dropsDeadPe;
            consumePending();
            continue;
        }
        if (engines[static_cast<unsigned>(pe)].queue.size() >=
            npu.queueCapacity) {
            if (npu.dropWhenFull) {
                ++dropsQueueFull;
                consumePending();
                continue;
            }
            // Backpressure: hold the arrival and drain the earliest
            // engine; the packet re-arbitrates on the next pass.
            ++backpressureStalls;
            CLUMSY_ASSERT(stepPe >= 0,
                          "backpressure with no engine to drain");
            processOne(static_cast<unsigned>(stepPe));
            continue;
        }
        place(static_cast<unsigned>(pe));
    }

    // ---- merge engine metrics into single-core form ----------------
    // Every sum below starts at zero and adds engine 0 first, so with
    // one engine each expression reduces to exactly the single-core
    // harness's formula (0 + x == x in IEEE double arithmetic).
    merged.packetsAttempted = config.numPackets;
    merged.packetsProcessed = completed;
    merged.fatal = sawFatal;
    merged.fatalReason = firstFatalReason;

    const double processed =
        completed > 0 ? static_cast<double>(completed) : 1.0;
    double dataCycles = 0.0, totalEnergy = 0.0, dataEnergy = 0.0,
           l1dEnergy = 0.0;
    std::uint64_t l1dHits = 0, l1dMisses = 0;
    for (const Engine &e : engines) {
        dataCycles += e.proc->nowCycles() - e.initCycles;
        totalEnergy += e.proc->totalEnergyPj();
        dataEnergy += e.proc->totalEnergyPj() - e.initEnergy;
        l1dEnergy += e.proc->l1dEnergyPj() - e.initL1d;
        const auto &h = e.proc->hierarchy();
        merged.instructions += e.proc->instructions();
        merged.dcacheAccesses += h.stats().get("reads") +
                                 h.stats().get("writes");
        l1dHits += h.l1d().stats().get("hits");
        l1dMisses += h.l1d().stats().get("misses");
        merged.faultsInjected += e.proc->injector().faultCount();
        merged.parityTrips += h.stats().get("parity_trips");
        merged.eccCorrections += h.stats().get("ecc_corrections");
        merged.freqSwitches += e.proc->freqController()
                                   ? e.proc->freqController()->switches()
                                   : 0;
        merged.ctrlEventsApplied += e.ctrlApplied;
    }
    merged.cyclesPerPacket = dataCycles / processed;
    merged.totalEnergyPj = totalEnergy;
    merged.energyPerPacketPj = dataEnergy / processed;
    merged.l1dEnergyPj = l1dEnergy;
    {
        // Recomputed from the summed raw counters with the same
        // expression as Cache::missRate(), so one engine reproduces
        // the single-core figure bit for bit.
        const double hits = static_cast<double>(l1dHits);
        const double misses = static_cast<double>(l1dMisses);
        const double total = hits + misses;
        merged.dcacheMissRate = total > 0 ? misses / total : 0.0;
    }

    // ---- chip-level metrics ----------------------------------------
    ChipMetrics &chip = run.chip;
    Quanta makespanQ = 0;
    Quanta busySum = 0, busyMax = 0;
    for (const Engine &e : engines) {
        makespanQ = std::max(makespanQ, e.dataTime());
        busySum += e.busy;
        busyMax = std::max(busyMax, e.busy);
    }
    chip.makespanCycles = quantaToCycles(makespanQ);
    chip.throughputPps =
        chip.makespanCycles > 0.0
            ? static_cast<double>(completed) /
                  (chip.makespanCycles / (npu.clockMhz * 1e6))
            : 0.0;
    const double busyMean =
        static_cast<double>(busySum) / static_cast<double>(npu.peCount);
    chip.loadImbalance =
        busyMean > 0.0 ? static_cast<double>(busyMax) / busyMean : 1.0;

    Histogram mergedOcc(0.0, npu.queueCapacity + 1.0,
                        npu.queueCapacity + 1);
    double maxDepth = 0.0;
    for (unsigned pe = 0; pe < npu.peCount; ++pe) {
        mergedOcc.merge(occ[pe]);
        maxDepth = std::max(maxDepth,
                            static_cast<double>(engines[pe].maxDepth));
    }
    run.queueOcc = mergedOcc;
    chip.queueOccMean = mergedOcc.mean();
    chip.queueOccMax = maxDepth;
    chip.dropsQueueFull = static_cast<double>(dropsQueueFull);
    chip.dropsDeadPe = static_cast<double>(dropsDeadPe);
    chip.backpressureStalls = static_cast<double>(backpressureStalls);

    Quanta waitQ = 0;
    std::uint64_t waits = 0;
    for (const Engine &e : engines) {
        waitQ += e.proc->l2PortWaitQuanta();
        waits += e.proc->l2PortWaits();
    }
    chip.l2PortWaits = static_cast<double>(waits);
    chip.l2PortWaitCycles = quantaToCycles(waitQ);

    // Per-engine data-plane L2 demand traffic, plus the shared-mode
    // cross-engine counters (all zero when the L2 is private, so
    // mode-mixed averages stay meaningful).
    chip.peL2Hits.resize(npu.peCount);
    chip.peL2Misses.resize(npu.peCount);
    std::uint64_t l2HitsTotal = 0, crossHits = 0, evictedByOther = 0;
    for (unsigned pe = 0; pe < npu.peCount; ++pe) {
        const Engine &e = engines[pe];
        std::uint64_t hits = 0, misses = 0;
        if (sharedL2) {
            const SharedL2Cache::EngineStats &s =
                sharedL2->engineStats(pe);
            hits = s.hits;
            misses = s.misses;
            crossHits += s.crossHits;
            evictedByOther += s.evictedByOther;
        } else {
            const auto &l2s = e.proc->hierarchy().l2().stats();
            hits = l2s.get("hits") - e.initL2Hits;
            misses = l2s.get("misses") - e.initL2Misses;
        }
        chip.peL2Hits[pe] = static_cast<double>(hits);
        chip.peL2Misses[pe] = static_cast<double>(misses);
        l2HitsTotal += hits;
    }
    chip.crossEngineHits = static_cast<double>(crossHits);
    chip.crossEngineHitFraction =
        l2HitsTotal > 0 ? static_cast<double>(crossHits) /
                              static_cast<double>(l2HitsTotal)
                        : 0.0;
    chip.l2EvictionsByOther = static_cast<double>(evictedByOther);
    chip.mshrMerges =
        static_cast<double>(port.stats().get("mshr_merges"));
    chip.ingressDrops = static_cast<double>(ingressDrops);
    chip.dramRequests =
        static_cast<double>(port.stats().get("dram_requests"));
    chip.dramStallCycles = quantaToCycles(
        static_cast<Quanta>(port.stats().get("dram_extra_quanta")));

    const double fall = core::fallibility(merged);
    const double delay = chip.makespanCycles / processed;
    chip.chipEdf =
        merged.energyPerPacketPj * delay * delay * fall * fall;

    chip.peUtilization.resize(npu.peCount);
    chip.pePackets.resize(npu.peCount);
    chip.peCrFinal.resize(npu.peCount);
    chip.peCrMean.resize(npu.peCount);
    chip.peEpochs.resize(npu.peCount);
    chip.peStepsUp.resize(npu.peCount);
    chip.peStepsDown.resize(npu.peCount);
    for (unsigned pe = 0; pe < npu.peCount; ++pe) {
        const Engine &e = engines[pe];
        chip.peUtilization[pe] =
            makespanQ > 0
                ? static_cast<double>(e.busy) /
                      static_cast<double>(makespanQ)
                : 0.0;
        chip.pePackets[pe] = static_cast<double>(e.processed);
        chip.peCrFinal[pe] = e.proc->currentCr();
        const core::FreqController *ctl = e.proc->freqController();
        chip.peCrMean[pe] =
            ctl ? ctl->meanCr() : e.proc->currentCr();
        chip.peEpochs[pe] =
            ctl ? static_cast<double>(ctl->epochs()) : 0.0;
        chip.peStepsUp[pe] =
            ctl ? static_cast<double>(ctl->clockUps()) : 0.0;
        chip.peStepsDown[pe] =
            ctl ? static_cast<double>(ctl->clockDowns()) : 0.0;
    }
    return run;
}

} // namespace

ChipRun
runChipGolden(const core::AppFactory &factory,
              const core::ExperimentConfig &config, const NpuConfig &npu)
{
    ChipRun run = runChipOnce(factory, config, npu, true, 0, nullptr);
    CLUMSY_ASSERT(!run.merged.fatal, "golden chip run must not die");
    return run;
}

ChipRun
runChipTrial(const core::AppFactory &factory,
             const core::ExperimentConfig &config, const NpuConfig &npu,
             unsigned trial, const ChipRun &golden)
{
    ChipRun run =
        runChipOnce(factory, config, npu, false, trial, &golden);
    // Faulty trials don't need their frames again: comparison against
    // golden already happened per completion.
    run.recorders.clear();
    run.completions.clear();
    return run;
}

ChipStreamResult
runChipStream(const core::AppFactory &factory,
              const core::ExperimentConfig &config, const NpuConfig &npu,
              bool golden, unsigned trial, const ChipEnv &env)
{
    ChipRun run = runChipOnce(factory, config, npu, golden, trial,
                              nullptr, /*stream=*/true, env);
    ChipStreamResult result;
    result.merged = std::move(run.merged);
    result.chip = std::move(run.chip);
    result.peDigests.reserve(run.recorders.size());

    // Fold (digest, packet count) per engine, in PE order. Engines own
    // their packets regardless of chip-jobs, so the fold is identical
    // for every worker count.
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto fold = [&h](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    for (const core::ValueRecorder &rec : run.recorders) {
        result.peDigests.push_back(rec.digest());
        fold(rec.digest());
        fold(rec.packetCount());
    }
    result.valueDigest = h;
    return result;
}

ChipMetrics
averageChipMetrics(const std::vector<ChipMetrics> &runs)
{
    CLUMSY_ASSERT(!runs.empty(), "need at least one chip run");
    ChipMetrics avg;
    avg.loadImbalance = 0.0;
    avg.peUtilization.assign(runs.front().peUtilization.size(), 0.0);
    avg.pePackets.assign(runs.front().pePackets.size(), 0.0);
    avg.peL2Hits.assign(runs.front().peL2Hits.size(), 0.0);
    avg.peL2Misses.assign(runs.front().peL2Misses.size(), 0.0);
    avg.peCrFinal.assign(runs.front().peCrFinal.size(), 0.0);
    avg.peCrMean.assign(runs.front().peCrMean.size(), 0.0);
    avg.peEpochs.assign(runs.front().peEpochs.size(), 0.0);
    avg.peStepsUp.assign(runs.front().peStepsUp.size(), 0.0);
    avg.peStepsDown.assign(runs.front().peStepsDown.size(), 0.0);
    for (const ChipMetrics &m : runs) {
        avg.makespanCycles += m.makespanCycles;
        avg.throughputPps += m.throughputPps;
        avg.loadImbalance += m.loadImbalance;
        avg.queueOccMean += m.queueOccMean;
        avg.queueOccMax += m.queueOccMax;
        avg.dropsQueueFull += m.dropsQueueFull;
        avg.dropsDeadPe += m.dropsDeadPe;
        avg.backpressureStalls += m.backpressureStalls;
        avg.l2PortWaits += m.l2PortWaits;
        avg.l2PortWaitCycles += m.l2PortWaitCycles;
        avg.crossEngineHits += m.crossEngineHits;
        avg.crossEngineHitFraction += m.crossEngineHitFraction;
        avg.l2EvictionsByOther += m.l2EvictionsByOther;
        avg.mshrMerges += m.mshrMerges;
        avg.ingressDrops += m.ingressDrops;
        avg.dramRequests += m.dramRequests;
        avg.dramStallCycles += m.dramStallCycles;
        avg.chipEdf += m.chipEdf;
        for (std::size_t i = 0; i < avg.peUtilization.size(); ++i)
            avg.peUtilization[i] += m.peUtilization[i];
        for (std::size_t i = 0; i < avg.pePackets.size(); ++i)
            avg.pePackets[i] += m.pePackets[i];
        for (std::size_t i = 0; i < avg.peL2Hits.size(); ++i)
            avg.peL2Hits[i] += m.peL2Hits[i];
        for (std::size_t i = 0; i < avg.peL2Misses.size(); ++i)
            avg.peL2Misses[i] += m.peL2Misses[i];
        for (std::size_t i = 0; i < avg.peCrFinal.size(); ++i)
            avg.peCrFinal[i] += m.peCrFinal[i];
        for (std::size_t i = 0; i < avg.peCrMean.size(); ++i)
            avg.peCrMean[i] += m.peCrMean[i];
        for (std::size_t i = 0; i < avg.peEpochs.size(); ++i)
            avg.peEpochs[i] += m.peEpochs[i];
        for (std::size_t i = 0; i < avg.peStepsUp.size(); ++i)
            avg.peStepsUp[i] += m.peStepsUp[i];
        for (std::size_t i = 0; i < avg.peStepsDown.size(); ++i)
            avg.peStepsDown[i] += m.peStepsDown[i];
    }
    const double n = static_cast<double>(runs.size());
    avg.makespanCycles /= n;
    avg.throughputPps /= n;
    avg.loadImbalance /= n;
    avg.queueOccMean /= n;
    avg.queueOccMax /= n;
    avg.dropsQueueFull /= n;
    avg.dropsDeadPe /= n;
    avg.backpressureStalls /= n;
    avg.l2PortWaits /= n;
    avg.l2PortWaitCycles /= n;
    avg.crossEngineHits /= n;
    avg.crossEngineHitFraction /= n;
    avg.l2EvictionsByOther /= n;
    avg.mshrMerges /= n;
    avg.ingressDrops /= n;
    avg.dramRequests /= n;
    avg.dramStallCycles /= n;
    avg.chipEdf /= n;
    for (double &v : avg.peUtilization)
        v /= n;
    for (double &v : avg.pePackets)
        v /= n;
    for (double &v : avg.peL2Hits)
        v /= n;
    for (double &v : avg.peL2Misses)
        v /= n;
    for (double &v : avg.peCrFinal)
        v /= n;
    for (double &v : avg.peCrMean)
        v /= n;
    for (double &v : avg.peEpochs)
        v /= n;
    for (double &v : avg.peStepsUp)
        v /= n;
    for (double &v : avg.peStepsDown)
        v /= n;
    return avg;
}

ChipExperimentResult
runChipExperiment(const core::AppFactory &factory,
                  const core::ExperimentConfig &config,
                  const NpuConfig &npu)
{
    CLUMSY_ASSERT(config.trials >= 1, "need at least one trial");
    std::string app;
    {
        auto probe = factory();
        app = probe->name();
    }

    const ChipRun golden = runChipGolden(factory, config, npu);

    // Horizon-stepped trial fan-out: faulty trials are mutually
    // independent (own processors, own fault streams, read-only view
    // of the golden run), so with chip-jobs > 1 they run concurrently,
    // each writing its own runs[t] slot. Trials keep their insides
    // serial — the trial grain already fills the budget — and the
    // reduction below walks slots in trial order, so the aggregate is
    // byte-identical to the serial loop for every chip-jobs value.
    const unsigned jobs =
        std::min<unsigned>(resolveChipJobs(npu.chipJobs), config.trials);
    NpuConfig trialNpu = npu;
    if (jobs > 1)
        trialNpu.chipJobs = 1;
    std::vector<ChipRun> runs(config.trials);
    const WorkStealingPool pool(jobs);
    pool.run(config.trials, [&](std::size_t t) {
        runs[t] = runChipTrial(factory, config, trialNpu,
                               static_cast<unsigned>(t), golden);
    });

    std::vector<core::RunMetrics> trials;
    std::vector<ChipMetrics> chips;
    trials.reserve(config.trials);
    chips.reserve(config.trials);
    for (unsigned t = 0; t < config.trials; ++t) {
        trials.push_back(std::move(runs[t].merged));
        chips.push_back(std::move(runs[t].chip));
    }

    ChipExperimentResult result;
    result.core = core::aggregateTrials(
        app, core::GoldenRecord{golden.merged, {}}, trials);
    result.goldenChip = golden.chip;
    result.faultyChip = averageChipMetrics(chips);
    result.goldenQueueOcc = golden.queueOcc;
    return result;
}

} // namespace clumsy::npu
