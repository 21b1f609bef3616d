#include "core/processor.hh"

#include "common/logging.hh"

namespace clumsy::core
{

namespace
{

ProcessorConfig
validated(ProcessorConfig config)
{
    config.validate();
    return config;
}

} // namespace

ClumsyProcessor::ClumsyProcessor(ProcessorConfig config)
    : config_(validated(std::move(config))),
      store_(config_.memBytes),
      allocator_(store_, config_.memBytes - config_.iRegionBytes),
      injector_(fault::FaultModel(config_.faultModel), config_.faultSeed),
      model_(config_.energy, config_.hierarchy.l1d, config_.hierarchy.l1i,
             config_.hierarchy.l2),
      account_(&model_),
      hierarchy_(config_.hierarchy, &store_, &injector_, &account_),
      iRegionBase_(config_.memBytes - config_.iRegionBytes),
      codeBytes_(config_.iRegionBytes)
{
    injector_.setEnabled(config_.injectionEnabled);
    if (config_.faultMap.enabled()) {
        const fault::FaultMapGeometry geom{
            config_.hierarchy.l1d.sets(), config_.hierarchy.l1d.assoc,
            config_.hierarchy.l1d.lineBytes};
        if (config_.faultMap.mode == fault::FaultMapMode::File) {
            auto map = std::make_unique<fault::FaultMap>();
            const std::string err =
                fault::FaultMap::loadFile(config_.faultMap.path, *map);
            if (!err.empty())
                fatal("%s", err.c_str());
            if (!(map->geometry() == geom))
                fatal("fault map %s is for a %ux%u/%uB array, not the "
                      "L1D's %ux%u/%uB",
                      config_.faultMap.path.c_str(),
                      map->geometry().sets, map->geometry().ways,
                      map->geometry().lineBytes, geom.sets, geom.ways,
                      geom.lineBytes);
            faultMap_ = std::move(map);
        } else {
            faultMap_ = std::make_unique<fault::FaultMap>(
                fault::FaultMap::generate(
                    geom, config_.faultMap.params,
                    config_.faultMap.effectiveSeed()));
        }
        injector_.attachMap(faultMap_.get());
    }
    if (config_.dynamicFrequency) {
        freqCtl_ = std::make_unique<FreqController>(config_.freqCtl);
        hierarchy_.setCycleTime(freqCtl_->currentCr());
    } else {
        hierarchy_.setCycleTime(config_.staticCr);
    }
}

void
ClumsyProcessor::chargePortWait(const mem::Access &acc)
{
    // The access's own L2 service time is already inside acc.latency,
    // so the port-use window ends at the new local time; the arbiter
    // reports only the extra wait caused by other engines.
    const Quanta wait = l2Port_->requestPort(
        l2PortId_, cycles_ - l2PortOrigin_, acc.l2Accesses,
        acc.l2Misses, acc.l2Lines, acc.l2LineCount);
    if (wait > 0) {
        cycles_ += wait;
        l2PortWaitQuanta_ += wait;
        ++l2PortWaits_;
    }
}

void
ClumsyProcessor::setCodeRegion(SimSize offset, SimSize bytes)
{
    CLUMSY_ASSERT(bytes > 0 && offset + bytes <= config_.iRegionBytes,
                  "code region outside the instruction region");
    codeOffset_ = offset;
    codeBytes_ = bytes;
    pcOffset_ = 0;
}

SimAddr
ClumsyProcessor::alloc(SimSize size, SimSize align)
{
    return allocator_.alloc(size, align);
}

void
ClumsyProcessor::dmaWrite(SimAddr addr, const std::uint8_t *src,
                          SimSize len)
{
    CLUMSY_ASSERT(store_.contains(addr, len), "DMA outside DRAM");
    // Flush first: partially-covered lines may hold unrelated dirty
    // data that must reach DRAM before the device writes its bytes.
    hierarchy_.flushRange(addr, len);
    store_.writeBlock(addr, src, len);
}

std::uint32_t
ClumsyProcessor::peek32(SimAddr addr) const
{
    CLUMSY_ASSERT(addr % 4 == 0, "peek32 must be aligned");
    return hierarchy_.peekWord(addr);
}

std::uint32_t
ClumsyProcessor::hostRead32(SimAddr addr)
{
    if (addr % 4 != 0 || !store_.contains(addr, 4)) [[unlikely]] {
        raiseFatal("wild pointer in a host walk");
        return 0;
    }
    return hierarchy_.peekWord(addr);
}

std::uint8_t
ClumsyProcessor::peek8(SimAddr addr) const
{
    const std::uint32_t word = hierarchy_.peekWord(addr & ~SimAddr{3});
    return static_cast<std::uint8_t>(word >> ((addr & 3u) * 8));
}

void
ClumsyProcessor::raiseFatal(const std::string &reason)
{
    if (fatal_)
        return;
    fatal_ = true;
    fatalReason_ = reason;
}

void
ClumsyProcessor::LoopGuard::exhausted()
{
    proc_.raiseFatal(std::string("infinite loop in ") + what_);
}

void
ClumsyProcessor::beginPacket()
{
    // Nothing yet: packet starts are implicit. Kept for symmetry and
    // for future per-packet bookkeeping.
}

void
ClumsyProcessor::endPacket()
{
    ++packets_;
    if (!freqCtl_ || freqCtl_->config().externalEpochs)
        return;
    if (packets_ % freqCtl_->epochPackets() != 0)
        return;
    closeEpoch(EpochObservation{});
}

void
ClumsyProcessor::closeEpoch(const EpochObservation &obs)
{
    const std::uint64_t total = observedFaults();
    EpochObservation fed = obs;
    fed.epochFaults = total - epochStartFaults_;
    epochStartFaults_ = total;
    const FreqController::Decision d = freqCtl_->onEpochEnd(fed);
    if (d.changed) {
        hierarchy_.setCycleTime(d.cr);
        cycles_ += cyclesToQuanta(d.penaltyCycles);
    }
}

void
ClumsyProcessor::closeDvsEpoch(double queuePressure)
{
    if (!freqCtl_)
        return;
    EpochObservation obs;
    obs.hasQueuePressure = true;
    obs.queuePressure = queuePressure;
    closeEpoch(obs);
}

std::uint64_t
ClumsyProcessor::observedFaults() const
{
    if (mem::usesParity(config_.hierarchy.scheme))
        return hierarchy_.stats().get("parity_trips");
    return injector_.faultCount();
}

PicoJoules
ClumsyProcessor::totalEnergyPj() const
{
    return account_.totalPj() +
           quantaToCycles(cycles_) * model_.restPerCyclePj();
}

void
ClumsyProcessor::setInjectionEnabled(bool enabled)
{
    injector_.setEnabled(enabled);
}

void
ClumsyProcessor::attachL2Port(mem::L2PortArbiter *port,
                              unsigned requesterId, Quanta origin)
{
    l2Port_ = port;
    l2PortId_ = requesterId;
    l2PortOrigin_ = origin;
}

} // namespace clumsy::core
