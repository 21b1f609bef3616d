#include "traffic/traffic.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/types.hh"

namespace clumsy::traffic
{

namespace
{

/**
 * Decorrelates the churn RNG from the packet-body stream RNG (both
 * derive from the same trace seed): flow births, slot picks and burst
 * draws must never perturb TTL/id/payload bytes, or a churn-knob
 * change would silently rewrite every packet body.
 */
constexpr std::uint64_t kChurnSeedSalt = 0xf10c4a811ce5eedull;

} // namespace

FlowTable::FlowTable(const net::TraceGenerator &gen, Rng &rng,
                     const net::ChurnConfig &churn, std::uint32_t slots)
{
    CLUMSY_ASSERT(slots > 0, "flow table needs at least one slot");
    slots_.reserve(slots);
    for (std::uint32_t i = 0; i < slots; ++i) {
        FlowSlot s;
        s.tuple = gen.drawFlow(rng);
        s.remaining = drawLifetime(rng, churn);
        slots_.push_back(s);
        ++opened_;
    }
}

std::uint64_t
FlowTable::drawLifetime(Rng &rng, const net::ChurnConfig &churn)
{
    // Geometric on {1, 2, ...} via inversion: success probability
    // p = 1/mean gives mean `mean`. mean <= 1 degenerates to L = 1.
    const double mean = churn.meanLifetimePackets;
    const double u = rng.uniform();
    if (mean <= 1.0)
        return 1;
    const double p = 1.0 / mean;
    const double draws = std::log1p(-u) / std::log1p(-p);
    if (draws >= 1e18) // guard the cast; astronomically rare
        return static_cast<std::uint64_t>(1e18);
    return 1 + static_cast<std::uint64_t>(draws);
}

bool
FlowTable::consume(std::size_t slot, const net::TraceGenerator &gen,
                   Rng &rng, const net::ChurnConfig &churn)
{
    FlowSlot &s = slots_[slot];
    CLUMSY_ASSERT(s.remaining > 0, "consuming a closed flow");
    if (--s.remaining > 0)
        return false;
    ++closed_;
    s.tuple = gen.drawFlow(rng);
    s.remaining = drawLifetime(rng, churn);
    ++opened_;
    return true;
}

ChurnSource::ChurnSource(const net::TraceConfig &config,
                         std::int64_t nominalGapCycles)
    : gen_(config), churnRng_(config.seed ^ kChurnSeedSalt),
      flows_(gen_, churnRng_, config.churn, config.numFlows),
      slotPackets_(config.numFlows, 0), nominalGap_(nominalGapCycles)
{
    // Slot picks sample the generator's flow-popularity table, which
    // ranks exactly as many flows as the live table holds.
    CLUMSY_ASSERT(gen_.flowPopularity().size() == flows_.size(),
                  "flow popularity does not match the flow table");
}

std::uint64_t
ChurnSource::drawBurst(Rng &rng, const net::ChurnConfig &churn)
{
    // Discrete Pareto: ccdf P[B > x] ~ (minBurst / x)^alpha. u is in
    // [0, 1), so 1-u is in (0, 1] and the scale draw is >= 1.
    const double u = rng.uniform();
    const double scale =
        std::pow(1.0 - u, -1.0 / churn.burstAlpha);
    const double burst = static_cast<double>(churn.minBurst) * scale;
    const double cap = 4294967296.0; // 2^32: beyond any real run
    if (burst >= cap)
        return static_cast<std::uint64_t>(cap);
    const auto b = static_cast<std::uint64_t>(burst);
    return b < churn.minBurst ? churn.minBurst : b;
}

double
ChurnSource::rampFactor(std::uint64_t seq) const
{
    const net::ChurnConfig &c = gen_.config().churn;
    if (c.rampPackets == 0 || seq >= c.rampPackets)
        return 1.0;
    const double t = static_cast<double>(seq) /
                     static_cast<double>(c.rampPackets);
    return c.rampStartFactor + (1.0 - c.rampStartFactor) * t;
}

void
ChurnSource::nextInto(net::Packet &pkt)
{
    const net::ChurnConfig &churn = gen_.config().churn;

    // ON/OFF burstiness: when the current burst is spent, start a new
    // one; its first packet sits an OFF gap behind its predecessor.
    bool burstStart = false;
    if (burstRemaining_ == 0) {
        burstRemaining_ = drawBurst(churnRng_, churn);
        ++counters_.bursts;
        burstStart = counters_.packets > 0;
    }
    --burstRemaining_;

    // Zipf-popular slot pick: rank 1 is the hottest live flow.
    const auto slot = static_cast<std::size_t>(
        gen_.flowPopularity().sample(churnRng_) - 1);

    // The packet the first arrival of the stream lands at t = 0; each
    // later packet trails its predecessor by the nominal gap scaled
    // by the warm-up ramp, stretched by the OFF factor at burst
    // boundaries.
    if (counters_.packets > 0) {
        double factor = rampFactor(counters_.packets);
        if (burstStart)
            factor *= churn.offGapFactor;
        arrival_ += static_cast<std::int64_t>(std::llround(
            static_cast<double>(nominalGap_) * factor));
    }

    gen_.emit(flows_.tuple(slot), pkt);
    ++slotPackets_[slot];
    ++counters_.packets;
    flows_.consume(slot, gen_, churnRng_, churn);
}

std::unique_ptr<PacketSource>
makeSource(const net::TraceConfig &config, std::int64_t nominalGapCycles)
{
    config.validate();
    if (config.churn.enabled)
        return std::make_unique<ChurnSource>(config, nominalGapCycles);
    return std::make_unique<StaticSource>(config, nominalGapCycles);
}

TraceRecording::TraceRecording(PacketSource &source,
                               std::uint64_t packets)
    : config_(source.config())
{
    packets_.reserve(packets);
    // Reserve the payloads' expected size with some slack, so the
    // arena seldom regrows (a regrowth briefly holds two copies).
    if (!config_.httpPayloads)
        arena_.reserve(packets *
                       (config_.minPayload + config_.maxPayload) / 2 *
                       9 / 8);
    net::Packet pkt;
    for (std::uint64_t i = 0; i < packets && !source.atEnd(); ++i) {
        source.nextInto(pkt);
        Entry &e = packets_.emplace_back();
        e.seq = pkt.seq;
        e.ip = pkt.ip;
        e.srcPort = pkt.srcPort;
        e.dstPort = pkt.dstPort;
        e.length = static_cast<std::uint32_t>(pkt.payload.size());
        e.offset = arena_.size();
        e.arrival = source.lastArrivalCycles();
        maxLength_ = std::max(maxLength_, e.length);
        arena_.insert(arena_.end(), pkt.payload.begin(), pkt.payload.end());
    }
}

void
TraceRecording::copyInto(std::size_t i, net::Packet &pkt) const
{
    const Entry &e = packets_[i];
    pkt.seq = e.seq;
    pkt.ip = e.ip;
    pkt.srcPort = e.srcPort;
    pkt.dstPort = e.dstPort;
    // Size a recycled buffer for the longest payload at once, not by
    // regrowing it each time a packet outgrows it.
    pkt.payload.reserve(maxLength_);
    const auto *bytes = arena_.data() + e.offset;
    pkt.payload.assign(bytes, bytes + e.length);
}

void
ReplaySource::nextInto(net::Packet &pkt)
{
    CLUMSY_ASSERT(next_ < rec_->size(), "replay past the recording");
    rec_->copyInto(next_, pkt);
    arrival_ = rec_->arrivalCycles(next_);
    ++next_;
}

void
checkArrivalSpan(const std::string &option, std::int64_t gapCycles,
                 std::uint64_t packets)
{
    // The churn model stretches a gap at most by its OFF factor (its
    // ramp starts at 1), so the last arrival is within
    // (packets - 1) * gap * stretch base cycles.
    const auto stretch = static_cast<std::uint64_t>(
        std::ceil(std::max(1.0, net::ChurnConfig{}.offGapFactor)));
    const auto maxSpan = static_cast<std::uint64_t>(
        std::numeric_limits<Quanta>::max() / kQuantaPerCycle) / stretch;
    if (packets > 1 &&
        static_cast<std::uint64_t>(gapCycles) > maxSpan / (packets - 1))
        fatal("%s: '%lld' is out of range: %llu packets that far apart "
              "arrive past the simulated clock's limit",
              option.c_str(), static_cast<long long>(gapCycles),
              static_cast<unsigned long long>(packets));
}

} // namespace clumsy::traffic
