#include "net/trace_gen.hh"

#include <cstdio>
#include <string_view>

#include "common/logging.hh"
#include "net/checksum.hh"

namespace clumsy::net
{

namespace
{

const char *const kUrlStems[] = {
    "/index.html",  "/images/logo.gif", "/api/v1/items", "/static/app.js",
    "/cart",        "/search",          "/login",        "/media/video",
    "/docs/manual", "/feed.xml",
};

/** @p config after validate() (which fatal()s on a bad one). */
TraceConfig
validated(TraceConfig config)
{
    config.validate();
    return config;
}

} // namespace

void
TraceConfig::validate() const
{
    if (numFlows == 0)
        fatal("trace flows must be >= 1 (numFlows=0)");
    if (numDestinations == 0)
        fatal("trace needs at least one destination "
              "(numDestinations=0)");
    if (minPayload > maxPayload)
        fatal("payload bounds inverted (min %u > max %u)", minPayload,
              maxPayload);
    if (destZipf < 0.0)
        fatal("destination Zipf exponent must be >= 0, got %g",
              destZipf);
    if (flowZipf < 0.0)
        fatal("flow Zipf exponent must be >= 0, got %g", flowZipf);
    if (httpPayloads && numUrls == 0)
        fatal("HTTP payloads need at least one URL (numUrls=0)");
    if (churn.meanLifetimePackets < 1.0)
        fatal("mean flow lifetime must be >= 1 packet, got %g",
              churn.meanLifetimePackets);
    if (churn.burstAlpha <= 0.0)
        fatal("burst tail exponent must be > 0, got %g",
              churn.burstAlpha);
    if (churn.minBurst == 0)
        fatal("min burst must be >= 1 packet");
    if (churn.offGapFactor < 0.0)
        fatal("off-gap factor must be >= 0, got %g",
              churn.offGapFactor);
    if (churn.rampStartFactor <= 0.0)
        fatal("ramp start factor must be > 0, got %g",
              churn.rampStartFactor);
}

std::vector<std::uint32_t>
TraceGenerator::makeDestPool(const TraceConfig &config)
{
    Rng rng(config.poolSeed);
    std::vector<std::uint32_t> pool;
    pool.reserve(config.numDestinations);
    for (std::uint32_t i = 0; i < config.numDestinations; ++i) {
        // Public-looking 192/8-ish pool; the 10/8 private space is
        // reserved for NAT-translated sources.
        const auto r = static_cast<std::uint32_t>(rng.next());
        pool.push_back(0xc0000000u | (r & 0x00ffffffu));
    }
    return pool;
}

std::vector<std::string>
TraceGenerator::makeUrlPool(const TraceConfig &config)
{
    std::vector<std::string> pool;
    pool.reserve(config.numUrls);
    const unsigned stems = sizeof(kUrlStems) / sizeof(kUrlStems[0]);
    for (std::uint32_t i = 0; i < config.numUrls; ++i) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s?id=%u", kUrlStems[i % stems],
                      i);
        pool.emplace_back(buf);
    }
    return pool;
}

TraceGenerator::TraceGenerator(TraceConfig config)
    : config_(validated(config)),
      rng_(config.seed),
      recipe_(config_),
      flowZipf_(config_.numFlows, config_.flowZipf),
      urlZipf_(config_.httpPayloads ? config_.numUrls : 0, 1.0)
{
    flows_.reserve(config_.numFlows);
    for (std::uint32_t i = 0; i < config_.numFlows; ++i)
        flows_.push_back(drawFlow(rng_));

    if (config_.httpPayloads)
        urlPool_ = makeUrlPool(config_);
}

FlowRecipe::FlowRecipe(const TraceConfig &config)
    : destinations(TraceGenerator::makeDestPool(config)),
      popularity(destinations.size(), config.destZipf)
{
}

FlowTuple
FlowRecipe::draw(Rng &rng) const
{
    FlowTuple f;
    // Private 10/8 sources (what NAT translates).
    f.src = 0x0a000000u |
            (static_cast<std::uint32_t>(rng.next()) & 0x00ffffffu);
    const auto destIdx = popularity.sample(rng);
    f.dst = destinations[destIdx - 1];
    f.srcPort = static_cast<std::uint16_t>(1024 + rng.below(60000));
    f.dstPort = rng.bernoulli(0.6)
                    ? 80
                    : static_cast<std::uint16_t>(1 + rng.below(1023));
    f.protocol = rng.bernoulli(0.7)
                     ? static_cast<std::uint8_t>(IpProto::Tcp)
                     : static_cast<std::uint8_t>(IpProto::Udp);
    return f;
}

void
TraceGenerator::emit(const FlowTuple &flow, Packet &pkt)
{
    pkt.seq = seq_++;

    pkt.ip = Ipv4Header{};
    pkt.ip.src = flow.src;
    pkt.ip.dst = flow.dst;
    pkt.ip.protocol = flow.protocol;
    pkt.ip.ttl = static_cast<std::uint8_t>(32 + rng_.below(96));
    pkt.ip.id = static_cast<std::uint16_t>(rng_.next());
    pkt.srcPort = flow.srcPort;
    pkt.dstPort = flow.dstPort;

    if (config_.httpPayloads) {
        const auto urlIdx = urlZipf_.sample(rng_) - 1;
        const std::string &url = urlPool_[urlIdx];
        static constexpr std::string_view kGet = "GET ";
        static constexpr std::string_view kTail =
            " HTTP/1.0\r\nHost: h\r\n\r\n";
        pkt.payload.assign(kGet.begin(), kGet.end());
        pkt.payload.insert(pkt.payload.end(), url.begin(), url.end());
        pkt.payload.insert(pkt.payload.end(), kTail.begin(), kTail.end());
    } else {
        const std::uint32_t len =
            config_.minPayload +
            static_cast<std::uint32_t>(rng_.below(
                config_.maxPayload - config_.minPayload + 1));
        // Size a recycled buffer for the largest payload at once, not
        // by regrowing it each time a draw outgrows it.
        pkt.payload.reserve(config_.maxPayload);
        pkt.payload.resize(len);
        // Fill from a local copy: a byte store may alias rng_, which
        // would force the generator state through memory every byte.
        Rng rng = rng_;
        for (auto &b : pkt.payload)
            b = static_cast<std::uint8_t>(rng.next());
        rng_ = rng;
    }

    pkt.ip.totalLen = static_cast<std::uint16_t>(pkt.wireBytes());
    // Compute the wire checksum over the header with checksum = 0.
    pkt.ip.checksum = 0;
    const auto hdr = pkt.ip.toBytes();
    pkt.ip.checksum = internetChecksum(hdr.data(), hdr.size());
}

void
TraceGenerator::nextInto(Packet &pkt)
{
    // Pick a flow with Zipf popularity (hot flows dominate, as in
    // real traces).
    const auto flowIdx = flowZipf_.sample(rng_) - 1;
    emit(flows_[flowIdx], pkt);
}

std::vector<Packet>
TraceGenerator::generate(std::uint64_t n)
{
    std::vector<Packet> trace;
    trace.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        trace.push_back(next());
    return trace;
}

} // namespace clumsy::net
