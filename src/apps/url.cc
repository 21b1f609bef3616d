#include "apps/url.hh"

#include "net/checksum.hh"
#include "net/trace_gen.hh"

namespace clumsy::apps
{

net::TraceConfig
UrlApp::traceConfig() const
{
    net::TraceConfig cfg;
    cfg.httpPayloads = true;
    cfg.numUrls = 96;
    cfg.numDestinations = 1024;
    cfg.numFlows = 512;
    cfg.destZipf = 0.6;
    return cfg;
}

void
UrlApp::initialize(ClumsyProcessor &proc)
{
    allocStaging(proc);
    proc.setCodeRegion(0, 6144); // parser + matcher + forwarder
    const auto cfg = traceConfig();
    const auto pool = net::TraceGenerator::makeDestPool(cfg);
    const auto urlPool = net::TraceGenerator::makeUrlPool(cfg);
    urls_ = std::make_unique<UrlTable>(proc, urlPool, pool);
    routes_ = std::make_unique<RouteTable>(proc, pool, 16);
    destPool_ = pool;
    for (std::uint32_t i = 0; i < urlPool.size(); ++i)
        urlIndex_.emplace(urlPool[i], i);
}

void
UrlApp::processPacket(ClumsyProcessor &proc, const net::Packet &pkt,
                      ValueRecorder &rec)
{
    stagePacket(proc, pkt);

    const std::uint32_t len = loadPayloadLen(proc);
    proc.execute(4);
    const SimAddr payload = pktBase() + kPayloadOff;

    // Parse "GET <url> HTTP/..." through timed byte loads.
    static const char kMethod[4] = {'G', 'E', 'T', ' '};
    bool isGet = len >= 8;
    for (unsigned i = 0; isGet && i < 4; ++i) {
        isGet = proc.read8(payload + i) ==
                static_cast<std::uint8_t>(kMethod[i]);
        proc.execute(3);
    }
    if (proc.fatalOccurred())
        return;
    if (!isGet) {
        rec.record("url_entry", UrlTable::kNoMatch);
        return; // not an HTTP GET: pass through unswitched
    }

    std::uint32_t urlEnd = 4;
    ClumsyProcessor::LoopGuard scan(proc, 512, "url scan");
    while (urlEnd < len) {
        if (!scan.tick())
            return;
        if (proc.read8(payload + urlEnd) == ' ')
            break;
        ++urlEnd;
        proc.execute(3);
    }
    if (proc.fatalOccurred())
        return;
    const std::uint32_t urlLen = urlEnd - 4;

    const std::uint32_t entry = urls_->match(proc, payload + 4, urlLen);
    if (proc.fatalOccurred())
        return;
    rec.record("url_entry", entry);
    if (entry == UrlTable::kNoMatch)
        return;

    // Switch the packet to the matched server.
    const std::uint32_t dest = urls_->loadDest(proc, entry);
    if (proc.fatalOccurred())
        return;
    storeDstIp(proc, dest);
    proc.execute(4);
    rec.record("final_dest", dest);

    // TTL decrement + full checksum recompute (the header changed in
    // two places, so URL switches regenerate rather than patch).
    const std::uint8_t ttl = loadTtl(proc);
    proc.execute(3);
    if (ttl <= 1) {
        rec.record("ttl", 0);
        return;
    }
    storeTtl(proc, static_cast<std::uint8_t>(ttl - 1));
    rec.record("ttl", ttl - 1);
    storeChecksum(proc, 0);
    const std::uint16_t sum = checksumStagedHeader(proc);
    if (proc.fatalOccurred())
        return;
    storeChecksum(proc, sum);
    proc.execute(4);
    rec.record("checksum", sum);

    // Forward to the new destination.
    const std::uint32_t idx =
        routes_->lookupIndex(proc, dest, &rec, "radix_node");
    if (proc.fatalOccurred())
        return;
    if (idx == RadixTree::kNoMatch) {
        rec.record("route_entry", 0);
    } else {
        const std::uint32_t nextHop = routes_->loadNextHop(proc, idx);
        if (proc.fatalOccurred())
            return;
        rec.record("route_entry", nextHop);
    }

    // Untimed audits scoped to this packet: the URL entry and the
    // RouteTable entry it should switch to, identified from the wire
    // payload (host truth) so corrupted loads cannot skew the key.
    const std::string_view wire(
        reinterpret_cast<const char *>(pkt.payload.data()),
        pkt.payload.size());
    const auto spPos = wire.starts_with("GET ")
                           ? wire.find(' ', 4)
                           : std::string_view::npos;
    if (spPos != std::string_view::npos) {
        const auto it = urlIndex_.find(wire.substr(4, spPos - 4));
        if (it != urlIndex_.end()) {
            const std::uint32_t uIdx = it->second;
            const std::uint32_t goldenDest =
                destPool_[uIdx % destPool_.size()];
            std::uint64_t h = urls_->auditEntry(proc, uIdx);
            const std::uint32_t rIdx =
                routes_->goldenIndex(goldenDest);
            if (rIdx != RadixTree::kNoMatch)
                h ^= routes_->auditEntry(proc, rIdx);
            rec.record("initialization", h);
        }
    }
}

} // namespace clumsy::apps
