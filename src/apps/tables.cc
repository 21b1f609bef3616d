#include "apps/tables.hh"

#include <cstring>

#include "common/logging.hh"

namespace clumsy::apps
{

namespace
{

/** FNV-1a mix helper shared by the audit checksums. */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;
    void mix(std::uint32_t v) { h = (h ^ v) * 1099511628211ull; }
};

} // namespace

// --- RouteTable -----------------------------------------------------

RouteTable::RouteTable(core::ClumsyProcessor &proc,
                       const std::vector<std::uint32_t> &destinations,
                       std::uint32_t timedTail)
    : radix_(proc)
{
    CLUMSY_ASSERT(!destinations.empty(), "route table needs routes");
    count_ = static_cast<std::uint32_t>(destinations.size());
    base_ = proc.alloc(count_ * kEntryBytes, 4);
    const std::uint32_t bulk =
        count_ > timedTail ? count_ - timedTail : 0;

    // Bulk of the FIB arrives from the control card via DMA.
    if (bulk > 0) {
        std::vector<std::uint8_t> blob(bulk * kEntryBytes);
        std::vector<std::uint32_t> keys, values;
        keys.reserve(bulk);
        values.reserve(bulk);
        for (std::uint32_t i = 0; i < bulk; ++i) {
            const std::uint32_t dst = destinations[i];
            const std::uint32_t words[4] = {
                nextHopFor(dst), i % kNumInterfaces,
                1 + (dst & 0xf), 0x1};
            std::memcpy(&blob[i * kEntryBytes], words, kEntryBytes);
            keys.push_back(dst);
            values.push_back(i);
            index_.emplace(dst, i);
        }
        proc.dmaWrite(base_, blob.data(),
                      static_cast<SimSize>(blob.size()));
        radix_.bulkInstall(proc, keys, values);
    }

    // The tail is installed by the data processor's own control-plane
    // code through the timed, faulty path.
    for (std::uint32_t i = bulk; i < count_; ++i) {
        const std::uint32_t dst = destinations[i];
        const SimAddr e = entryAddr(i);
        proc.write32(e + 0, nextHopFor(dst));
        proc.write32(e + 4, i % kNumInterfaces);
        proc.write32(e + 8, 1 + (dst & 0xf)); // metric
        proc.write32(e + 12, 0x1);            // flags: up
        proc.execute(12);
        index_.emplace(dst, i);
        radix_.insert(proc, dst, i);
        if (proc.fatalOccurred())
            return;
    }
}

std::uint32_t
RouteTable::goldenIndex(std::uint32_t dst) const
{
    const std::uint32_t *idx = index_.find(dst);
    return idx ? *idx : RadixTree::kNoMatch;
}

std::uint64_t
RouteTable::auditEntry(const core::ClumsyProcessor &proc,
                       std::uint32_t idx) const
{
    Fnv f;
    const SimAddr e = entryAddr(idx);
    f.mix(proc.peek32(e + 0));
    f.mix(proc.peek32(e + 4));
    f.mix(proc.peek32(e + 8));
    f.mix(proc.peek32(e + 12));
    return f.h;
}

std::uint32_t
RouteTable::lookupIndex(core::ClumsyProcessor &proc, std::uint32_t dst,
                        core::ValueRecorder *rec,
                        const char *recKey) const
{
    return radix_.lookup(proc, dst, rec, recKey);
}

std::uint32_t
RouteTable::loadNextHop(core::ClumsyProcessor &proc,
                        std::uint32_t idx) const
{
    proc.execute(2);
    return proc.read32(entryAddr(idx) + 0);
}

std::uint32_t
RouteTable::loadIface(core::ClumsyProcessor &proc,
                      std::uint32_t idx) const
{
    proc.execute(2);
    return proc.read32(entryAddr(idx) + 4);
}

std::uint64_t
RouteTable::auditChecksum(const core::ClumsyProcessor &proc,
                          unsigned maxEntries) const
{
    Fnv f;
    const std::uint32_t n =
        count_ < maxEntries ? count_ : maxEntries;
    for (std::uint32_t i = 0; i < n; ++i) {
        const SimAddr e = entryAddr(i);
        f.mix(proc.peek32(e + 0));
        f.mix(proc.peek32(e + 4));
        f.mix(proc.peek32(e + 8));
        f.mix(proc.peek32(e + 12));
    }
    return f.h;
}

// --- NatTable -------------------------------------------------------

NatTable::NatTable(core::ClumsyProcessor &proc, std::uint32_t capacity)
    : radix_(proc), capacity_(capacity)
{
    CLUMSY_ASSERT(capacity_ > 0, "NAT table needs capacity");
    base_ = proc.alloc(capacity_ * kEntryBytes, 4);
    countAddr_ = proc.alloc(4, 4);
    proc.write32(countAddr_, 0);
    proc.execute(4);
}

std::uint32_t
NatTable::translate(core::ClumsyProcessor &proc, std::uint32_t privIp,
                    core::ValueRecorder *rec, const char *recKey)
{
    const std::uint32_t found = radix_.lookup(proc, privIp, rec, recKey);
    if (found != RadixTree::kNoMatch)
        return found;

    // First packet of this source: create the binding (NAPT).
    const std::uint32_t idx = proc.read32(countAddr_);
    proc.execute(3);
    if (idx >= capacity_) {
        // Table full (or the counter was corrupted upward): drop.
        return RadixTree::kNoMatch;
    }
    const SimAddr e = base_ + idx * kEntryBytes;
    proc.write32(e + 0, privIp);
    proc.write32(e + 4, publicIpFor(idx));
    proc.write32(e + 8, 30000u + idx);
    proc.write32(e + 12, idx % 4); // egress interface
    proc.write32(countAddr_, idx + 1);
    proc.execute(14);
    radix_.insert(proc, privIp, idx);
    return idx;
}

void
NatTable::noteArrival(std::uint32_t privIp)
{
    // nextIdx_ tracks the simulated counter cell: monotone, never
    // recycled, so indices stay aligned even after removeBinding().
    if (!index_.contains(privIp) && nextIdx_ < capacity_)
        index_.emplace(privIp, nextIdx_++);
}

void
NatTable::removeBinding(core::ClumsyProcessor &proc, std::uint32_t privIp)
{
    // Tombstone: lookups treat a stored kNoMatch as a miss, so the
    // next packet from this source walks the miss path and installs a
    // fresh binding. The leaf-value store is the in-place single-word
    // publish whose dirty L2 line the shared-cache divergence bitmap
    // tracks.
    radix_.insert(proc, privIp, RadixTree::kNoMatch);
    index_.erase(privIp);
}

std::uint32_t
NatTable::goldenIndex(std::uint32_t privIp) const
{
    const std::uint32_t *idx = index_.find(privIp);
    return idx ? *idx : RadixTree::kNoMatch;
}

std::uint64_t
NatTable::auditEntry(const core::ClumsyProcessor &proc,
                     std::uint32_t idx) const
{
    Fnv f;
    const SimAddr e = base_ + idx * kEntryBytes;
    f.mix(proc.peek32(e + 0));
    f.mix(proc.peek32(e + 4));
    f.mix(proc.peek32(e + 8));
    f.mix(proc.peek32(e + 12));
    return f.h;
}

std::uint32_t
NatTable::loadPublicIp(core::ClumsyProcessor &proc,
                       std::uint32_t idx) const
{
    proc.execute(2);
    return proc.read32(base_ + idx * kEntryBytes + 4);
}

std::uint32_t
NatTable::loadIface(core::ClumsyProcessor &proc, std::uint32_t idx) const
{
    proc.execute(2);
    return proc.read32(base_ + idx * kEntryBytes + 12);
}

std::uint32_t
NatTable::loadCount(core::ClumsyProcessor &proc) const
{
    proc.execute(2);
    return proc.read32(countAddr_);
}

std::uint64_t
NatTable::auditChecksum(const core::ClumsyProcessor &proc,
                        unsigned maxEntries) const
{
    Fnv f;
    const std::uint32_t count = proc.peek32(countAddr_);
    const std::uint32_t bounded =
        count < capacity_ ? count : capacity_;
    const std::uint32_t n =
        bounded < maxEntries ? bounded : maxEntries;
    f.mix(count);
    for (std::uint32_t i = 0; i < n; ++i) {
        const SimAddr e = base_ + i * kEntryBytes;
        f.mix(proc.peek32(e + 0));
        f.mix(proc.peek32(e + 4));
        f.mix(proc.peek32(e + 8));
        f.mix(proc.peek32(e + 12));
    }
    return f.h;
}

// --- SessionTable ---------------------------------------------------

SessionTable::SessionTable(core::ClumsyProcessor &proc,
                           std::uint32_t capacity,
                           std::uint32_t timeoutPackets)
    : capacity_(capacity), timeout_(timeoutPackets), mirror_(capacity)
{
    CLUMSY_ASSERT(capacity_ > 0, "session table needs capacity");
    CLUMSY_ASSERT(timeout_ > 0, "session timeout must be >= 1");
    base_ = proc.alloc(capacity_ * kEntryBytes, 4);
    // The table boots empty: a zero occupied word marks a free slot.
    std::vector<std::uint8_t> zeros(capacity_ * kEntryBytes, 0);
    proc.dmaWrite(base_, zeros.data(),
                  static_cast<SimSize>(zeros.size()));
}

std::uint32_t
SessionTable::hashKey(const FlowKey &key) const
{
    Fnv f;
    f.mix(key.src);
    f.mix(key.dst);
    f.mix(static_cast<std::uint32_t>(key.srcPort) << 16 | key.dstPort);
    f.mix(key.proto);
    return static_cast<std::uint32_t>(f.h % capacity_);
}

SessionTable::LookupResult
SessionTable::lookup(core::ClumsyProcessor &proc, const FlowKey &key,
                     std::uint32_t now, core::ValueRecorder *rec,
                     const char *recKey)
{
    const std::uint32_t home = hashKey(key);
    const std::uint32_t portWord =
        static_cast<std::uint32_t>(key.srcPort) << 16 | key.dstPort;
    const std::uint32_t protoWord =
        static_cast<std::uint32_t>(key.proto) << 16 | 0x1u;

    auto install = [&](std::uint32_t slot) {
        const SimAddr e = entryAddr(slot);
        proc.write32(e + 0, key.src);
        proc.write32(e + 4, key.dst);
        proc.write32(e + 8, portWord);
        proc.write32(e + 12, protoWord);
        proc.write32(e + 16, natPortFor(slot));
        proc.write32(e + 20, now);
        proc.write32(e + 24, 0);
        proc.write32(e + 28, 0);
        proc.execute(20);
    };

    for (std::uint32_t i = 0; i < kMaxProbes; ++i) {
        const std::uint32_t slot = (home + i) % capacity_;
        if (rec)
            rec->record(recKey, slot);
        const SimAddr e = entryAddr(slot);
        const std::uint32_t state = proc.read32(e + 12);
        proc.execute(3);
        if ((state & 0x1u) == 0) {
            // Free slot: the session starts here.
            install(slot);
            return {slot, true, false};
        }
        const std::uint32_t seen = proc.read32(e + 20);
        proc.execute(2);
        if (now - seen > timeout_) {
            // The incumbent timed out: evict it in place. (Unsigned
            // wrap on a corrupted clock reads as expired — one more
            // way a fault surfaces as a wrong slot assignment.)
            install(slot);
            return {slot, true, true};
        }
        const std::uint32_t src = proc.read32(e + 0);
        const std::uint32_t dst = proc.read32(e + 4);
        const std::uint32_t ports = proc.read32(e + 8);
        proc.execute(6);
        if (src == key.src && dst == key.dst && ports == portWord &&
            state == protoWord) {
            // Live match: refresh the idle clock.
            proc.write32(e + 20, now);
            proc.execute(3);
            return {slot, false, false};
        }
        if (proc.fatalOccurred())
            return {kNoSlot, false, false};
    }
    // Probe window exhausted by live strangers: drop the packet.
    return {kNoSlot, false, false};
}

std::uint32_t
SessionTable::flushWindow(core::ClumsyProcessor &proc,
                          std::uint32_t start, std::uint32_t count)
{
    std::uint32_t flushed = 0;
    const std::uint32_t n = count < capacity_ ? count : capacity_;
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t slot = (start + i) % capacity_;
        const SimAddr e = entryAddr(slot);
        // Timed read-modify-write of the occupied word: the flush
        // itself runs on the faultable path.
        const std::uint32_t state = proc.read32(e + 12);
        proc.execute(2);
        if ((state & 0x1u) != 0) {
            proc.write32(e + 12, 0);
            proc.execute(2);
        }
        if (proc.fatalOccurred())
            return flushed;
        // Host mirror is the ground truth the audits compare against.
        HostEntry &h = mirror_[slot];
        if (h.used) {
            h.used = false;
            ++flushed;
            ++hostFlushed_;
        }
    }
    return flushed;
}

void
SessionTable::account(core::ClumsyProcessor &proc, std::uint32_t slot,
                      std::uint32_t bytes)
{
    const SimAddr e = entryAddr(slot);
    proc.write32(e + 24, proc.read32(e + 24) + 1);
    proc.write32(e + 28, proc.read32(e + 28) + bytes);
    proc.execute(6);
}

std::uint16_t
SessionTable::loadNatPort(core::ClumsyProcessor &proc,
                          std::uint32_t slot) const
{
    proc.execute(2);
    return static_cast<std::uint16_t>(proc.read32(entryAddr(slot) + 16));
}

std::uint32_t
SessionTable::loadPktCount(core::ClumsyProcessor &proc,
                           std::uint32_t slot) const
{
    proc.execute(2);
    return proc.read32(entryAddr(slot) + 24);
}

std::uint32_t
SessionTable::loadByteCount(core::ClumsyProcessor &proc,
                            std::uint32_t slot) const
{
    proc.execute(2);
    return proc.read32(entryAddr(slot) + 28);
}

std::uint64_t
SessionTable::auditEntry(const core::ClumsyProcessor &proc,
                         std::uint32_t slot) const
{
    Fnv f;
    const SimAddr e = entryAddr(slot);
    for (SimSize off = 0; off < kEntryBytes; off += 4)
        f.mix(proc.peek32(e + off));
    return f.h;
}

SessionTable::LookupResult
SessionTable::noteArrival(const FlowKey &key, std::uint32_t now)
{
    // The same probe sequence and expiry rule as lookup(), on host
    // state the injector cannot touch.
    const std::uint32_t home = hashKey(key);
    auto sameKey = [&](const HostEntry &h) {
        return h.key.src == key.src && h.key.dst == key.dst &&
               h.key.srcPort == key.srcPort &&
               h.key.dstPort == key.dstPort && h.key.proto == key.proto;
    };
    for (std::uint32_t i = 0; i < kMaxProbes; ++i) {
        const std::uint32_t slot = (home + i) % capacity_;
        HostEntry &h = mirror_[slot];
        if (!h.used) {
            h.used = true;
            h.key = key;
            h.lastSeen = now;
            ++hostCreated_;
            return {slot, true, false};
        }
        if (now - h.lastSeen > timeout_) {
            h.key = key;
            h.lastSeen = now;
            ++hostCreated_;
            ++hostEvicted_;
            return {slot, true, true};
        }
        if (sameKey(h)) {
            h.lastSeen = now;
            return {slot, false, false};
        }
    }
    ++hostDropped_;
    return {kNoSlot, false, false};
}

// --- UrlTable -------------------------------------------------------

UrlTable::UrlTable(core::ClumsyProcessor &proc,
                   const std::vector<std::string> &urls,
                   const std::vector<std::uint32_t> &destinations,
                   std::uint32_t timedTail)
{
    CLUMSY_ASSERT(!urls.empty() && !destinations.empty(),
                  "URL table needs URLs and destinations");
    count_ = static_cast<std::uint32_t>(urls.size());
    base_ = proc.alloc(count_ * kEntryBytes, 4);
    const std::uint32_t bulk =
        count_ > timedTail ? count_ - timedTail : 0;

    for (std::uint32_t i = 0; i < count_; ++i) {
        const std::string &url = urls[i];
        const auto len = static_cast<std::uint32_t>(url.size());
        const SimAddr str = proc.alloc(len, 4);
        const SimAddr e = base_ + i * kEntryBytes;
        const std::uint32_t words[4] = {
            str, len, destinations[i % destinations.size()], 0};
        if (i < bulk) {
            // Configuration download: string + record via DMA.
            proc.dmaWrite(str,
                          reinterpret_cast<const std::uint8_t *>(
                              url.data()),
                          len);
            proc.dmaWrite(e,
                          reinterpret_cast<const std::uint8_t *>(words),
                          kEntryBytes);
        } else {
            // Locally-added entries go through the timed path.
            for (std::uint32_t b = 0; b < len; ++b) {
                proc.write8(str + b,
                            static_cast<std::uint8_t>(url[b]));
                proc.execute(2);
            }
            proc.write32(e + 0, words[0]);
            proc.write32(e + 4, words[1]);
            proc.write32(e + 8, words[2]);
            proc.write32(e + 12, words[3]);
            proc.execute(10);
        }
        if (proc.fatalOccurred())
            return;
    }
}

std::uint32_t
UrlTable::match(core::ClumsyProcessor &proc, SimAddr urlAddr,
                std::uint32_t urlLen) const
{
    for (std::uint32_t i = 0; i < count_; ++i) {
        const SimAddr e = base_ + i * kEntryBytes;
        const std::uint32_t len = proc.read32(e + 4);
        proc.execute(4);
        if (len != urlLen)
            continue;
        const SimAddr str = proc.read32(e + 0);
        proc.execute(2);
        bool equal = true;
        core::ClumsyProcessor::LoopGuard guard(proc, 4096,
                                               "url compare");
        for (std::uint32_t b = 0; b < len; ++b) {
            if (!guard.tick())
                return kNoMatch;
            const std::uint8_t a = proc.read8(str + b);
            const std::uint8_t c = proc.read8(urlAddr + b);
            proc.execute(4);
            if (a != c) {
                equal = false;
                break;
            }
        }
        if (proc.fatalOccurred())
            return kNoMatch;
        if (equal)
            return i;
    }
    return kNoMatch;
}

std::uint32_t
UrlTable::loadDest(core::ClumsyProcessor &proc, std::uint32_t idx) const
{
    proc.execute(2);
    return proc.read32(base_ + idx * kEntryBytes + 8);
}

std::uint64_t
UrlTable::auditEntry(const core::ClumsyProcessor &proc,
                     std::uint32_t idx) const
{
    Fnv f;
    const SimAddr e = base_ + idx * kEntryBytes;
    const SimAddr str = proc.peek32(e + 0);
    const std::uint32_t len = proc.peek32(e + 4);
    f.mix(str);
    f.mix(len);
    f.mix(proc.peek32(e + 8));
    // Hash the string bytes too (bounded in case len was corrupted).
    const std::uint32_t bounded = len < 96 ? len : 96;
    const SimAddr memLimit = proc.config().memBytes;
    for (std::uint32_t b = 0; b < bounded; ++b) {
        if (str + b >= memLimit) {
            f.mix(0xdeadbeefu);
            break;
        }
        f.mix(proc.peek8(str + b));
    }
    return f.h;
}

std::uint64_t
UrlTable::auditChecksum(const core::ClumsyProcessor &proc,
                        unsigned maxEntries) const
{
    Fnv f;
    const std::uint32_t n =
        count_ < maxEntries ? count_ : maxEntries;
    for (std::uint32_t i = 0; i < n; ++i) {
        const SimAddr e = base_ + i * kEntryBytes;
        f.mix(proc.peek32(e + 0));
        f.mix(proc.peek32(e + 4));
        f.mix(proc.peek32(e + 8));
    }
    return f.h;
}

} // namespace clumsy::apps
