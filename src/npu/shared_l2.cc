#include "npu/shared_l2.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace clumsy::npu
{

Quanta
SharedL2Port::requestPort(unsigned requester, Quanta endTime,
                          unsigned l2Accesses, unsigned l2Misses,
                          const mem::L2LineUse *lines,
                          unsigned lineCount)
{
    CLUMSY_ASSERT(l2Misses <= l2Accesses,
                  "more L2 misses than port uses");
    const Quanta service =
        static_cast<Quanta>(l2Accesses - l2Misses) * hitService_ +
        static_cast<Quanta>(l2Misses) * missService_;
    stats_.inc(requests_, "requests");
    stats_.inc(portUses_, "port_uses", l2Accesses);
    if (service == 0)
        return 0;

    // The requester's own L2 latency (>= service, enforced by
    // NpuConfig::validate) is already inside endTime, so its port-use
    // window is [endTime - service, endTime). The transfer occupies
    // whichever MSHR frees first; if even that one is still busy with
    // an earlier transfer, the window slides back by the difference
    // and the requester stalls for it. For a lone engine endTime is
    // non-decreasing and each window fits before the next access
    // begins, so no slot ever passes start and the delay is always
    // zero — the private-L2 single-core timing exactly, at any K.
    const Quanta start = endTime - service;
    auto slot = std::min_element(slots_.begin(), slots_.end());
    Quanta begin = start > *slot ? start : *slot;

    // MSHR merging (shared L2 contents only — a private backend marks
    // no line shareable): a hit on a shared frame whose DRAM transfer
    // another engine started, and which is still in flight at this
    // access's start, folds into that transfer's MSHR: the hit cannot
    // complete before the data has actually arrived.
    for (unsigned i = 0; i < lineCount; ++i) {
        if (lines[i].miss || !lines[i].shareable)
            continue;
        const auto it = inflight_.find(lines[i].base);
        if (it == inflight_.end() || it->second.requester == requester)
            continue;
        if (it->second.end > begin) {
            begin = it->second.end;
            stats_.inc(mshrMerges_, "mshr_merges");
        }
    }

    const Quanta delay = begin - start;
    *slot = begin + service;
    if (delay > 0) {
        stats_.inc(contended_, "contended");
        stats_.inc(waitQuanta_, "wait_quanta",
                   static_cast<std::uint64_t>(delay));
    }

    // Modeled DRAM behind the port (line card): every miss line is one
    // DRAM line transfer, issued at the moment the flat-penalty model
    // would have started the DRAM portion of this (possibly
    // port-delayed) access. Transfers to different banks overlap, so
    // the requester stalls for the slowest line only. With no DRAM
    // attached every extra is zero and the pre-DRAM timing stands
    // byte for byte.
    //
    // Record this access's shareable DRAM transfers as merge targets.
    // The per-line completion time is approximated by the whole
    // access's port window end (plus that line's DRAM extra) —
    // conservative by at most the access's other uses' service.
    Quanta dramExtra = 0;
    const Quanta dramReq = *slot - dramFlat_;
    for (unsigned i = 0; i < lineCount; ++i) {
        if (!lines[i].miss)
            continue;
        Quanta extra = 0;
        if (dram_ != nullptr) {
            extra = dram_->request(dramSalt_ + lines[i].base, dramReq);
            dramExtra = std::max(dramExtra, extra);
            stats_.inc(dramRequests_, "dram_requests");
        }
        if (!lines[i].shareable)
            continue;
        inflight_[lines[i].base] = Inflight{requester, *slot + extra};
    }
    if (dramExtra > 0)
        stats_.inc(dramExtraQuanta_, "dram_extra_quanta",
                   static_cast<std::uint64_t>(dramExtra));

    // Bound the table: entries whose transfer has completed relative
    // to the current window can never merge again.
    if (inflight_.size() > 4096) {
        for (auto it = inflight_.begin(); it != inflight_.end();) {
            if (it->second.end <= begin)
                it = inflight_.erase(it);
            else
                ++it;
        }
    }
    return delay + dramExtra;
}

Quanta
SharedL2Port::busyUntil() const
{
    return *std::max_element(slots_.begin(), slots_.end());
}

SharedL2Cache::SharedL2Cache(const mem::CacheGeometry &geom,
                             mem::CheckCodec codec, SimSize memBytes,
                             unsigned peCount)
    : cache_("l2", geom, codec),
      memBytes_(memBytes),
      lineBytes_(geom.lineBytes),
      stride_(memBytes),
      peCount_(peCount),
      stores_(peCount, nullptr),
      energies_(peCount, nullptr),
      views_(peCount),
      engineStats_(peCount),
      diverged_(memBytes / geom.lineBytes, 0),
      flushBuf_(geom.lineBytes)
{
    CLUMSY_ASSERT(peCount >= 1, "shared L2 needs at least one engine");
    CLUMSY_ASSERT(memBytes % geom.lineBytes == 0,
                  "DRAM size must be a multiple of the L2 line size");
    // Divergence seeding compares lines inside store pages.
    CLUMSY_ASSERT(mem::BackingStore::kPageBytes % geom.lineBytes == 0,
                  "L2 lines must not straddle backing-store pages");
    // Coloring must preserve the set index: the stride has to be a
    // multiple of the L2 set span (sets * lineBytes).
    const SimSize setSpan = geom.sets() * geom.lineBytes;
    CLUMSY_ASSERT(stride_ % setSpan == 0,
                  "coloring stride must be a multiple of the set span");
    // Colored keys addr + stride*(pe+1) must fit in SimAddr.
    CLUMSY_ASSERT((static_cast<std::uint64_t>(peCount) + 1) * stride_ <=
                      (std::uint64_t{1} << 32),
                  "too many engines for the coloring stride");
}

SharedL2Cache::View *
SharedL2Cache::attach(unsigned pe, mem::BackingStore *store,
                      energy::EnergyAccount *energy)
{
    CLUMSY_ASSERT(pe < peCount_, "engine id out of range");
    CLUMSY_ASSERT(store != nullptr && store->size() == memBytes_,
                  "engine store size mismatch");
    stores_[pe] = store;
    energies_[pe] = energy;
    views_[pe].bind(this, pe);
    return &views_[pe];
}

void
SharedL2Cache::seedDivergence(const WorkStealingPool *pool)
{
    for (unsigned pe = 0; pe < peCount_; ++pe)
        CLUMSY_ASSERT(stores_[pe] != nullptr,
                      "seedDivergence before every engine attached");
    if (peCount_ == 1)
        return;

    // Only pages some engine has written can differ: a page no engine
    // wrote reads as zero in every store. Listed in ascending order.
    static constexpr SimSize kPageBytes = mem::BackingStore::kPageBytes;
    std::vector<std::size_t> written;
    for (std::size_t p = 0; p < stores_[0]->pageCount(); ++p) {
        for (unsigned pe = 0; pe < peCount_; ++pe) {
            if (stores_[pe]->page(p) != nullptr) {
                written.push_back(p);
                break;
            }
        }
    }

    // Append the lines of page @p p where any engine's bytes differ
    // from engine 0's to @p out, in ascending order. Pure reads,
    // compared in place through the page views: a page an engine
    // never wrote compares as zeros, and an engine whose whole page
    // equals engine 0's is dropped before the per-line compare.
    auto diffPage = [this](std::size_t p, std::vector<SimAddr> &out) {
        auto bytes = [p](const mem::BackingStore *store) {
            const std::uint8_t *page = store->page(p);
            return page ? page : mem::BackingStore::zeroPage();
        };
        const SimAddr first = static_cast<SimAddr>(p * kPageBytes);
        const SimSize span = std::min<SimSize>(kPageBytes,
                                               memBytes_ - first);
        const std::uint8_t *ref = bytes(stores_[0]);
        std::vector<const std::uint8_t *> others;
        for (unsigned pe = 1; pe < peCount_; ++pe) {
            const std::uint8_t *other = bytes(stores_[pe]);
            if (other != ref && std::memcmp(ref, other, span) != 0)
                others.push_back(other);
        }
        if (others.empty())
            return;
        for (SimSize off = 0; off < span; off += lineBytes_) {
            if (diverged(first + off))
                continue;
            for (const std::uint8_t *other : others) {
                if (std::memcmp(ref + off, other + off, lineBytes_) != 0) {
                    out.push_back(first + off);
                    break;
                }
            }
        }
    };

    // With a pool, fan the diff out over contiguous, disjoint runs of
    // the written pages; every job only reads and records its
    // mismatches in its own slot. Either way the marks are applied
    // afterwards in ascending line order — the serial discovery
    // order — so bitmap, count and stats are byte-identical at any
    // worker count.
    const std::size_t jobs =
        pool ? std::clamp<std::size_t>(written.size(), 1, pool->workers())
             : 1;
    std::vector<std::vector<SimAddr>> found(jobs);
    const std::size_t chunk = (written.size() + jobs - 1) / jobs;
    auto diffRun = [&](std::size_t job) {
        const std::size_t lo = job * chunk;
        const std::size_t hi = std::min(written.size(), lo + chunk);
        for (std::size_t i = lo; i < hi; ++i)
            diffPage(written[i], found[job]);
    };
    if (jobs == 1)
        diffRun(0);
    else
        pool->run(jobs, diffRun);
    for (const std::vector<SimAddr> &bases : found) {
        for (const SimAddr base : bases) {
            markDiverged(base);
            stats_.inc("seeded_diverged");
        }
    }
}

void
SharedL2Cache::noteDirtyLines(const mem::Cache &privateL2)
{
    for (const SimAddr base : privateL2.dirtyLineBases())
        markDiverged(base);
}

void
SharedL2Cache::migrateFrom(unsigned pe, const mem::Cache &privateL2)
{
    std::vector<std::uint8_t> buf(lineBytes_);
    for (const SimAddr base : privateL2.residentLineBasesByLru()) {
        const std::size_t line = privateL2.lineOf(base);
        const bool dirty = privateL2.isDirty(line);
        CLUMSY_ASSERT(!dirty || diverged(base),
                      "dirty line migrating into a shared frame");
        if (!diverged(base) && cache_.contains(base)) {
            // Another engine already installed this frame; this
            // engine's copy is byte-identical (non-diverged means
            // clean everywhere and store-identical), so nothing moves.
            continue;
        }
        privateL2.readLine(line, buf.data());
        fill(pe, base, buf.data());
        if (dirty)
            cache_.setDirty(cache_.lineOf(keyFor(pe, base)));
        stats_.inc("migrated_lines");
    }
}

void
SharedL2Cache::markDiverged(SimAddr base)
{
    char &flag = diverged_[base / lineBytes_];
    if (flag)
        return;
    flag = 1;
    ++divergedCount_;
    stats_.inc("diverged_lines");
}

bool
SharedL2Cache::lookup(unsigned pe, SimAddr addr)
{
    const SimAddr base = lineBase(addr);
    const bool hit = cache_.lookup(keyFor(pe, addr)).has_value();
    if (!hit) {
        ++engineStats_[pe].misses;
        return false;
    }
    ++engineStats_[pe].hits;
    if (!diverged(base)) {
        const unsigned *owner = fillOwner_.find(base);
        CLUMSY_ASSERT(owner != nullptr,
                      "shared frame without a fill owner");
        if (*owner != pe)
            ++engineStats_[pe].crossHits;
    }
    return true;
}

void
SharedL2Cache::handleVictim(unsigned pe,
                            const mem::Cache::Evicted &victim)
{
    if (!victim.valid)
        return;
    const SimAddr q = victim.base / stride_;
    if (q == 0) {
        // Shared frame: always clean (every engine's store already
        // holds the bytes), so eviction is free.
        CLUMSY_ASSERT(!victim.dirty, "dirty shared frame");
        const unsigned *owner = fillOwner_.find(victim.base);
        CLUMSY_ASSERT(owner != nullptr,
                      "evicted shared frame without a fill owner");
        if (*owner != pe)
            ++engineStats_[*owner].evictedByOther;
        fillOwner_.erase(victim.base);
        return;
    }
    // Colored line: route the writeback to the OWNER's store — the
    // requester's store may hold different bytes under this address.
    const unsigned owner = static_cast<unsigned>(q - 1);
    CLUMSY_ASSERT(owner < peCount_, "victim key decodes to no engine");
    if (victim.dirty) {
        const SimAddr dramBase = victim.base - stride_ * (q);
        stores_[owner]->writeBlock(
            dramBase, victim.data.data(),
            static_cast<SimSize>(victim.data.size()));
        if (energies_[owner])
            energies_[owner]->addMemAccess();
        stats_.inc(writebacksToMem_, "writebacks_to_mem");
    }
    if (owner != pe)
        ++engineStats_[owner].evictedByOther;
}

void
SharedL2Cache::fill(unsigned pe, SimAddr base, const std::uint8_t *data)
{
    const mem::Cache::Evicted victim =
        cache_.fill(keyFor(pe, base), data);
    handleVictim(pe, victim);
    if (!diverged(base))
        fillOwner_.insertOrAssign(base, pe);
}

bool
SharedL2Cache::contains(unsigned pe, SimAddr addr) const
{
    return cache_.contains(keyFor(pe, addr));
}

void
SharedL2Cache::convertToColored(unsigned pe, SimAddr base)
{
    const mem::LineRef line = cache_.find(base);
    CLUMSY_ASSERT(line.has_value(),
                  "shared->colored conversion of an absent frame");
    CLUMSY_ASSERT(!cache_.isDirty(*line), "dirty shared frame");
    // The stride preserves the set index, so the colored key lives in
    // the same set: the line is re-tagged in place, keeping its LRU
    // position, so a one-engine shared chip ages lines exactly like a
    // private one.
    cache_.retag(base, base + stride_ * (SimAddr{pe} + 1));
    fillOwner_.erase(base);
    markDiverged(base);
    stats_.inc("shared_to_colored");
}

void
SharedL2Cache::writeRange(unsigned pe, SimAddr addr,
                          const std::uint8_t *src, SimSize len,
                          bool markDirty)
{
    const SimAddr base = lineBase(addr);
    // A write makes this engine's copy differ from the others': a
    // shared frame must first become this engine's colored line.
    if (!diverged(base))
        convertToColored(pe, base);
    const SimAddr key = addr + stride_ * (SimAddr{pe} + 1);
    cache_.writeRange(cache_.lineOf(key), key, src, len, markDirty);
}

void
SharedL2Cache::flushLine(unsigned pe, SimAddr addr)
{
    const SimAddr base = lineBase(addr);
    if (!diverged(base)) {
        // DMA is about to rewrite this engine's DRAM bytes under the
        // line, so the stores will differ afterwards: diverge now.
        // The shared frame (when present) is clean — drop it; other
        // engines refill their colored copies from their own stores.
        if (const mem::LineRef line = cache_.find(base)) {
            CLUMSY_ASSERT(!cache_.isDirty(*line), "dirty shared frame");
            cache_.invalidate(*line);
            fillOwner_.erase(base);
        }
        markDiverged(base);
        return;
    }
    const mem::LineRef line =
        cache_.find(base + stride_ * (SimAddr{pe} + 1));
    if (!line)
        return;
    if (cache_.isDirty(*line)) {
        cache_.readLine(*line, flushBuf_.data());
        stores_[pe]->writeBlock(base, flushBuf_.data(), lineBytes_);
    }
    cache_.invalidate(*line);
}

std::uint32_t
SharedL2Cache::readWordRaw(unsigned pe, SimAddr addr) const
{
    const SimAddr key = keyFor(pe, addr);
    return cache_.readWordRaw(cache_.lineOf(key), key);
}

void
SharedL2Cache::readRange(unsigned pe, SimAddr addr, std::uint8_t *dst,
                         SimSize len) const
{
    const SimAddr key = keyFor(pe, addr);
    cache_.readRange(cache_.lineOf(key), key, dst, len);
}

} // namespace clumsy::npu
