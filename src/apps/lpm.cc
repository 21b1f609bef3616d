#include "apps/lpm.hh"

#include <algorithm>
#include <memory>
#include <mutex>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "net/checksum.hh"
#include "net/trace_gen.hh"

namespace clumsy::apps
{

namespace
{

/** FNV-1a mix helper (same idiom as the table audits). */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;
    void mix(std::uint32_t v) { h = (h ^ v) * 1099511628211ull; }
};

std::uint32_t
maskFor(std::uint8_t len)
{
    return len == 0 ? 0 : 0xffffffffu << (32 - len);
}

unsigned
pop(std::uint32_t bits)
{
    return popCount(bits);
}

/** The lpm workload's trace shape (its boot table is drawn from it). */
net::TraceConfig
lpmTraceConfig()
{
    net::TraceConfig cfg;
    cfg.numDestinations = 256;
    cfg.numFlows = 256;
    cfg.destZipf = 0.9;
    cfg.minPayload = 32;
    cfg.maxPayload = 256;
    return cfg;
}

} // namespace

// --- LpmFib ---------------------------------------------------------

LpmFib::LpmFib(core::ClumsyProcessor &proc)
{
    rootPtr_ = proc.alloc(4, 4);
    proc.write32(rootPtr_, 0);
    proc.execute(2);
}

// --- boot image -----------------------------------------------------

/**
 * buildBoot()'s view of simulated memory: the words from the root cell
 * up, grown as the builder stores past the end. Growth seeds the new
 * words through peek32(), so a word the builder has not written reads
 * exactly as it does in the processor, which the builder leaves
 * untouched until install(). A load outside the image follows a
 * pointer the builder read, which a corrupted root cell makes wild,
 * so it goes through the checked hostRead32().
 */
struct LpmFib::HostImage
{
    SimAddr base = 0;
    std::vector<std::uint32_t> words;
    std::size_t firstStored = SIZE_MAX; ///< lowest word index stored to

    std::uint32_t load(core::ClumsyProcessor &proc, SimAddr addr) const
    {
        if (addr >= base && addr % 4 == 0 &&
            (addr - base) / 4 < words.size())
            return words[(addr - base) / 4];
        return proc.hostRead32(addr);
    }

    void store(const core::ClumsyProcessor &proc, SimAddr addr,
               std::uint32_t value)
    {
        CLUMSY_ASSERT(addr >= base && addr % 4 == 0,
                      "lpm boot store below the root cell");
        const std::size_t i = (addr - base) / 4;
        while (words.size() <= i)
            words.push_back(proc.peek32(base + 4 * words.size()));
        words[i] = value;
        firstStored = std::min(firstStored, i);
    }

    /**
     * One dmaWrite from the first word stored to the end: the builder
     * stores one contiguous run (the root cell, then bump-allocated
     * blocks it fills completely), so this is the per-word DMA of the
     * same words, flushing the same lines.
     */
    void install(core::ClumsyProcessor &proc) const
    {
        if (firstStored >= words.size())
            return;
        proc.dmaWrite(
            base + 4 * static_cast<SimAddr>(firstStored),
            reinterpret_cast<const std::uint8_t *>(words.data() +
                                                   firstStored),
            static_cast<SimSize>(4 * (words.size() - firstStored)));
    }
};

namespace
{

/**
 * A clean build's result: the host state it leaves and its image from
 * the root cell to the allocator end.
 */
struct StoredBoot
{
    LpmFib fib;
    std::vector<std::uint32_t> words;
};

/**
 * The process-wide boot: published once by the first clean build and
 * never replaced, so a reader may use it after releasing the lock.
 */
struct BootStore
{
    std::mutex mutex;
    std::unique_ptr<const StoredBoot> boot; ///< guarded by mutex
};

BootStore &
bootStore()
{
    // Never destroyed: a fatal() exit on one thread must not free it
    // under an engine booting on another.
    static BootStore &store = *new BootStore;
    return store;
}

const StoredBoot *
storedBoot()
{
    BootStore &store = bootStore();
    const std::scoped_lock lock(store.mutex);
    return store.boot.get();
}

/**
 * @return true when a boot on @p proc reads what every clean boot
 * reads: a root cell at @p root holding 0, the allocator ending right
 * after it and no fatal raised. The built image then depends on the
 * root address alone.
 */
bool
cleanBoot(const core::ClumsyProcessor &proc, SimAddr root)
{
    return !proc.fatalOccurred() && proc.peek32(root) == 0 &&
           mem::kNullGuard + proc.allocator().used() == root + 4;
}

} // namespace

void
LpmFib::boot(core::ClumsyProcessor &proc)
{
    const StoredBoot *stored = storedBoot();
    if (stored == nullptr || stored->fib.rootPtrAddr() != rootPtr_ ||
        !cleanBoot(proc, rootPtr_) ||
        proc.allocator().remaining() < 4 * (stored->words.size() - 1)) {
        buildBoot(proc);
        return;
    }
    *this = stored->fib;
    const auto bytes = static_cast<SimSize>(4 * stored->words.size());
    const SimAddr body = proc.alloc(bytes - 4, 4);
    CLUMSY_ASSERT(body == rootPtr_ + 4,
                  "lpm boot image must follow the root cell");
    proc.dmaWrite(rootPtr_,
                  reinterpret_cast<const std::uint8_t *>(
                      stored->words.data()),
                  bytes);
}

void
LpmFib::buildBoot(core::ClumsyProcessor &proc)
{
    const bool clean = cleanBoot(proc, rootPtr_);
    HostImage image{rootPtr_, {proc.peek32(rootPtr_)}};
    image_ = &image;
    const auto pool = net::TraceGenerator::makeDestPool(lpmTraceConfig());
    const auto install =
        static_cast<std::uint32_t>(std::min<std::size_t>(pool.size(), 96));
    for (std::uint32_t i = 0; i < install; ++i) {
        const std::uint32_t dst = pool[i];
        const auto len = static_cast<std::uint8_t>(12 + dst % 13);
        const std::uint32_t prefix = dst & maskFor(len);
        insert(proc, prefix, len, prefix ^ 0x01010101u);
        if (proc.fatalOccurred())
            break;
    }
    image_ = nullptr;
    image.install(proc);
    if (!clean)
        return;

    CLUMSY_ASSERT(image.firstStored == 0 &&
                      mem::kNullGuard + proc.allocator().used() ==
                          rootPtr_ + 4 * image.words.size(),
                  "a clean lpm boot stores its whole image");
    BootStore &store = bootStore();
    const std::scoped_lock lock(store.mutex);
    if (store.boot == nullptr)
        store.boot = std::make_unique<const StoredBoot>(
            StoredBoot{*this, std::move(image.words)});
}

std::uint32_t
LpmFib::ld32(core::ClumsyProcessor &proc, SimAddr addr) const
{
    return image_ != nullptr ? image_->load(proc, addr)
                             : proc.read32(addr);
}

void
LpmFib::st32(core::ClumsyProcessor &proc, SimAddr addr,
             std::uint32_t value) const
{
    if (image_ != nullptr) {
        image_->store(proc, addr, value);
        return;
    }
    proc.write32(addr, value);
}

void
LpmFib::exec(core::ClumsyProcessor &proc, unsigned ops) const
{
    if (image_ == nullptr)
        proc.execute(ops);
}

LpmFib::NodeView
LpmFib::readNode(core::ClumsyProcessor &proc, SimAddr addr) const
{
    NodeView v;
    const std::uint32_t bm = ld32(proc, addr);
    v.ext = bm & 0xffffu;
    v.intb = (bm >> 16) & 0x7fffu;
    v.childBase = ld32(proc, addr + 4);
    v.resultBase = ld32(proc, addr + 8);
    exec(proc, 5);
    return v;
}

SimAddr
LpmFib::allocBlock(core::ClumsyProcessor &proc, SimSize size)
{
    // Prefer a block that finished its RCU grace period; fall back to
    // the bump allocator. Reuse is what keeps sustained churn at flat
    // simulated memory.
    const SimAddr reused = rcu_.takeFree(size);
    if (reused != 0)
        return reused;
    return proc.alloc(size, 4);
}

namespace
{

/** Retire a replaced node and its arrays into the RCU domain. */
void
retireOld(ctrl::RcuDomain &rcu, SimAddr addr,
          std::uint32_t ext, std::uint32_t intb, SimAddr childBase,
          SimAddr resultBase)
{
    if (addr == 0)
        return;
    rcu.retire(addr, LpmFib::kNodeBytes);
    const unsigned nc = popCount(ext);
    if (nc != 0 && childBase != 0)
        rcu.retire(childBase, nc * 4);
    const unsigned nr = popCount(intb & 0x7fffu);
    if (nr != 0 && resultBase != 0)
        rcu.retire(resultBase, nr * 4);
}

} // namespace

SimAddr
LpmFib::rebuildNode(core::ClumsyProcessor &proc, SimAddr oldAddr,
                    const NodeView &oldView, std::uint32_t newExt,
                    std::uint32_t newInt, std::uint32_t replaceNib,
                    SimAddr replaceChild, int resultIdx,
                    std::uint32_t nexthop)
{
    // Child array: popcount-packed over the new external bitmap.
    // Surviving entries are copied from the old array through timed
    // loads — the copy is part of the faultable update path.
    SimAddr cb = 0;
    const unsigned nc = pop(newExt);
    if (nc != 0) {
        cb = allocBlock(proc, nc * 4);
        unsigned rank = 0;
        for (std::uint32_t b = 0; b < 16; ++b) {
            if ((newExt & (1u << b)) == 0)
                continue;
            std::uint32_t val = 0;
            if (b == replaceNib) {
                val = replaceChild;
            } else if ((oldView.ext & (1u << b)) != 0) {
                const unsigned orank =
                    pop(oldView.ext & ((1u << b) - 1));
                val = ld32(proc, oldView.childBase + 4 * orank);
                exec(proc, 2);
            }
            st32(proc, cb + 4 * rank, val);
            ++rank;
        }
        exec(proc, 2 + nc);
        if (proc.fatalOccurred())
            return 0;
    }

    // Result array over the new internal bitmap.
    SimAddr rb = 0;
    const unsigned nr = pop(newInt & 0x7fffu);
    if (nr != 0) {
        rb = allocBlock(proc, nr * 4);
        unsigned rank = 0;
        for (std::uint32_t b = 0; b < 15; ++b) {
            if ((newInt & (1u << b)) == 0)
                continue;
            std::uint32_t val = 0;
            if (resultIdx >= 0 &&
                b == static_cast<std::uint32_t>(resultIdx)) {
                val = nexthop;
            } else if ((oldView.intb & (1u << b)) != 0) {
                const unsigned orank =
                    pop(oldView.intb & ((1u << b) - 1));
                val = ld32(proc, oldView.resultBase + 4 * orank);
                exec(proc, 2);
            }
            st32(proc, rb + 4 * rank, val);
            ++rank;
        }
        exec(proc, 2 + nr);
        if (proc.fatalOccurred())
            return 0;
    }

    const SimAddr node = allocBlock(proc, kNodeBytes);
    st32(proc, node + 0,
         ((newInt & 0x7fffu) << 16) | (newExt & 0xffffu));
    st32(proc, node + 4, cb);
    st32(proc, node + 8, rb);
    st32(proc, node + 12,
         0x1b700000u | static_cast<std::uint32_t>(nodes_ & 0xfffffu));
    exec(proc, 10);
    ++nodes_;

    retireOld(rcu_, oldAddr, oldView.ext, oldView.intb,
              oldView.childBase, oldView.resultBase);
    return node;
}

void
LpmFib::insert(core::ClumsyProcessor &proc, std::uint32_t prefix,
               std::uint8_t len, std::uint32_t nexthop)
{
    CLUMSY_ASSERT(len >= 1 && len <= 31, "lpm prefix length 1..31");
    prefix &= maskFor(len);
    const unsigned target = len / kStride;
    const unsigned r = len % kStride;

    // 1. Walk the existing path through timed loads.
    std::array<SimAddr, kMaxDepth + 1> oldAddr{};
    std::array<NodeView, kMaxDepth + 1> oldView{};
    SimAddr cur = ld32(proc, rootPtr_);
    exec(proc, 2);
    for (unsigned d = 0; d <= target; ++d) {
        oldAddr[d] = cur;
        if (cur != 0) {
            oldView[d] = readNode(proc, cur);
            if (proc.fatalOccurred())
                return;
        }
        if (d == target)
            break;
        if (cur == 0)
            continue;
        const std::uint32_t nib = nibbleAt(prefix, d);
        const NodeView &v = oldView[d];
        if ((v.ext & (1u << nib)) != 0) {
            const unsigned rank = pop(v.ext & ((1u << nib) - 1));
            cur = ld32(proc, v.childBase + 4 * rank);
            exec(proc, 3);
            if (proc.fatalOccurred())
                return;
        } else {
            cur = 0;
        }
    }

    // 2. Rebuild the path bottom-up in fresh/reclaimed memory.
    const std::uint32_t v =
        r == 0 ? 0 : nibbleAt(prefix, target) >> (kStride - r);
    const std::uint32_t bit = 1u << intIndex(r, v);
    SimAddr child = 0;
    for (int d = static_cast<int>(target); d >= 0; --d) {
        const NodeView &ov = oldView[d];
        std::uint32_t newExt = ov.ext;
        std::uint32_t newInt = ov.intb;
        std::uint32_t repNib = 0xffffffffu;
        int resIdx = -1;
        if (static_cast<unsigned>(d) == target) {
            newInt |= bit;
            resIdx = static_cast<int>(intIndex(r, v));
        } else {
            repNib = nibbleAt(prefix, d);
            newExt |= 1u << repNib;
        }
        child = rebuildNode(proc, oldAddr[d], ov, newExt, newInt,
                            repNib, child, resIdx, nexthop);
        if (proc.fatalOccurred())
            return;
    }

    // 3. Publish: a single pointer store flips every reader to the
    // new version atomically (readers between packets never see a
    // half-applied update).
    st32(proc, rootPtr_, child);
    exec(proc, 1);

    // 4. Host mirror (ground truth for audits and tests).
    const bool fresh = mirror_[len].emplace(prefix, nexthop);
    if (!fresh)
        mirror_[len].insertOrAssign(prefix, nexthop);
    else
        ++prefixes_;
}

void
LpmFib::withdraw(core::ClumsyProcessor &proc, std::uint32_t prefix,
                 std::uint8_t len)
{
    CLUMSY_ASSERT(len >= 1 && len <= 31, "lpm prefix length 1..31");
    prefix &= maskFor(len);
    const unsigned target = len / kStride;
    const unsigned r = len % kStride;

    auto eraseMirror = [&] {
        if (mirror_[len].erase(prefix))
            --prefixes_;
    };

    std::array<SimAddr, kMaxDepth + 1> oldAddr{};
    std::array<NodeView, kMaxDepth + 1> oldView{};
    SimAddr cur = ld32(proc, rootPtr_);
    exec(proc, 2);
    for (unsigned d = 0; d <= target; ++d) {
        oldAddr[d] = cur;
        if (cur != 0) {
            oldView[d] = readNode(proc, cur);
            if (proc.fatalOccurred())
                return;
        }
        if (d == target)
            break;
        if (cur == 0)
            continue;
        const std::uint32_t nib = nibbleAt(prefix, d);
        const NodeView &v = oldView[d];
        if ((v.ext & (1u << nib)) != 0) {
            const unsigned rank = pop(v.ext & ((1u << nib) - 1));
            cur = ld32(proc, v.childBase + 4 * rank);
            exec(proc, 3);
            if (proc.fatalOccurred())
                return;
        } else {
            cur = 0;
        }
    }

    const std::uint32_t v =
        r == 0 ? 0 : nibbleAt(prefix, target) >> (kStride - r);
    const std::uint32_t bit = 1u << intIndex(r, v);
    // The presence decision reads the (faultable) structure itself: a
    // corrupted bitmap can turn a withdraw into a no-op or a spurious
    // rebuild — update-time corruption in action.
    if (oldAddr[target] == 0 ||
        (oldView[target].intb & bit) == 0) {
        eraseMirror();
        return;
    }

    SimAddr child = 0;
    bool pruned = false;
    for (int d = static_cast<int>(target); d >= 0; --d) {
        const NodeView &ov = oldView[d];
        std::uint32_t newExt = ov.ext;
        std::uint32_t newInt = ov.intb;
        std::uint32_t repNib = 0xffffffffu;
        if (static_cast<unsigned>(d) == target) {
            newInt &= ~bit;
        } else {
            const std::uint32_t nib = nibbleAt(prefix, d);
            if (pruned)
                newExt &= ~(1u << nib);
            else
                repNib = nib;
        }
        if (newExt == 0 && (newInt & 0x7fffu) == 0 && d > 0) {
            // Node emptied: prune it and unlink from the parent.
            retireOld(rcu_, oldAddr[d], ov.ext, ov.intb, ov.childBase,
                      ov.resultBase);
            child = 0;
            pruned = true;
            continue;
        }
        child = rebuildNode(proc, oldAddr[d], ov, newExt, newInt,
                            repNib, child, -1, 0);
        pruned = false;
        if (proc.fatalOccurred())
            return;
    }

    st32(proc, rootPtr_, child);
    exec(proc, 1);
    eraseMirror();
}

std::uint32_t
LpmFib::lookup(core::ClumsyProcessor &proc, std::uint32_t dst,
               core::ValueRecorder *rec, const char *recKey)
{
    SimAddr cur = proc.read32(rootPtr_);
    proc.execute(2);
    std::uint32_t best = kNoMatch;
    for (unsigned d = 0; d < kMaxDepth && cur != 0; ++d) {
        const std::uint32_t bm = proc.read32(cur);
        proc.execute(2);
        if (proc.fatalOccurred())
            return kNoMatch;
        if (rec != nullptr)
            rec->record(recKey, bm);
        const std::uint32_t ext = bm & 0xffffu;
        const std::uint32_t intb = (bm >> 16) & 0x7fffu;
        const std::uint32_t nib = nibbleAt(dst, d);
        if (intb != 0) {
            // Longest internal prefix within this stride.
            for (int r = static_cast<int>(kStride) - 1; r >= 0; --r) {
                const std::uint32_t pv =
                    r == 0 ? 0 : nib >> (kStride - r);
                const std::uint32_t idx =
                    intIndex(static_cast<unsigned>(r), pv);
                if ((intb & (1u << idx)) != 0) {
                    const unsigned rank = pop(intb & ((1u << idx) - 1));
                    const SimAddr rb = proc.read32(cur + 8);
                    best = proc.read32(rb + 4 * rank);
                    proc.execute(4);
                    break;
                }
            }
            if (proc.fatalOccurred())
                return kNoMatch;
        }
        if ((ext & (1u << nib)) != 0) {
            const unsigned rank = pop(ext & ((1u << nib) - 1));
            const SimAddr cb = proc.read32(cur + 4);
            cur = proc.read32(cb + 4 * rank);
            proc.execute(4);
            if (proc.fatalOccurred())
                return kNoMatch;
        } else {
            break;
        }
    }
    proc.execute(2);
    return best;
}

std::uint32_t
LpmFib::goldenLookup(std::uint32_t dst) const
{
    for (int len = 32; len >= 0; --len) {
        const auto &bucket = mirror_[static_cast<std::size_t>(len)];
        if (bucket.empty())
            continue;
        const std::uint32_t *hop =
            bucket.find(dst & maskFor(static_cast<std::uint8_t>(len)));
        if (hop)
            return *hop;
    }
    return kNoMatch;
}

std::uint64_t
LpmFib::auditPath(core::ClumsyProcessor &proc,
                  std::uint32_t dst) const
{
    Fnv f;
    const SimAddr memLimit = proc.config().memBytes;
    SimAddr cur = proc.hostRead32(rootPtr_);
    f.mix(cur);
    for (unsigned d = 0; d < kMaxDepth && cur != 0; ++d) {
        if (cur % 4 != 0 || cur + kNodeBytes > memLimit) {
            f.mix(0xdeadbeefu);
            break;
        }
        const std::uint32_t bm = proc.hostRead32(cur);
        f.mix(bm);
        f.mix(proc.hostRead32(cur + 12)); // the tag canary
        const std::uint32_t ext = bm & 0xffffu;
        const std::uint32_t intb = (bm >> 16) & 0x7fffu;
        const std::uint32_t nib = nibbleAt(dst, d);
        for (int r = static_cast<int>(kStride) - 1; r >= 0; --r) {
            const std::uint32_t pv = r == 0 ? 0 : nib >> (kStride - r);
            const std::uint32_t idx =
                intIndex(static_cast<unsigned>(r), pv);
            if ((intb & (1u << idx)) != 0) {
                const unsigned rank = pop(intb & ((1u << idx) - 1));
                const SimAddr rb = proc.hostRead32(cur + 8);
                const SimAddr slot = rb + 4 * rank;
                if (rb % 4 != 0 || slot + 4 > memLimit)
                    f.mix(0xdeadbeefu);
                else
                    f.mix(proc.hostRead32(slot));
                break;
            }
        }
        if ((ext & (1u << nib)) != 0) {
            const unsigned rank = pop(ext & ((1u << nib) - 1));
            const SimAddr cb = proc.hostRead32(cur + 4);
            const SimAddr slot = cb + 4 * rank;
            if (cb % 4 != 0 || slot + 4 > memLimit) {
                f.mix(0xdeadbeefu);
                break;
            }
            cur = proc.hostRead32(slot);
        } else {
            break;
        }
    }
    return f.h;
}

std::uint64_t
LpmFib::auditChecksum(core::ClumsyProcessor &proc,
                      unsigned maxNodes) const
{
    Fnv f;
    const SimAddr memLimit = proc.config().memBytes;
    std::vector<SimAddr> queue{proc.hostRead32(rootPtr_)};
    std::size_t head = 0;
    unsigned seen = 0;
    while (head < queue.size() && seen < maxNodes) {
        const SimAddr n = queue[head++];
        if (n == 0)
            continue;
        if (n % 4 != 0 || n + kNodeBytes > memLimit) {
            f.mix(0xdeadbeefu);
            continue;
        }
        ++seen;
        const std::uint32_t bm = proc.hostRead32(n);
        f.mix(bm);
        f.mix(proc.hostRead32(n + 12));
        const std::uint32_t ext = bm & 0xffffu;
        const std::uint32_t intb = (bm >> 16) & 0x7fffu;
        const SimAddr rb = proc.hostRead32(n + 8);
        const unsigned nr = pop(intb);
        for (unsigned i = 0; i < nr; ++i) {
            const SimAddr slot = rb + 4 * i;
            if (rb % 4 != 0 || slot + 4 > memLimit) {
                f.mix(0xdeadbeefu);
                break;
            }
            f.mix(proc.hostRead32(slot));
        }
        const SimAddr cb = proc.hostRead32(n + 4);
        const unsigned nc = pop(ext);
        for (unsigned i = 0; i < nc; ++i) {
            const SimAddr slot = cb + 4 * i;
            if (cb % 4 != 0 || slot + 4 > memLimit) {
                f.mix(0xdeadbeefu);
                break;
            }
            queue.push_back(proc.hostRead32(slot));
        }
    }
    return f.h;
}

// --- LpmApp ---------------------------------------------------------

net::TraceConfig
LpmApp::traceConfig() const
{
    return lpmTraceConfig();
}

void
LpmApp::initialize(ClumsyProcessor &proc)
{
    allocStaging(proc);
    proc.setCodeRegion(0, 4096); // forwarding fast path
    fib_ = std::make_unique<LpmFib>(proc);

    // Boot FIB over DMA, whole table (DMA-installed-FIB convention,
    // DESIGN §4b.3). route keeps a *timed tail* at boot because a
    // radix insert touches only its own path — a tail fault flags a
    // few destinations. Here path-copying rewrites the root on every
    // insert, so a single boot fault would corrupt the audit path of
    // every packet and dominate the trial; boot is therefore fully
    // untimed, and the timed fault surface is exactly the *runtime*
    // FibInsert/FibWithdraw churn (--ctrl-rate) — which makes the
    // ctrl=0 cells a clean data-plane-only baseline.
    bootFib(proc);
}

void
LpmApp::processPacket(ClumsyProcessor &proc, const net::Packet &pkt,
                      ValueRecorder &rec)
{
    // Packet boundary = reader quiescent point: blocks retired two
    // packets ago may now be reused by the next update.
    fib_->quiesce();

    stagePacket(proc, pkt);

    // 1. Header checksum verification (RFC 1812 5.2.2).
    const std::uint16_t verify = checksumStagedHeader(proc);
    if (proc.fatalOccurred())
        return;
    rec.record("checksum", verify);
    if (verify != 0) {
        rec.record("ttl", 0xdead);
        return;
    }

    // 2. TTL handling (RFC 1812 5.3.1).
    const std::uint8_t ttl = loadTtl(proc);
    proc.execute(3);
    if (ttl <= 1) {
        rec.record("ttl", 0);
        return;
    }
    const auto newTtl = static_cast<std::uint8_t>(ttl - 1);
    storeTtl(proc, newTtl);
    rec.record("ttl", newTtl);

    // 3. Incremental checksum update (RFC 1624).
    const std::uint16_t oldSum = loadChecksum(proc);
    const std::uint8_t proto = proc.read8(pktBase() + 9);
    proc.execute(6);
    const auto oldWord = static_cast<std::uint16_t>((ttl << 8) | proto);
    const auto newWord =
        static_cast<std::uint16_t>((newTtl << 8) | proto);
    const std::uint16_t newSum =
        net::incrementalChecksum(oldSum, oldWord, newWord);
    storeChecksum(proc, newSum);
    proc.execute(8);
    rec.record("checksum", newSum);

    // 4. Longest-prefix match.
    const std::uint32_t dst = loadDstIp(proc);
    proc.execute(3);
    const std::uint32_t nh = fib_->lookup(proc, dst, &rec, "lpm_node");
    if (proc.fatalOccurred())
        return;
    rec.record("lpm_nexthop", nh);

    // 5. Untimed audit of the path this packet's wire-truth
    // destination should take (the "initialization error" series —
    // here it also catches half-applied or corrupted updates).
    rec.record("initialization", fib_->auditPath(proc, pkt.ip.dst));
}

bool
LpmApp::applyCtrlEvent(ClumsyProcessor &proc,
                       const ctrl::CtrlEvent &event)
{
    switch (event.kind) {
    case ctrl::CtrlEventKind::FibInsert:
        fib_->insert(proc, event.key, event.prefixLen, event.value);
        return true;
    case ctrl::CtrlEventKind::FibWithdraw:
        fib_->withdraw(proc, event.key, event.prefixLen);
        return true;
    default:
        return false;
    }
}

} // namespace clumsy::apps
