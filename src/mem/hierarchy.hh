/**
 * @file
 * The simulated memory hierarchy of the clumsy packet processor:
 * split 4 KB direct-mapped L1 I/D caches (32 B lines), a unified
 * 128 KB 4-way L2 (128 B lines) and a flat DRAM backing store —
 * the StrongARM-110-like configuration of paper Section 5.1.
 *
 * Only the L1 D-cache is over-clocked: its accesses pass through the
 * fault injector (reads corrupt the sensed value, writes corrupt the
 * stored value), its latency scales with the relative cycle time, and
 * its parity/strike recovery implements Section 4's schemes. The L2 is
 * assumed correct unless an incorrect value is written back from L1.
 */

#ifndef CLUMSY_MEM_HIERARCHY_HH
#define CLUMSY_MEM_HIERARCHY_HH

#include <cstdint>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "energy/chip_energy.hh"
#include "fault/injector.hh"
#include "mem/backing_store.hh"
#include "mem/cache.hh"
#include "mem/l2_backend.hh"
#include "mem/l2_port.hh"
#include "mem/parity.hh"
#include "mem/recovery.hh"

namespace clumsy::mem
{

/** Static configuration of the hierarchy (defaults = the paper's). */
struct HierarchyConfig
{
    CacheGeometry l1d{4096, 1, 32, 22};
    CacheGeometry l1i{4096, 1, 32, 22};
    CacheGeometry l2{131072, 4, 128, 15};

    std::int64_t l1dHitCycles = 2;  ///< at full swing; scales with Cr
    std::int64_t l2HitCycles = 15;
    std::int64_t memCycles = 60;

    RecoveryScheme scheme = RecoveryScheme::NoDetection;

    /**
     * Way-disable recovery on top of the N-strike scheme: after a
     * frame strikes out `wayDisable.retireThreshold` times it is
     * retired for good (see mem/recovery.hh). Off by default.
     */
    WayDisablePolicy wayDisable;

    /**
     * Check-bit codec of the L1 D-cache when a detection scheme is
     * active: per-word parity (the paper's design) or Hamming SEC-DED
     * (the alternative the paper dismisses on energy grounds; see
     * bench/ablation_ecc). SEC-DED corrects single-bit faults inline
     * — no L2 trip — and routes double-bit faults through the strike
     * machinery.
     */
    CheckCodec codec = CheckCodec::Parity;

    /**
     * Sub-block recovery (the paper's footnote 2, left as future
     * work there): when the strikes are exhausted, refetch only the
     * faulted word from the L2 instead of invalidating and refilling
     * the whole line. Cheaper recovery and the line's other dirty
     * words survive.
     */
    bool subBlockRecovery = false;

    /**
     * Inject faults on the words written by a line fill. Off by
     * default: the paper injects on processor-issued accesses, and
     * fills would multiply the effective rate by the words per line.
     */
    bool injectOnFill = false;
};

/** Outcome of one processor-issued memory access. */
struct Access
{
    std::uint32_t value = 0;   ///< loaded value (reads only)
    Quanta latency = 0;        ///< total latency in quanta
    bool wild = false;         ///< address fell outside simulated DRAM
    unsigned faultsInjected = 0; ///< faults this access suffered
    unsigned parityTrips = 0;    ///< detections this access triggered
    unsigned l2Accesses = 0;     ///< demand uses of the L2 port
    unsigned l2Misses = 0;       ///< ... of which refilled from DRAM

    /**
     * The L2 lines behind the port uses, for the chip port arbiter's
     * MSHR merging. Sized for the deepest access the recovery
     * machinery can produce (ensure + strike writeback + refetch +
     * bypass); overflow silently drops events, which only forgoes a
     * merge opportunity — never correctness. Only the first
     * l2LineCount entries are meaningful; the rest are left
     * uninitialized, so building an Access per load costs no fill.
     */
    static constexpr unsigned kMaxL2Lines = 8;
    L2LineUse l2Lines[kMaxL2Lines];
    unsigned l2LineCount = 0;

    /** Record one L2 line use for the arbiter. */
    void noteL2Line(SimAddr base, bool miss, bool shareable)
    {
        if (l2LineCount < kMaxL2Lines)
            l2Lines[l2LineCount++] = L2LineUse{base, miss, shareable};
    }
};

/**
 * The L1D tag probe an inline access head made before it fell
 * through, handed to read()/write() so the access probes the tags
 * once. `probed` stays false when the head stopped before probing
 * (an unaligned, wild or retired-set access).
 */
struct L1dProbe
{
    bool probed = false;
    LineRef line;
};

/** The three-level hierarchy plus fault/recovery machinery. */
class MemHierarchy
{
  public:
    /**
     * @param config   hierarchy configuration.
     * @param store    simulated DRAM (not owned).
     * @param injector fault injector for the L1D datapath (not owned);
     *                 its cycle time is kept in sync by setCycleTime().
     * @param energy   energy account to charge (not owned, may be
     *                 nullptr to skip energy accounting).
     */
    MemHierarchy(const HierarchyConfig &config, BackingStore *store,
                 fault::FaultInjector *injector,
                 energy::EnergyAccount *energy);

    /**
     * Load `bytes` (1, 2 or 4) through the D-cache path with fault
     * injection and recovery.
     *
     * Fault-corrupted addresses get hardware-like semantics rather
     * than simulator crashes: unaligned addresses are force-aligned
     * (ARM-style), and loads from beyond simulated DRAM return a
     * deterministic junk value (undecoded bus read). Neither is
     * fatal by itself — the paper's fatal errors arise when such
     * junk keeps a loop from terminating.
     *
     * @p probe is the tag probe tryReadHit() made for this access, if
     * any; the default probes here.
     */
    Access read(SimAddr addr, unsigned bytes, L1dProbe probe = {});

    /**
     * Store `bytes` through the D-cache path. Stores to wild
     * addresses are silently dropped (undecoded bus write), matching
     * the embedded-memory-map behaviour of the paper's platform.
     * @p probe is tryWriteHit()'s tag probe, as for read().
     */
    Access write(SimAddr addr, unsigned bytes, std::uint32_t value,
                 L1dProbe probe = {});

    /**
     * The inline head of read(). It first decides, changing nothing,
     * whether the load is an ordinary L1D hit: aligned and in range,
     * to a set with an enabled way, hitting on one tag probe, in
     * uniform injection mode with a clean next draw, of a stored word
     * its check bits accept. Only then does it commit what read()
     * would: the counters, the hit's LRU touch, the sensing energy and
     * the injector's clean draw.
     *
     * @return true when committed: @p value holds the loaded value and
     * the access took l1dHitQuanta(), with no L2 port use. On false
     * nothing has changed and read(addr, bytes, probe) performs the
     * access, reusing the tag probe recorded in @p probe.
     */
    bool tryReadHit(SimAddr addr, unsigned bytes, std::uint32_t &value,
                    L1dProbe &probe)
    {
        CLUMSY_ASSERT(bytes == 1 || bytes == 2 || bytes == 4,
                      "access width must be 1, 2 or 4 bytes");
        const LineRef hit = ordinaryHit(addr, bytes, probe);
        if (!hit)
            return false;
        const SimAddr wordAddr = addr & ~SimAddr{3};
        const std::uint32_t word = l1d_.readWordRaw(*hit, wordAddr);
        if (!storedWordPasses(word, *hit, wordAddr))
            return false;
        ++*reads_;
        l1d_.touchHit(*hit);
        ++*senses_;
        if (energy_)
            energy_->addL1d(l1dReadPj_);
        injector_->takeCleanDraw();
        value = bytes == 4 ? word
                           : bitField(word, (addr & 3u) * 8, bytes * 8);
        return true;
    }

    /**
     * The inline head of write(), deciding as tryReadHit() does (the
     * stored word's check bits aside: a store replaces them). @return
     * true when the store was committed as an L1D hit taking
     * l1dHitQuanta(); on false nothing has changed and
     * write(addr, bytes, value, probe) performs the store.
     */
    bool tryWriteHit(SimAddr addr, unsigned bytes, std::uint32_t value,
                     L1dProbe &probe)
    {
        CLUMSY_ASSERT(bytes == 1 || bytes == 2 || bytes == 4,
                      "access width must be 1, 2 or 4 bytes");
        const LineRef hit = ordinaryHit(addr, bytes, probe);
        if (!hit)
            return false;
        const SimAddr wordAddr = addr & ~SimAddr{3};
        ++*writes_;
        l1d_.touchHit(*hit);
        const std::uint32_t intended =
            bytes == 4 ? value
                       : mergeSubWord(l1d_.readWordRaw(*hit, wordAddr),
                                      addr, bytes, value);
        injector_->takeCleanDraw();
        l1d_.writeWordRaw(*hit, wordAddr, intended,
                          l1d_.computeCheck(intended));
        l1d_.setDirty(*hit);
        if (energy_)
            energy_->addL1d(l1dWritePj_);
        return true;
    }

    /** L1D hit latency at the current cycle time, in quanta. */
    Quanta l1dHitQuanta() const { return l1dQuanta_; }

    /**
     * Instruction fetch at pc through the I-cache (never injected;
     * the I-cache is not over-clocked). The returned Access carries
     * the stall latency — an L1I hit is fully pipelined and costs 0
     * extra quanta — plus the L2 port uses a miss performed.
     */
    Access fetch(SimAddr pc)
    {
        const SimAddr lineAddr = pc & ~SimAddr{3};
        Access acc;
        if (energy_)
            energy_->addL1iRead();
        if (!l1i_.lookup(lineAddr))
            fillL1I(lineAddr, acc);
        return acc; // a hit is a pipelined fetch: no visible stall
    }

    /** Set the D-cache's relative cycle time (also retunes the
     *  injector). */
    void setCycleTime(double cr);

    /** Current D-cache relative cycle time. */
    double cycleTime() const { return cr_; }

    /** The recovery scheme in force. */
    RecoveryScheme scheme() const { return config_.scheme; }

    /** L1 D-cache (for stats inspection). */
    const Cache &l1d() const { return l1d_; }

    /** L1 I-cache. */
    const Cache &l1i() const { return l1i_; }

    /** Unified L2 (the active backend's array: private or shared). */
    const Cache &l2() const { return l2b_->cache(); }

    /**
     * Swap the storage behind the L2 operations (nullptr restores the
     * private backend). The chip model injects a npu::SharedL2Cache
     * view here when the data plane starts, after migrating the
     * private array's contents into the shared one, so no pre-switch
     * state is stranded.
     *
     * Horizon-safety contract (chip-jobs parallelism): while the
     * private backend is active — the whole bring-up horizon, from
     * construction until this call — every operation of this
     * hierarchy touches only state owned by its engine (own arrays,
     * own backing store, own injector/energy account), so distinct
     * engines' hierarchies may run on distinct threads with no
     * synchronization. A shared backend couples engines through one
     * array, so this swap must happen at a barrier, in engine order,
     * and all stepping after it is serialized by the chip's
     * deterministic event loop (DESIGN.md).
     */
    void setL2Backend(L2Backend *backend)
    {
        l2b_ = backend ? backend : &privateL2_;
    }

    /** @return true while the private backend is active. */
    bool usingPrivateL2() const { return l2b_ == &privateL2_; }

    /** Hierarchy-level counters (reads, writes, trips, strikes...). */
    const StatGroup &stats() const { return stats_; }

    /** The configuration in force. */
    const HierarchyConfig &config() const { return config_; }

    /**
     * Flush (write back if dirty, then invalidate) every L1D and L2
     * line touching [addr, addr+len). Used around DMA: the device
     * reads/writes DRAM directly, so dirty cached data covering the
     * range must reach DRAM first — lines only partially covered by
     * the DMA carry unrelated neighbour data that must survive — and
     * stale cached copies must not linger afterwards.
     */
    void flushRange(SimAddr addr, SimSize len);

    /**
     * Untimed architectural read of the word containing addr: the L1D
     * copy when present, else L2, else DRAM. No stats, no faults.
     */
    std::uint32_t peekWord(SimAddr addr) const;

    /** Drop all cache contents and zero statistics. */
    void reset();

  private:
    HierarchyConfig config_;
    BackingStore *store_;
    fault::FaultInjector *injector_;
    energy::EnergyAccount *energy_;
    Cache l1d_;
    Cache l1i_;
    Cache l2_;
    PrivateL2Backend privateL2_;
    L2Backend *l2b_ = nullptr; ///< active backend, never null
    StatGroup stats_{"hier"};
    double cr_ = 1.0;
    Quanta l1dQuanta_;

    // L1D access energies at cr_ and the configured protection,
    // priced by setCycleTime() so each access adds a stored double.
    PicoJoules l1dReadPj_ = 0.0;
    PicoJoules l1dWritePj_ = 0.0;

    /**
     * Reusable line buffers for the refill paths. ensureL2 owns
     * l2LineScratch_ and the L1 paths (L1D fills, strike writebacks,
     * L1I fills, flushRange) own l1LineScratch_, sized for the larger
     * L1 line; the nesting is strictly L1-path -> ensureL2, never the
     * reverse, and each path finishes consuming its buffer before any
     * call that could overwrite it, so one buffer per level suffices
     * and the per-miss heap allocation disappears from the hot loop.
     */
    std::vector<std::uint8_t> l2LineScratch_;
    std::vector<std::uint8_t> l1LineScratch_;

    /**
     * Per-frame strike-out counts for way-disable recovery, indexed
     * like the L1D's SoA metadata (set * assoc + way). Empty unless
     * the policy is enabled.
     */
    std::vector<std::uint16_t> frameStrikes_;

    // Interned per-access counters (stable pointers into stats_).
    std::uint64_t *reads_;
    std::uint64_t *writes_;
    std::uint64_t *senses_;
    std::uint64_t *readFaults_;
    std::uint64_t *writeFaults_;
    std::uint64_t *parityTripStat_;
    std::uint64_t *l1dWritebacks_;

    bool detectionOn() const { return usesParity(config_.scheme); }

    /** @return true when way-disable recovery is active. */
    bool retireOn() const { return config_.wayDisable.enabled(); }

    /**
     * Fault-map word slot of wordAddr in the L1D frame @p line:
     * (set * ways + way) * wordsPerLine + wordIndex, and the flat line
     * index is set * ways + way.
     */
    std::uint32_t mapSlotOf(std::size_t line, SimAddr wordAddr) const
    {
        const std::uint32_t wordIdx = static_cast<std::uint32_t>(
            (wordAddr & (config_.l1d.lineBytes - 1)) / 4);
        return static_cast<std::uint32_t>(line) *
                   (config_.l1d.lineBytes / 4) +
               wordIdx;
    }

    /**
     * Run @p word through the injector as a 32-bit L1D access of
     * wordAddr in frame @p line (map mode when a weak-cell map is
     * attached). @return the possibly corrupted word.
     */
    std::uint32_t injectL1d(std::uint32_t word, std::size_t line,
                            SimAddr wordAddr, fault::FaultEvent &ev)
    {
        return injector_->mapAttached()
                   ? injector_->corruptMapped(
                         word, 32, mapSlotOf(line, wordAddr), &ev)
                   : injector_->corrupt(word, 32, &ev);
    }

    /** What noteStrikeAndMaybeRetire did to wordAddr's frame. */
    enum class RetireOutcome
    {
        None,     ///< below threshold: normal strike recovery
        SetAlive, ///< frame retired; the set still has enabled ways
        SetDead,  ///< frame retired and the whole set is now dead
    };

    /**
     * Record one strike-out against the L1D frame @p line (holding
     * wordAddr) and retire it at the threshold (on retirement the
     * line is invalidated and the frame disabled).
     */
    RetireOutcome noteStrikeAndMaybeRetire(std::size_t line,
                                           SimAddr wordAddr);

    /** Protection level for energy accounting. */
    energy::Protection protection() const
    {
        if (!detectionOn())
            return energy::Protection::None;
        return config_.codec == CheckCodec::Secded
                   ? energy::Protection::Secded
                   : energy::Protection::Parity;
    }

    /**
     * Run the word sensed from wordAddr in L1D frame @p line through
     * the active codec. @return true when the access is resolved
     * (value set to the accepted — possibly ECC-corrected — word);
     * false when the detection tripped.
     */
    bool checkSensedWord(std::uint32_t sensed, std::size_t line,
                         SimAddr wordAddr, std::uint32_t &value)
    {
        if (!detectionOn()) {
            value = sensed;
            return true;
        }
        const std::uint8_t check = l1d_.wordCheck(line, wordAddr);
        if (config_.codec == CheckCodec::Secded)
            return decodeSecded(sensed, check, value);
        if (parityMatches(sensed, (check & 1) != 0)) {
            value = sensed;
            return true;
        }
        return false;
    }

    /** checkSensedWord()'s SEC-DED decode (value set when resolved). */
    bool decodeSecded(std::uint32_t sensed, std::uint8_t check,
                      std::uint32_t &value);

    /**
     * The access heads' shared decision, made without side effects:
     * @return the L1D line an aligned, in-range access to a live set
     * hits, when injection is uniform and its next draw is clean;
     * none otherwise. @p probe records the tag probe when one was
     * made.
     */
    LineRef ordinaryHit(SimAddr addr, unsigned bytes,
                        L1dProbe &probe) const
    {
        if ((addr & (bytes - 1)) != 0 || !store_->contains(addr, bytes))
            return LineRef();
        const SimAddr wordAddr = addr & ~SimAddr{3};
        if (retireOn() && !l1d_.hasEnabledWay(wordAddr))
            return LineRef();
        probe = L1dProbe{true, l1d_.find(wordAddr)};
        if (!probe.line || injector_->mapAttached() ||
            !injector_->nextDrawClean())
            return LineRef();
        return probe.line;
    }

    /**
     * checkSensedWord() for a word sensed clean: @return true when the
     * active codec accepts @p word, stored at wordAddr in @p line, as
     * it is (parity match or SEC-DED Ok). No counters move.
     */
    bool storedWordPasses(std::uint32_t word, std::size_t line,
                          SimAddr wordAddr) const
    {
        if (!detectionOn())
            return true;
        const std::uint8_t check = l1d_.wordCheck(line, wordAddr);
        if (config_.codec == CheckCodec::Secded)
            return secded::decode(word, check).status ==
                   secded::DecodeStatus::Ok;
        return parityMatches(word, (check & 1) != 0);
    }

    /**
     * A sub-word store's masked read-modify-write: @p raw with the
     * `bytes` (1 or 2) low bytes of @p value placed at addr's offset.
     */
    static std::uint32_t mergeSubWord(std::uint32_t raw, SimAddr addr,
                                      unsigned bytes, std::uint32_t value)
    {
        const unsigned shift = (addr & 3u) * 8;
        const std::uint32_t mask = ((bytes == 1 ? 0xffu : 0xffffu))
                                   << shift;
        return (raw & ~mask) | ((value << shift) & mask);
    }

    /** L2 line base of addr (geometry-only; backend-independent). */
    SimAddr l2LineBase(SimAddr addr) const
    {
        return addr & ~(config_.l2.lineBytes - 1);
    }

    /**
     * Bring the L2 line containing addr in from DRAM if absent,
     * charging the demand latency to acc. Every L2 operation goes
     * through the active backend (l2b_), private or shared.
     */
    void ensureL2(SimAddr addr, Access &acc);

    /**
     * Bring the L1D line containing addr in via L2, reusing @p probe's
     * tag probe of addr when it made one. @return the line it hit or
     * filled; valid until the next L1D fill or invalidate.
     */
    std::size_t ensureL1D(SimAddr addr, Access &acc, L1dProbe probe = {})
    {
        if (const LineRef line = l1d_.account(
                probe.probed ? probe.line : l1d_.find(addr)))
            return *line;
        return fillL1D(addr, acc);
    }

    /** ensureL1D()'s miss path. @return the filled line. */
    std::size_t fillL1D(SimAddr addr, Access &acc);

    /** Write back an evicted dirty L1 line into the L2 (buffered: no
     *  demand latency). */
    void writebackToL2(const Cache::Evicted &evicted);

    /** fetch()'s miss path: bring the L1I line in via the L2. */
    void fillL1I(SimAddr lineAddr, Access &acc);

    /** Fill corruption pass over the just-installed L1D @p line. */
    void corruptFilledLine(std::size_t line, SimAddr lineBase);

    /**
     * One sensed read of the word at wordAddr in L1D frame @p line
     * (injection applied).
     */
    std::uint32_t senseWord(std::size_t line, SimAddr wordAddr,
                            Access &acc)
    {
        acc.latency += l1dHitQuanta();
        if (energy_)
            energy_->addL1d(l1dReadPj_);
        ++*senses_;
        fault::FaultEvent ev;
        const std::uint32_t sensed = injectL1d(
            l1d_.readWordRaw(line, wordAddr), line, wordAddr, ev);
        if (ev.flippedBits) {
            ++acc.faultsInjected;
            ++*readFaults_;
        }
        return sensed;
    }
};

} // namespace clumsy::mem

#endif // CLUMSY_MEM_HIERARCHY_HH
