/**
 * @file
 * The chip's shared L2: the port arbiter (timing) and the shared
 * cache contents (state).
 *
 * SharedL2Port is a fixed-width port with FIFO arbitration and a small
 * pool of miss-status holding registers. Every engine's L1 misses,
 * refills and bypass reads occupy one MSHR for a fixed service time
 * (longer when the line also came from DRAM). Up to K transfers are in
 * flight at once; an access that finds every MSHR busy with earlier
 * transfers queues behind the one that frees first, and the queuing
 * delay is folded into the access's cycle cost by
 * ClumsyProcessor::chargeAccess(). With K = 1 the port is the
 * fully-serialized FIFO of the original model, bit for bit. When the
 * chip runs with genuinely shared L2 contents, the port additionally
 * merges requests: an engine hitting a shared-frame line whose DRAM
 * transfer another engine started, and which is still in flight, folds
 * into that transfer's MSHR and waits for it to finish instead of
 * paying for a second one.
 *
 * SharedL2Cache is one cache array shared by every engine on the chip
 * (NpuConfig::l2 == L2Mode::Shared): engine A's refill can hit for
 * engine B, and engines evict each other's lines. Each engine still
 * owns a private backing store (its own simulated DRAM image), and the
 * engines' stores genuinely diverge over time — different packets land
 * in different engines' packet buffers, faulty runs corrupt different
 * bytes. The shared array therefore distinguishes two kinds of line:
 *
 *  - **Shared frames** hold a DRAM line whose bytes are identical in
 *    every engine's store (code, lookup tables, anything untouched
 *    since the identical control-plane initialization). They are
 *    tagged with the plain DRAM address, are always clean, and any
 *    engine may hit them — these are the cross-engine hits that make
 *    sharing worthwhile.
 *  - **Colored lines** hold a DRAM line that differs between stores.
 *    Engine pe's copy is tagged `addr + (pe+1) * memBytes`; the
 *    stride is a multiple of the L2 set span, so coloring preserves
 *    the set index and only the tag changes. Colored lines behave
 *    exactly like private-L2 lines that happen to share capacity.
 *
 * Divergence is tracked per DRAM line in a monotone bitmap: lines
 * start shared and become diverged the first time any engine's copy of
 * the underlying bytes can differ — a dirty writeback into the L2, a
 * DMA into the line (packet arrival), a line migrated in dirty from an
 * engine's control-plane-warmed private L2, or a pre-existing store
 * mismatch found by seedDivergence() at attach time (control-plane
 * faults). A
 * diverged line never becomes shared again; monotonicity is what makes
 * the scheme provably value-preserving: every engine always reads
 * exactly the bytes it would have read from a private L2, and only the
 * *timing* (hit/miss pattern, port waits) changes.
 */

#ifndef CLUMSY_NPU_SHARED_L2_HH
#define CLUMSY_NPU_SHARED_L2_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/f14_table.hh"
#include "common/pool.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/dram.hh"
#include "energy/chip_energy.hh"
#include "mem/backing_store.hh"
#include "mem/cache.hh"
#include "mem/l2_backend.hh"
#include "mem/l2_port.hh"

namespace clumsy::npu
{

/** FIFO arbitration over a fixed-width, K-MSHR L2 port. */
class SharedL2Port : public mem::L2PortArbiter
{
  public:
    /**
     * @param hitService  port occupancy of an L2 hit transfer, quanta.
     * @param missService occupancy when the line also transferred
     *                    from DRAM.
     * @param mshrs       transfers that may overlap before the port
     *                    serializes (>= 1).
     */
    SharedL2Port(Quanta hitService, Quanta missService,
                 unsigned mshrs = 1)
        : hitService_(hitService), missService_(missService),
          slots_(mshrs, 0)
    {
    }

    Quanta requestPort(unsigned requester, Quanta endTime,
                       unsigned l2Accesses, unsigned l2Misses,
                       const mem::L2LineUse *lines,
                       unsigned lineCount) override;

    /** Convenience overload: no line events (no merging possible). */
    Quanta requestPort(unsigned requester, Quanta endTime,
                       unsigned l2Accesses, unsigned l2Misses)
    {
        return requestPort(requester, endTime, l2Accesses, l2Misses,
                           nullptr, 0);
    }

    /**
     * Put a modeled DRAM behind the port (line card). Every miss
     * line of a granted access issues one gateway request at the
     * access's port-window end minus @p flatQuanta (the point the
     * flat-penalty model would start the DRAM transfer, salted by
     * @p addrSalt into the card's physical address space); the
     * largest extra latency among the access's lines is folded into
     * the requester's stall, exactly like port queuing. Null (the
     * default) leaves the pre-DRAM timing byte-identical.
     */
    void attachDram(dram::DramGateway *dram, std::uint64_t addrSalt,
                    Quanta flatQuanta)
    {
        dram_ = dram;
        dramSalt_ = addrSalt;
        dramFlat_ = flatQuanta;
    }

    /** Chip time the last MSHR frees up (port fully idle after). */
    Quanta busyUntil() const;

    /** Number of MSHRs. */
    unsigned mshrs() const
    {
        return static_cast<unsigned>(slots_.size());
    }

    /** Port counters: requests, port_uses, contended, wait_quanta,
     *  mshr_merges; with a DRAM attached also dram_requests and
     *  dram_extra_quanta. */
    const StatGroup &stats() const { return stats_; }

  private:
    /** One shareable DRAM transfer still occupying an MSHR. */
    struct Inflight
    {
        unsigned requester = 0; ///< engine that started the transfer
        Quanta end = 0;         ///< chip time the transfer completes
    };

    Quanta hitService_;
    Quanta missService_;
    std::vector<Quanta> slots_; ///< per-MSHR busy-until times
    dram::DramGateway *dram_ = nullptr; ///< modeled DRAM (may be null)
    std::uint64_t dramSalt_ = 0;        ///< chip offset into DRAM space
    Quanta dramFlat_ = 0; ///< flat penalty already inside endTime
    StatGroup stats_{"l2port"};

    // Counter handles, interned on first increment (StatGroup::inc):
    // the warm path bumps them with no string key or map lookup.
    std::uint64_t *requests_ = nullptr;
    std::uint64_t *portUses_ = nullptr;
    std::uint64_t *mshrMerges_ = nullptr;
    std::uint64_t *contended_ = nullptr;
    std::uint64_t *waitQuanta_ = nullptr;
    std::uint64_t *dramRequests_ = nullptr;
    std::uint64_t *dramExtraQuanta_ = nullptr;

    /** Line base -> in-flight shareable transfer (merge window). */
    std::unordered_map<SimAddr, Inflight> inflight_;
};

/**
 * The chip's shared L2 contents. Engines access it through per-engine
 * View objects (the hierarchy's L2Backend seam); the chip owns one
 * SharedL2Cache and N views.
 */
class SharedL2Cache
{
  public:
    /** Per-engine counters mirroring a private L2's hit/miss stats. */
    struct EngineStats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        /** Hits on a shared frame another engine's refill installed. */
        std::uint64_t crossHits = 0;
        /** This engine's lines evicted by another engine's fill. */
        std::uint64_t evictedByOther = 0;
    };

    /** The per-engine L2Backend the hierarchy talks through. */
    class View final : public mem::L2Backend
    {
      public:
        View() = default;

        /** Wire up (chip setup): owner cache + this engine's id. */
        void bind(SharedL2Cache *shared, unsigned pe)
        {
            shared_ = shared;
            pe_ = pe;
        }

        bool lookup(SimAddr addr) override
        {
            return shared_->lookup(pe_, addr);
        }

        void fill(SimAddr base, const std::uint8_t *data) override
        {
            shared_->fill(pe_, base, data);
        }

        bool contains(SimAddr addr) const override
        {
            return shared_->contains(pe_, addr);
        }

        void flushLine(SimAddr addr) override
        {
            shared_->flushLine(pe_, addr);
        }

        std::uint32_t readWordRaw(SimAddr addr) const override
        {
            return shared_->readWordRaw(pe_, addr);
        }

        void readRange(SimAddr addr, std::uint8_t *dst,
                       SimSize len) const override
        {
            shared_->readRange(pe_, addr, dst, len);
        }

        void writeRange(SimAddr addr, const std::uint8_t *src,
                        SimSize len, bool markDirty) override
        {
            shared_->writeRange(pe_, addr, src, len, markDirty);
        }

        bool sharedFrame(SimAddr addr) const override
        {
            return shared_->sharedFrame(addr);
        }

        const mem::Cache &cache() const override
        {
            return shared_->array();
        }

      private:
        SharedL2Cache *shared_ = nullptr;
        unsigned pe_ = 0;
    };

    /**
     * @param geom     L2 geometry (one array for the whole chip).
     * @param codec    check-bit codec (must match the engines' L1D).
     * @param memBytes size of each engine's backing store; also the
     *                 coloring stride, so it must be a multiple of the
     *                 L2 set span (always true for power-of-two
     *                 stores >= the L2 way size).
     * @param peCount  engines on the chip.
     */
    SharedL2Cache(const mem::CacheGeometry &geom, mem::CheckCodec codec,
                  SimSize memBytes, unsigned peCount);

    /**
     * Register engine pe's collaborators and return its view. Setup
     * order (the chip model follows it): attach every engine, then
     * seedDivergence(), then noteDirtyLines() for every engine, then
     * migrateFrom() for every engine, then swap the views in.
     */
    View *attach(unsigned pe, mem::BackingStore *store,
                 energy::EnergyAccount *energy);

    /**
     * Diff every attached store line-by-line against engine 0's and
     * mark mismatching DRAM lines diverged. Called once, after every
     * engine is attached: control-plane faults leave different bytes
     * in different stores, and those lines must never share a frame.
     *
     * The diff walks store pages, not lines: a page no engine has
     * written is zero everywhere and is skipped, and the lines of the
     * rest are compared in place through the stores' page views (a
     * page one engine never wrote compares as zeros).
     *
     * With a @p pool of more than one worker the diff itself fans out
     * over disjoint runs of written pages (reads only; each job
     * records its mismatches in a per-job slot) and the divergence
     * marks are applied at the barrier in ascending line order — the
     * serial iteration order — so the bitmap, the count and the stats
     * are byte-identical to the single-threaded diff.
     */
    void seedDivergence(const WorkStealingPool *pool = nullptr);

    /**
     * Mark every line @p privateL2 holds dirty as diverged. A dirty
     * private line is bytes the engine's store does not hold yet, so
     * the engines' effective contents differ there even when the
     * stores agree. Must run for every engine before any
     * migrateFrom().
     */
    void noteDirtyLines(const mem::Cache &privateL2);

    /**
     * Replay engine pe's resident private-L2 lines into the shared
     * array, least-recently-used first so relative line age survives
     * the move. Non-diverged lines become shared frames (first
     * installer wins; later engines' identical copies are skipped);
     * diverged lines become pe's colored copies with their dirty bits
     * preserved. For a one-engine chip this reproduces the private
     * array exactly — contents, LRU order and dirty state — which is
     * what makes pes=1 l2=shared bit-identical to l2=private.
     */
    void migrateFrom(unsigned pe, const mem::Cache &privateL2);

    // --- the L2 operations, tagged with the requesting engine -------

    bool lookup(unsigned pe, SimAddr addr);
    void fill(unsigned pe, SimAddr base, const std::uint8_t *data);
    bool contains(unsigned pe, SimAddr addr) const;
    void flushLine(unsigned pe, SimAddr addr);
    std::uint32_t readWordRaw(unsigned pe, SimAddr addr) const;
    void readRange(unsigned pe, SimAddr addr, std::uint8_t *dst,
                   SimSize len) const;
    void writeRange(unsigned pe, SimAddr addr, const std::uint8_t *src,
                    SimSize len, bool markDirty);

    /** Would an access to addr touch a shared (mergeable) frame? */
    bool sharedFrame(SimAddr addr) const
    {
        return !diverged(lineBase(addr));
    }

    // --- inspection --------------------------------------------------

    /** The underlying array (capacity/occupancy invariants, stats). */
    const mem::Cache &array() const { return cache_; }

    /** Per-engine hit/miss/cross-hit/eviction counters. */
    const EngineStats &engineStats(unsigned pe) const
    {
        return engineStats_[pe];
    }

    /** Chip-level counters: writebacks_to_mem, diverged_lines,
     *  shared_to_colored. */
    const StatGroup &stats() const { return stats_; }

    /** DRAM lines currently marked diverged. */
    std::uint64_t divergedLines() const { return divergedCount_; }

  private:
    mem::Cache cache_;
    SimSize memBytes_;
    SimSize lineBytes_;
    SimAddr stride_; ///< coloring stride = memBytes_
    unsigned peCount_;
    std::vector<mem::BackingStore *> stores_;
    std::vector<energy::EnergyAccount *> energies_;
    std::vector<View> views_;
    std::vector<EngineStats> engineStats_;
    std::vector<char> diverged_; ///< per-DRAM-line, monotone
    std::vector<std::uint8_t> flushBuf_; ///< one line, for flushLine
    /**
     * Shared-frame line base -> engine whose refill installed it
     * (flat: a fill or eviction allocates nothing).
     */
    F14Table<SimAddr, unsigned> fillOwner_;
    StatGroup stats_{"shared_l2"};
    std::uint64_t *writebacksToMem_ = nullptr; ///< interned on first use
    std::uint64_t divergedCount_ = 0;

    SimAddr lineBase(SimAddr addr) const
    {
        return addr & ~(lineBytes_ - 1);
    }

    bool diverged(SimAddr base) const
    {
        return diverged_[base / lineBytes_] != 0;
    }

    void markDiverged(SimAddr base);

    /** The array key engine pe uses for addr (shared or colored). */
    SimAddr keyFor(unsigned pe, SimAddr addr) const
    {
        return diverged(lineBase(addr))
                   ? addr + stride_ * (SimAddr{pe} + 1)
                   : addr;
    }

    /** Handle a victim evicted by engine pe's fill. */
    void handleVictim(unsigned pe, const mem::Cache::Evicted &victim);

    /** Convert a present shared frame to pe's colored line in place. */
    void convertToColored(unsigned pe, SimAddr base);
};

} // namespace clumsy::npu

#endif // CLUMSY_NPU_SHARED_L2_HH
