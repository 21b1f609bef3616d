/**
 * @file
 * The L2 storage seam of the memory hierarchy.
 *
 * MemHierarchy's L1 stacks (split I/D caches, fault injection, strike
 * recovery) are strictly per-engine, but the unified L2 behind them
 * may be either the engine's own private array (the single-core model
 * of the paper) or one array shared by every engine on a chip
 * (npu::SharedL2Cache). This interface is the seam between the two:
 * the hierarchy performs every L2 operation through an L2Backend and
 * never touches a Cache directly, so swapping backends changes *whose
 * lines an engine can hit* without touching the L1 datapath, the
 * fault machinery, or the timing formulas.
 *
 * The contract mirrors how the hierarchy uses its private L2 today:
 *
 *  - lookup()/fill() implement the demand path. fill() receives the
 *    line read from the *requesting engine's* backing store and is
 *    responsible for victim writeback (a private backend writes dirty
 *    victims to that same store; a shared backend must route each
 *    victim to the store of the engine that owns its contents).
 *  - writeRange() carries L1 writebacks and strike writebacks into
 *    the L2 (always with markDirty, after an ensure).
 *  - flushLine() is the DMA flush: dirty data reaches the owning
 *    store, then the cached copy is dropped.
 *  - readRange() copies an L1 line's slice out for a refill (one
 *    probe per fill); readWordRaw()/contains() serve word refetches,
 *    bypass reads and the untimed peek path.
 *  - sharedFrame() tells the port arbiter whether another engine may
 *    legitimately consume the transfer of this line (MSHR merging);
 *    a private backend answers false for everything.
 */

#ifndef CLUMSY_MEM_L2_BACKEND_HH
#define CLUMSY_MEM_L2_BACKEND_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "energy/chip_energy.hh"
#include "mem/backing_store.hh"
#include "mem/cache.hh"

namespace clumsy::mem
{

/** Storage behind the hierarchy's L2 operations. */
class L2Backend
{
  public:
    virtual ~L2Backend() = default;

    /** Demand lookup (LRU + hit/miss accounting). */
    virtual bool lookup(SimAddr addr) = 0;

    /**
     * Install the line containing @p base (line-aligned) with data
     * read from the requesting engine's backing store; handle the
     * victim, writing dirty contents back to the store of the engine
     * that owns them.
     */
    virtual void fill(SimAddr base, const std::uint8_t *data) = 0;

    /** Presence probe without LRU/stat side effects. */
    virtual bool contains(SimAddr addr) const = 0;

    /**
     * Flush the line containing @p addr for DMA: write dirty contents
     * to the owning store, then invalidate the cached copy. No-op
     * when absent.
     */
    virtual void flushLine(SimAddr addr) = 0;

    /** Raw stored word; the line must be present. */
    virtual std::uint32_t readWordRaw(SimAddr addr) const = 0;

    /**
     * Copy len raw stored bytes from addr out of a present line (an
     * L1 line's slice): the bytes readWordRaw() gives word by word,
     * for one tag probe.
     */
    virtual void readRange(SimAddr addr, std::uint8_t *dst,
                           SimSize len) const = 0;

    /**
     * Overwrite bytes inside a present line (L1/strike writebacks,
     * always markDirty), regenerating check bits.
     */
    virtual void writeRange(SimAddr addr, const std::uint8_t *src,
                            SimSize len, bool markDirty) = 0;

    /**
     * May another engine hit this line's in-flight transfer? Feeds
     * mem::L2LineUse::shareable for the port arbiter's MSHR merging.
     */
    virtual bool sharedFrame(SimAddr addr) const = 0;

    /** The underlying array (stats/geometry inspection). */
    virtual const Cache &cache() const = 0;
};

/**
 * The single-core backend: the hierarchy's own private L2 array, with
 * dirty victims and flushes written to the engine's own store. Every
 * operation is the exact sequence MemHierarchy performed before the
 * seam existed — bit-for-bit, including stat and energy ordering.
 */
class PrivateL2Backend final : public L2Backend
{
  public:
    PrivateL2Backend() = default;

    /** Wire up the hierarchy-owned collaborators (hierarchy ctor). */
    void bind(Cache *l2, BackingStore *store,
              energy::EnergyAccount *energy, StatGroup *stats)
    {
        l2_ = l2;
        store_ = store;
        energy_ = energy;
        stats_ = stats;
        writebacksToMem_ = nullptr;
        flushBuf_.resize(l2_->lineBytes());
    }

    bool lookup(SimAddr addr) override
    {
        return l2_->lookup(addr).has_value();
    }

    void fill(SimAddr base, const std::uint8_t *data) override
    {
        const Cache::Evicted victim = l2_->fill(base, data);
        if (!victim.valid || !victim.dirty)
            return;
        store_->writeBlock(victim.base, victim.data.data(),
                           static_cast<SimSize>(victim.data.size()));
        if (energy_)
            energy_->addMemAccess();
        stats_->inc(writebacksToMem_, "l2_writebacks_to_mem");
    }

    bool contains(SimAddr addr) const override
    {
        return l2_->contains(addr);
    }

    void flushLine(SimAddr addr) override
    {
        const LineRef line = l2_->find(addr);
        if (!line)
            return;
        if (l2_->isDirty(*line)) {
            l2_->readLine(*line, flushBuf_.data());
            store_->writeBlock(l2_->lineBase(addr), flushBuf_.data(),
                               l2_->lineBytes());
        }
        l2_->invalidate(*line);
    }

    std::uint32_t readWordRaw(SimAddr addr) const override
    {
        return l2_->readWordRaw(l2_->lineOf(addr), addr);
    }

    void readRange(SimAddr addr, std::uint8_t *dst,
                   SimSize len) const override
    {
        l2_->readRange(l2_->lineOf(addr), addr, dst, len);
    }

    void writeRange(SimAddr addr, const std::uint8_t *src, SimSize len,
                    bool markDirty) override
    {
        l2_->writeRange(l2_->lineOf(addr), addr, src, len, markDirty);
    }

    bool sharedFrame(SimAddr) const override { return false; }

    const Cache &cache() const override { return *l2_; }

  private:
    Cache *l2_ = nullptr;
    BackingStore *store_ = nullptr;
    energy::EnergyAccount *energy_ = nullptr;
    StatGroup *stats_ = nullptr;
    std::uint64_t *writebacksToMem_ = nullptr; ///< interned on first use
    std::vector<std::uint8_t> flushBuf_; ///< one L2 line, for flushLine
};

} // namespace clumsy::mem

#endif // CLUMSY_MEM_L2_BACKEND_HH
