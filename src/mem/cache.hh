/**
 * @file
 * Generic data-carrying, write-back, LRU set-associative cache.
 *
 * Unlike trace-driven cache models, lines hold real bytes plus
 * per-word check bits (parity or SEC-DED, per the codec), because the
 * whole point of the clumsy architecture is that corrupted cached
 * data flows back into the application. The stored check bits can
 * legitimately disagree with the stored data (that is exactly what an
 * undetected-at-write fault looks like), so data and check bits are
 * written through separate, explicit interfaces.
 *
 * Fault injection, recovery policy and latency/energy accounting live
 * one layer up (mem/hierarchy.hh); this class is purely the array.
 *
 * The per-line metadata (tags, valid/dirty bits, LRU stamps) and the
 * stored bytes/check bits live in flat structure-of-arrays vectors
 * indexed by set * assoc + way, not in per-line structs: a lookup
 * touches one densely packed tag lane instead of striding over
 * heap-allocated line objects, and the whole hit path is inline here
 * so the hierarchy's access loop compiles without a call per probe.
 *
 * Tags are probed once per access: lookup(), find() and fill() hand
 * back the line's flat index, and every data or state accessor takes
 * that index. An index names its line until the next fill() or
 * invalidate() of the array; after either, probe again.
 *
 * The data and check-bit arrays are allocated without being filled:
 * no byte of them is read before it is written. fill() writes a whole
 * line and all its check bits, and every accessor that reads a line's
 * bytes or check bits first checks that the line is valid, which only
 * fill() makes it. Leaving them unfilled spares a construction-time
 * memset of every array (an L2 is ~160 KB) on each processor.
 */

#ifndef CLUMSY_MEM_CACHE_HH
#define CLUMSY_MEM_CACHE_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "energy/cacti_lite.hh"
#include "mem/parity.hh"
#include "mem/secded.hh"

namespace clumsy::mem
{

using energy::CacheGeometry;

/** Per-word check-bit codec a cache regenerates on fills/clean writes. */
enum class CheckCodec
{
    Parity, ///< 1 even-parity bit (check byte bit 0)
    Secded, ///< 7-bit Hamming SEC-DED code
};

/**
 * What a tag probe found: the flat index (set * assoc + way) of the
 * resident line, or nothing. The std::optional subset the callers
 * use, packed into one word with a sentinel so a probe result stays
 * in a register on the access path.
 */
class LineRef
{
  public:
    /** No line. */
    LineRef() = default;

    explicit LineRef(std::size_t index) : index_(index) {}

    bool has_value() const { return index_ != kAbsent; }
    explicit operator bool() const { return has_value(); }

    /** The line's flat index (only meaningful when has_value()). */
    std::size_t operator*() const { return index_; }

  private:
    static constexpr std::size_t kAbsent = SIZE_MAX;
    std::size_t index_ = kAbsent;
};

/** One cache array with real data and per-word check bits. */
class Cache
{
  public:
    /**
     * What fill() did: the installed line and the evicted victim.
     *
     * Lifetime: @c data is a view of one victim line the cache owns
     * and reuses on every dirty eviction, not a copy. It stays valid
     * until this cache's next fill() — write a dirty victim back
     * before filling the same cache again. Fills of other caches
     * (the L2 behind an L1D) leave it intact.
     */
    struct Evicted
    {
        std::size_t line = 0; ///< frame now holding the filled line
        bool valid = false;   ///< a valid victim was evicted
        bool dirty = false;
        SimAddr base = 0;
        /** Victim bytes (dirty only; empty otherwise; see above). */
        std::span<const std::uint8_t> data;
    };

    Cache(std::string name, CacheGeometry geom,
          CheckCodec codec = CheckCodec::Parity);

    /**
     * The line containing addr, if present. A pure probe: no LRU
     * update, no counters.
     */
    LineRef find(SimAddr addr) const
    {
        const std::size_t first =
            std::size_t{setIndex(addr)} * geom_.assoc;
        const std::uint32_t tag = tagOf(addr);
        for (unsigned w = 0; w < geom_.assoc; ++w) {
            if (valid_[first + w] && tags_[first + w] == tag)
                return LineRef(first + w);
        }
        return LineRef();
    }

    /** @return true when the line containing addr is present. */
    bool contains(SimAddr addr) const { return find(addr).has_value(); }

    /** The present line containing addr; panics when absent. */
    std::size_t lineOf(SimAddr addr) const
    {
        const LineRef line = find(addr);
        CLUMSY_ASSERT(line.has_value(), "line not present");
        return *line;
    }

    /**
     * Look up the line containing addr, updating LRU and hit/miss
     * counters. @return the line on a hit.
     */
    LineRef lookup(SimAddr addr) { return account(find(addr)); }

    /**
     * lookup()'s bookkeeping for a probe find() already made: count
     * the miss, or the hit as touchHit() does. @return @p probed.
     */
    LineRef account(LineRef probed)
    {
        if (!probed)
            ++*misses_;
        else
            touchHit(*probed);
        return probed;
    }

    /** lookup()'s hit bookkeeping: count it, make @p line the MRU. */
    void touchHit(std::size_t line)
    {
        ++*hits_;
        lru_[line] = ++tick_;
    }

    /**
     * Install the line containing addr with the given lineBytes() of
     * data (parity regenerated from it). The line must not already be
     * present. @return the installed line and the evicted victim.
     */
    Evicted fill(SimAddr addr, const std::uint8_t *data);

    /** Drop a present line without writeback. */
    void invalidate(std::size_t line);

    /**
     * Permanently retire the frame @p line: it never holds a line
     * again — fill() skips it when picking victims. The frame must
     * already be invalid (invalidate first); way-disable recovery in
     * the hierarchy is the only caller. reset() re-enables all
     * frames (fresh-silicon semantics, like dropping the contents).
     */
    void disableFrame(std::size_t line);

    /**
     * @return true when the set containing addr still has at least
     * one non-retired frame (always true while nothing is retired).
     */
    bool hasEnabledWay(SimAddr addr) const
    {
        if (disabledFrames_ == 0)
            return true;
        const std::size_t first =
            std::size_t{setIndex(addr)} * geom_.assoc;
        for (unsigned w = 0; w < geom_.assoc; ++w)
            if (!disabled_[first + w])
                return true;
        return false;
    }

    /** Total frames retired by disableFrame(). */
    unsigned disabledFrameCount() const { return disabledFrames_; }

    /**
     * Re-tag the (present) line containing @p from so it answers to
     * @p to instead. Both addresses must map to the same set and the
     * destination must be absent. Data, dirty bit, check bits and LRU
     * position are untouched and no counters move: this is
     * bookkeeping (the shared L2's shared->colored conversion), not a
     * memory transaction.
     */
    void retag(SimAddr from, SimAddr to);

    /**
     * Raw stored 32-bit word at addr inside @p line (the present line
     * containing addr); addr must be 4-aligned.
     */
    std::uint32_t readWordRaw(std::size_t line, SimAddr addr) const
    {
        checkWordAccess(line, addr);
        std::uint32_t v;
        std::memcpy(&v,
                    &data_[line * geom_.lineBytes +
                           (addr & (geom_.lineBytes - 1))],
                    4);
        return v;
    }

    /**
     * Store a word along with explicitly supplied check bits. The
     * caller computes storedValue (possibly fault-corrupted) and the
     * check bits of the *intended* value, modeling the check-bit
     * generator sitting before the array.
     */
    void writeWordRaw(std::size_t line, SimAddr addr,
                      std::uint32_t storedValue,
                      std::uint8_t intendedCheck)
    {
        checkWordAccess(line, addr);
        const SimAddr off = addr & (geom_.lineBytes - 1);
        std::memcpy(&data_[line * geom_.lineBytes + off], &storedValue,
                    4);
        check_[line * wordsPerLine_ + off / 4] = intendedCheck;
    }

    /** The stored check bits guarding the word at addr in @p line. */
    std::uint8_t wordCheck(std::size_t line, SimAddr addr) const
    {
        checkWordAccess(line, addr);
        return check_[line * wordsPerLine_ +
                      ((addr & (geom_.lineBytes - 1)) / 4)];
    }

    /** Check bits this cache's codec generates for a word. */
    std::uint8_t computeCheck(std::uint32_t word) const
    {
        if (codec_ == CheckCodec::Secded)
            return secded::encode(word);
        return parityBit(word) ? 1 : 0;
    }

    /** The codec in use. */
    CheckCodec codec() const { return codec_; }

    /** Mark a present line dirty. */
    void setDirty(std::size_t line)
    {
        checkPresent(line);
        dirty_[line] = 1;
    }

    /** @return true when a present line is dirty. */
    bool isDirty(std::size_t line) const
    {
        checkPresent(line);
        return dirty_[line] != 0;
    }

    /** Copy a whole present line out. */
    void readLine(std::size_t line, std::uint8_t *dst) const;

    /**
     * Copy len stored bytes starting at addr inside @p line (the
     * present line containing addr) out, check bits aside.
     */
    void readRange(std::size_t line, SimAddr addr, std::uint8_t *dst,
                   SimSize len) const;

    /**
     * Overwrite len bytes starting at addr inside @p line (the present
     * line containing addr), regenerating check bits for the touched
     * words.
     */
    void writeRange(std::size_t line, SimAddr addr,
                    const std::uint8_t *src, SimSize len, bool markDirty);

    /** Base address of the line containing addr. */
    SimAddr lineBase(SimAddr addr) const
    {
        return addr & ~(geom_.lineBytes - 1);
    }

    /** The array geometry. */
    const CacheGeometry &geometry() const { return geom_; }

    /** Line size in bytes. */
    SimSize lineBytes() const { return geom_.lineBytes; }

    /** hit/miss/fill/eviction/writeback counters. */
    const StatGroup &stats() const { return stats_; }

    /** Zero the counters (contents are kept). */
    void resetStats() { stats_.reset(); }

    /** Invalidate every line and zero LRU state (contents dropped). */
    void reset();

    /** Valid lines currently resident (capacity occupancy probe). */
    std::size_t validLineCount() const;

    /**
     * Base addresses of every dirty resident line, in array order
     * (set-major, then way) — a deterministic iteration for bulk
     * flushes.
     */
    std::vector<SimAddr> dirtyLineBases() const;

    /**
     * Base addresses of every resident line, least-recently-used
     * first. Replaying fills in this order into another array
     * reproduces the relative LRU ordering — the shared L2 uses it to
     * migrate an engine's private contents without changing which
     * victim the next fill picks.
     */
    std::vector<SimAddr> residentLineBasesByLru() const;

    /** D-cache miss rate over lifetime (misses / lookups). */
    double missRate() const;

  private:
    CacheGeometry geom_;
    CheckCodec codec_;
    StatGroup stats_;

    // Flat SoA metadata, indexed set * assoc + way:
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint8_t> dirty_;
    std::vector<std::uint32_t> tags_;
    std::vector<std::uint64_t> lru_;
    std::unique_ptr<std::uint8_t[]> data_;  ///< lines * lineBytes blob
    std::unique_ptr<std::uint8_t[]> check_; ///< lines * wordsPerLine blob
    std::vector<std::uint8_t> victim_; ///< last dirty victim (Evicted)

    // Retired frames (way-disable recovery). disabledFrames_ == 0 on
    // every path until a frame is retired, so the hot paths pay one
    // predictable compare.
    std::vector<std::uint8_t> disabled_;
    unsigned disabledFrames_ = 0;

    std::uint64_t tick_ = 0;
    unsigned setShift_; ///< log2(lineBytes)
    std::uint32_t setMask_;
    unsigned wordsPerLine_;

    // Interned hot counters (point into stats_'s stable map nodes).
    std::uint64_t *hits_;
    std::uint64_t *misses_;
    std::uint64_t *fills_;
    std::uint64_t *evictions_;
    std::uint64_t *writebacks_;
    std::uint64_t *invalidations_;

    std::uint32_t setIndex(SimAddr addr) const
    {
        return static_cast<std::uint32_t>(addr >> setShift_) & setMask_;
    }

    std::uint32_t tagOf(SimAddr addr) const
    {
        return static_cast<std::uint32_t>(addr >> setShift_);
    }

    /** Panics unless @p line is a valid, present line. */
    void checkPresent(std::size_t line) const
    {
        CLUMSY_ASSERT(line < valid_.size() && valid_[line],
                      "line not present");
    }

    /**
     * Panics unless @p addr is a 4-aligned word of the present line
     * @p line (the tag compare costs no probe: the line is given).
     */
    void checkWordAccess(std::size_t line, SimAddr addr) const
    {
        CLUMSY_ASSERT(addr % 4 == 0, "word access must be 4-aligned");
        checkPresent(line);
        CLUMSY_ASSERT(tags_[line] == tagOf(addr),
                      "word outside the given line");
    }

    std::uint8_t *dataOf(std::size_t line)
    {
        return &data_[line * geom_.lineBytes];
    }

    const std::uint8_t *dataOf(std::size_t line) const
    {
        return &data_[line * geom_.lineBytes];
    }
};

} // namespace clumsy::mem

#endif // CLUMSY_MEM_CACHE_HH
