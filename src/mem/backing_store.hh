/**
 * @file
 * The simulated flat physical memory (DRAM ground truth).
 *
 * All application data structures live in this address space; the cache
 * hierarchy sits in front of it. Accesses are bounds-checked: a wild
 * address produced by fault-corrupted pointer data is reported to the
 * caller instead of touching host memory, which is one of the two ways
 * the paper's "fatal errors" are detected (the other is loop budgets).
 *
 * The memory is a table of fixed-size pages, materialized on first
 * write. A page that was never written reads as zero through one
 * shared static zero page, so a store costs host memory only for what
 * the simulation actually wrote, and code that compares stores can
 * skip pages nobody touched.
 */

#ifndef CLUMSY_MEM_BACKING_STORE_HH
#define CLUMSY_MEM_BACKING_STORE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace clumsy::mem
{

/** Byte-addressable simulated physical memory. */
class BackingStore
{
  public:
    /** Page granularity of lazy materialization, in bytes. */
    static constexpr SimSize kPageBytes = 4096;

    /** @param size memory size in bytes (must be > 0). */
    explicit BackingStore(SimSize size);

    /** Deep copy: the copy owns its own pages. */
    BackingStore(const BackingStore &other);
    BackingStore &operator=(const BackingStore &other);
    BackingStore(BackingStore &&) noexcept = default;
    BackingStore &operator=(BackingStore &&) noexcept = default;

    /** @return true when [addr, addr+len) lies inside the memory. */
    bool contains(SimAddr addr, SimSize len) const
    {
        // Guard the addition against 32-bit wraparound.
        return std::uint64_t{addr} + len <= size_;
    }

    /** Read one byte; addr must be in range. */
    std::uint8_t read8(SimAddr addr) const;

    /** Write one byte; addr must be in range. */
    void write8(SimAddr addr, std::uint8_t value);

    /** Read a little-endian 32-bit word; addr must be 4-aligned. */
    std::uint32_t read32(SimAddr addr) const;

    /** Write a little-endian 32-bit word; addr must be 4-aligned. */
    void write32(SimAddr addr, std::uint32_t value);

    /** Copy len bytes out of the memory. */
    void readBlock(SimAddr addr, std::uint8_t *dst, SimSize len) const;

    /** Copy len bytes into the memory. */
    void writeBlock(SimAddr addr, const std::uint8_t *src, SimSize len);

    /** Fill len bytes with a value. */
    void fill(SimAddr addr, std::uint8_t value, SimSize len);

    /** @return the memory size in bytes. */
    SimSize size() const { return size_; }

    // --- page view ---------------------------------------------------

    /** Pages covering the memory (the last may extend past size()). */
    std::size_t pageCount() const { return pages_.size(); }

    /**
     * The kPageBytes bytes of page @p index (addresses
     * index*kPageBytes onward), or nullptr when the page was never
     * written and therefore reads as zero.
     */
    const std::uint8_t *page(std::size_t index) const
    {
        return pages_[index] ? pages_[index]->data() : nullptr;
    }

    /** kPageBytes of zeros: what every unwritten page reads as. */
    static const std::uint8_t *zeroPage();

  private:
    using Page = std::array<std::uint8_t, kPageBytes>;

    SimSize size_;
    std::vector<std::unique_ptr<Page>> pages_;

    /** Page @p index for reading: its bytes, or the zero page. */
    const std::uint8_t *readable(std::size_t index) const;

    /** Page @p index for writing, zero-filled on first use. */
    std::uint8_t *writable(std::size_t index);
};

} // namespace clumsy::mem

#endif // CLUMSY_MEM_BACKING_STORE_HH
