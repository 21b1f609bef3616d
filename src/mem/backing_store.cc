#include "mem/backing_store.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace clumsy::mem
{

namespace
{

/** The one page every never-written page reads through. */
constexpr std::array<std::uint8_t, BackingStore::kPageBytes> kZeroPage{};

/** Byte offset of addr inside its page. */
constexpr SimSize
pageOffset(SimAddr addr)
{
    return addr % BackingStore::kPageBytes;
}

/** Index of the page holding addr. */
constexpr std::size_t
pageIndex(SimAddr addr)
{
    return addr / BackingStore::kPageBytes;
}

} // namespace

BackingStore::BackingStore(SimSize size)
    : size_(size),
      pages_((std::uint64_t{size} + kPageBytes - 1) / kPageBytes)
{
    CLUMSY_ASSERT(size > 0, "backing store must be non-empty");
    // Zero-filled, modeling SimpleScalar-style lazily allocated zero
    // pages (the substrate the paper ran on), and implemented the
    // same way: no page exists until its first write. This shapes
    // fault behaviour decisively: a corrupted pointer that wanders
    // into unallocated memory reads zero records, and a
    // pointer-chasing loop over zeros never advances — the "execution
    // gets stuck in an infinite loop" fatal-error class the paper
    // reports as its dominant one (caught here by the applications'
    // loop budgets).
}

BackingStore::BackingStore(const BackingStore &other)
    : size_(other.size_), pages_(other.pages_.size())
{
    for (std::size_t i = 0; i < pages_.size(); ++i) {
        if (other.pages_[i])
            pages_[i] = std::make_unique<Page>(*other.pages_[i]);
    }
}

BackingStore &
BackingStore::operator=(const BackingStore &other)
{
    if (this != &other)
        *this = BackingStore(other);
    return *this;
}

const std::uint8_t *
BackingStore::zeroPage()
{
    return kZeroPage.data();
}

const std::uint8_t *
BackingStore::readable(std::size_t index) const
{
    return pages_[index] ? pages_[index]->data() : kZeroPage.data();
}

std::uint8_t *
BackingStore::writable(std::size_t index)
{
    if (!pages_[index])
        pages_[index] = std::make_unique<Page>(); // value-init: zeros
    return pages_[index]->data();
}

std::uint8_t
BackingStore::read8(SimAddr addr) const
{
    CLUMSY_ASSERT(contains(addr, 1), "read8 out of range");
    return readable(pageIndex(addr))[pageOffset(addr)];
}

void
BackingStore::write8(SimAddr addr, std::uint8_t value)
{
    CLUMSY_ASSERT(contains(addr, 1), "write8 out of range");
    writable(pageIndex(addr))[pageOffset(addr)] = value;
}

std::uint32_t
BackingStore::read32(SimAddr addr) const
{
    CLUMSY_ASSERT(contains(addr, 4) && addr % 4 == 0,
                  "read32 misaligned or out of range");
    // Aligned words never straddle a page.
    std::uint32_t v;
    std::memcpy(&v, readable(pageIndex(addr)) + pageOffset(addr), 4);
    return v;
}

void
BackingStore::write32(SimAddr addr, std::uint32_t value)
{
    CLUMSY_ASSERT(contains(addr, 4) && addr % 4 == 0,
                  "write32 misaligned or out of range");
    std::memcpy(writable(pageIndex(addr)) + pageOffset(addr), &value, 4);
}

void
BackingStore::readBlock(SimAddr addr, std::uint8_t *dst, SimSize len) const
{
    CLUMSY_ASSERT(contains(addr, len), "readBlock out of range");
    while (len > 0) {
        const SimSize off = pageOffset(addr);
        const SimSize n = std::min(len, kPageBytes - off);
        std::memcpy(dst, readable(pageIndex(addr)) + off, n);
        addr += n;
        dst += n;
        len -= n;
    }
}

void
BackingStore::writeBlock(SimAddr addr, const std::uint8_t *src, SimSize len)
{
    CLUMSY_ASSERT(contains(addr, len), "writeBlock out of range");
    while (len > 0) {
        const SimSize off = pageOffset(addr);
        const SimSize n = std::min(len, kPageBytes - off);
        std::memcpy(writable(pageIndex(addr)) + off, src, n);
        addr += n;
        src += n;
        len -= n;
    }
}

void
BackingStore::fill(SimAddr addr, std::uint8_t value, SimSize len)
{
    CLUMSY_ASSERT(contains(addr, len), "fill out of range");
    while (len > 0) {
        const SimSize off = pageOffset(addr);
        const SimSize n = std::min(len, kPageBytes - off);
        std::memset(writable(pageIndex(addr)) + off, value, n);
        addr += n;
        len -= n;
    }
}

} // namespace clumsy::mem
