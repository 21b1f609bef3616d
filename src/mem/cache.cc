#include "mem/cache.hh"

#include <algorithm>
#include <utility>

#include "common/bitops.hh"

namespace clumsy::mem
{

Cache::Cache(std::string name, CacheGeometry geom, CheckCodec codec)
    : geom_(geom), codec_(codec), stats_(std::move(name))
{
    CLUMSY_ASSERT(isPowerOfTwo(geom_.lineBytes) && geom_.lineBytes >= 4,
                  "line size must be a power of two >= 4");
    const std::uint32_t sets = geom_.sets();
    CLUMSY_ASSERT(isPowerOfTwo(sets) && isPowerOfTwo(geom_.assoc),
                  "sets and ways must be powers of two");
    setShift_ = floorLog2(geom_.lineBytes);
    setMask_ = sets - 1;
    wordsPerLine_ = static_cast<unsigned>(geom_.lineBytes / 4);
    const std::size_t lines = std::size_t{sets} * geom_.assoc;
    valid_.assign(lines, 0);
    dirty_.assign(lines, 0);
    disabled_.assign(lines, 0);
    tags_.assign(lines, 0);
    lru_.assign(lines, 0);
    data_ = std::make_unique_for_overwrite<std::uint8_t[]>(
        lines * geom_.lineBytes);
    check_ = std::make_unique_for_overwrite<std::uint8_t[]>(
        lines * wordsPerLine_);
    victim_.assign(geom_.lineBytes, 0);
    hits_ = stats_.slot("hits");
    misses_ = stats_.slot("misses");
    fills_ = stats_.slot("fills");
    evictions_ = stats_.slot("evictions");
    writebacks_ = stats_.slot("writebacks");
    invalidations_ = stats_.slot("invalidations");
}

Cache::Evicted
Cache::fill(SimAddr addr, const std::uint8_t *data)
{
    CLUMSY_ASSERT(!find(addr), "fill of an already-present line");
    const std::size_t first = std::size_t{setIndex(addr)} * geom_.assoc;

    // Pick the victim: an invalid way, else the LRU way. Retired
    // frames are never candidates; the hierarchy guarantees a fill
    // only reaches a set with at least one enabled frame.
    std::size_t victim = SIZE_MAX;
    std::uint64_t oldest = UINT64_MAX;
    for (unsigned w = 0; w < geom_.assoc; ++w) {
        if (disabledFrames_ != 0 && disabled_[first + w])
            continue;
        if (!valid_[first + w]) {
            victim = first + w;
            oldest = 0;
            break;
        }
        if (lru_[first + w] < oldest) {
            oldest = lru_[first + w];
            victim = first + w;
        }
    }
    CLUMSY_ASSERT(victim != SIZE_MAX,
                  "fill into a set with every frame retired");

    Evicted evicted;
    evicted.line = victim;
    if (valid_[victim]) {
        ++*evictions_;
        evicted.valid = true;
        evicted.dirty = dirty_[victim] != 0;
        evicted.base = (tags_[victim] << setShift_);
        if (dirty_[victim]) {
            ++*writebacks_;
            std::memcpy(victim_.data(), dataOf(victim), geom_.lineBytes);
            evicted.data = victim_;
        }
    }

    ++*fills_;
    valid_[victim] = 1;
    dirty_[victim] = 0;
    tags_[victim] = tagOf(addr);
    lru_[victim] = ++tick_;
    std::memcpy(dataOf(victim), data, geom_.lineBytes);
    for (unsigned w = 0; w < wordsPerLine_; ++w) {
        std::uint32_t word;
        std::memcpy(&word, data + w * 4, 4);
        check_[victim * wordsPerLine_ + w] = computeCheck(word);
    }
    return evicted;
}

void
Cache::invalidate(std::size_t line)
{
    checkPresent(line);
    ++*invalidations_;
    valid_[line] = 0;
}

void
Cache::disableFrame(std::size_t line)
{
    CLUMSY_ASSERT(line < valid_.size(), "frame outside the array");
    CLUMSY_ASSERT(!valid_[line], "retiring a frame that holds a line");
    if (disabled_[line])
        return;
    disabled_[line] = 1;
    ++disabledFrames_;
}

void
Cache::retag(SimAddr from, SimAddr to)
{
    CLUMSY_ASSERT(setIndex(from) == setIndex(to),
                  "retag must stay within the set");
    CLUMSY_ASSERT(!find(to), "retag destination already present");
    tags_[lineOf(from)] = tagOf(to);
}

void
Cache::readLine(std::size_t line, std::uint8_t *dst) const
{
    checkPresent(line);
    std::memcpy(dst, dataOf(line), geom_.lineBytes);
}

void
Cache::readRange(std::size_t line, SimAddr addr, std::uint8_t *dst,
                 SimSize len) const
{
    checkPresent(line);
    CLUMSY_ASSERT(tags_[line] == tagOf(addr), "range outside the line");
    const SimAddr off = addr & (geom_.lineBytes - 1);
    CLUMSY_ASSERT(off + len <= geom_.lineBytes, "range crosses the line");
    std::memcpy(dst, dataOf(line) + off, len);
}

void
Cache::writeRange(std::size_t line, SimAddr addr,
                  const std::uint8_t *src, SimSize len, bool markDirty)
{
    checkPresent(line);
    CLUMSY_ASSERT(tags_[line] == tagOf(addr), "range outside the line");
    const SimAddr off = addr & (geom_.lineBytes - 1);
    CLUMSY_ASSERT(off + len <= geom_.lineBytes, "range crosses the line");
    std::uint8_t *data = dataOf(line);
    std::memcpy(data + off, src, len);
    // Regenerate check bits for every word the range touches.
    const unsigned firstWord = static_cast<unsigned>(off / 4);
    const unsigned lastWord = static_cast<unsigned>((off + len - 1) / 4);
    for (unsigned w = firstWord; w <= lastWord; ++w) {
        std::uint32_t word;
        std::memcpy(&word, data + w * 4, 4);
        check_[line * wordsPerLine_ + w] = computeCheck(word);
    }
    if (markDirty)
        dirty_[line] = 1;
}

void
Cache::reset()
{
    std::fill(valid_.begin(), valid_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    std::fill(lru_.begin(), lru_.end(), 0);
    std::fill(disabled_.begin(), disabled_.end(), 0);
    disabledFrames_ = 0;
    tick_ = 0;
}

std::size_t
Cache::validLineCount() const
{
    std::size_t n = 0;
    for (const std::uint8_t v : valid_)
        if (v)
            ++n;
    return n;
}

std::vector<SimAddr>
Cache::dirtyLineBases() const
{
    std::vector<SimAddr> bases;
    for (std::size_t i = 0; i < valid_.size(); ++i)
        if (valid_[i] && dirty_[i])
            bases.push_back(tags_[i] << setShift_);
    return bases;
}

std::vector<SimAddr>
Cache::residentLineBasesByLru() const
{
    std::vector<std::pair<std::uint64_t, SimAddr>> byTick;
    for (std::size_t i = 0; i < valid_.size(); ++i)
        if (valid_[i])
            byTick.emplace_back(lru_[i], tags_[i] << setShift_);
    std::sort(byTick.begin(), byTick.end());
    std::vector<SimAddr> bases;
    bases.reserve(byTick.size());
    for (const auto &[tick, base] : byTick)
        bases.push_back(base);
    return bases;
}

double
Cache::missRate() const
{
    const double hits = static_cast<double>(stats_.get("hits"));
    const double misses = static_cast<double>(stats_.get("misses"));
    const double total = hits + misses;
    return total > 0 ? misses / total : 0.0;
}

} // namespace clumsy::mem
