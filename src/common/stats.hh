/**
 * @file
 * Lightweight statistics containers in the spirit of gem5's stats
 * package: named scalar counters, running accumulators, and fixed-width
 * histograms, grouped for dumping.
 */

#ifndef CLUMSY_COMMON_STATS_HH
#define CLUMSY_COMMON_STATS_HH

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace clumsy
{

/** Running mean/variance/min/max accumulator (Welford's algorithm). */
class Accumulator
{
  public:
    /** Add one sample. */
    void sample(double v);

    /** @return the number of samples seen. */
    std::uint64_t count() const { return n_; }

    /** @return the arithmetic mean (0 when empty). */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** @return the population variance (0 with < 2 samples). */
    double variance() const;

    /** @return the sample standard deviation. */
    double stddev() const;

    /** @return the smallest sample (+inf when empty). */
    double min() const { return min_; }

    /** @return the largest sample (-inf when empty). */
    double max() const { return max_; }

    /** @return the sum of all samples. */
    double sum() const { return sum_; }

    /** Discard all samples. */
    void reset();

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Fixed-bin histogram over [lo, hi) with under/overflow bins. */
class Histogram
{
  public:
    Histogram(double lo, double hi, unsigned bins);

    /** Add one sample. */
    void sample(double v);

    /**
     * Fold another histogram's counts into this one. Both must have
     * the same [lo, hi) range and bin count (fatal()s otherwise), so
     * per-shard histograms — one per worker or per processing engine —
     * can be reduced into a single distribution.
     */
    void merge(const Histogram &other);

    /** @return count in bin i (0-based, excluding out-of-range bins). */
    std::uint64_t binCount(unsigned i) const { return counts_.at(i); }

    /** @return the inclusive lower edge of bin i. */
    double binLo(unsigned i) const;

    /** @return the lower bound of the in-range interval. */
    double lo() const { return lo_; }

    /** @return the exclusive upper bound of the in-range interval. */
    double hi() const { return hi_; }

    /** @return the mean of all samples (0 when empty). */
    double mean() const;

    /** @return number of in-range bins. */
    unsigned bins() const { return static_cast<unsigned>(counts_.size()); }

    /** @return samples below lo. */
    std::uint64_t underflow() const { return under_; }

    /** @return samples at or above hi. */
    std::uint64_t overflow() const { return over_; }

    /** @return total samples, including out-of-range ones. */
    std::uint64_t total() const { return total_; }

  private:
    double lo_, hi_, width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t under_ = 0, over_ = 0, total_ = 0;
    double sum_ = 0.0;
};

/**
 * A named group of scalar counters, addressed by string key.
 *
 * Components expose a StatGroup rather than ad-hoc member counters so
 * the experiment harness can dump everything uniformly.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Add delta (default 1) to the named counter, creating it at 0. */
    void inc(const std::string &key, std::uint64_t delta = 1);

    /**
     * Interned handle to the named counter, creating it at 0. std::map
     * nodes never move, so the pointer stays valid for the group's
     * lifetime (reset() zeroes values in place). Hot paths resolve
     * their counters once at construction and bump through the handle,
     * replacing a string-keyed map lookup per event with one add.
     */
    std::uint64_t *slot(const std::string &key)
    {
        return &counters_[key];
    }

    /**
     * inc() through a lazily interned handle: the first call resolves
     * @p key into @p handle (creating the counter, exactly as inc()
     * would), every later call is one add. For counters a component
     * must not create before their first event — the key set stays
     * the string-keyed inc()'s.
     */
    void inc(std::uint64_t *&handle, const char *key,
             std::uint64_t delta = 1)
    {
        if (handle == nullptr)
            handle = slot(key);
        *handle += delta;
    }

    /** Overwrite the named counter. */
    void set(const std::string &key, std::uint64_t value);

    /** @return the counter's value (0 when never touched). */
    std::uint64_t get(const std::string &key) const;

    /** @return the group's name. */
    const std::string &name() const { return name_; }

    /** @return all counters, sorted by key. */
    const std::map<std::string, std::uint64_t> &counters() const
    {
        return counters_;
    }

    /** Zero every counter (keys are kept). */
    void reset();

    /** Render "name.key = value" lines. */
    std::string dump() const;

  private:
    std::string name_;
    std::map<std::string, std::uint64_t> counters_;
};

} // namespace clumsy

#endif // CLUMSY_COMMON_STATS_HH
