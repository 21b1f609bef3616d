/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Every stochastic component (fault injector, trace generators, noise
 * Monte-Carlo) owns its own Rng instance seeded from the experiment
 * configuration, so golden and faulty runs replay identical packet
 * streams while fault sampling varies independently.
 *
 * The generator is xoshiro256** (public-domain algorithm by Blackman and
 * Vigna): fast, 256-bit state, and — unlike std::mt19937 — guaranteed to
 * produce identical streams across standard libraries.
 */

#ifndef CLUMSY_COMMON_RANDOM_HH
#define CLUMSY_COMMON_RANDOM_HH

#include <cstdint>
#include <vector>

namespace clumsy
{

/** Deterministic xoshiro256** PRNG with sampling helpers. */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via splitmix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** @return the next raw 64-bit output. */
    std::uint64_t next()
    {
        const std::uint64_t result = peek();
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /**
     * @return the output the next call to next() will return, without
     * advancing: xoshiro256**'s output is a function of the current
     * state alone.
     */
    std::uint64_t peek() const { return rotl(s_[1] * 5, 7) * 9; }

    /** @return a double uniformly distributed in [0, 1). */
    double uniform()
    {
        // 53 high bits -> double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return a double uniformly distributed in [lo, hi). */
    double uniform(double lo, double hi);

    /** @return an integer uniformly distributed in [0, bound). */
    std::uint64_t below(std::uint64_t bound);

    /** @return true with probability p (p outside [0,1] clamps). */
    bool bernoulli(double p);

    /** @return a sample from Exponential(rate). */
    double exponential(double rate);

    /** Reseed the generator. */
    void reseed(std::uint64_t seed);

  private:
    std::uint64_t s_[4];

    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }
};

/**
 * An immutable Zipf distribution over n items with exponent s: the
 * CDF is built once, and each sample costs one uniform() draw from
 * the caller's generator plus a binary search. A generator that
 * alternates between distributions (flow popularity, destinations,
 * URLs) therefore never rebuilds a table.
 */
class ZipfTable
{
  public:
    /** n may be 0 (an empty table); sampling one is an error. */
    ZipfTable(std::uint64_t n, double s);

    /** @return a 1-based rank (rank 1 most popular). */
    std::uint64_t sample(Rng &rng) const;

    /** Number of items. */
    std::uint64_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

} // namespace clumsy

#endif // CLUMSY_COMMON_RANDOM_HH
