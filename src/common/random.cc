#include "common/random.hh"

#include <cmath>

#include "common/logging.hh"

namespace clumsy
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    reseed(seed);
}

void
Rng::reseed(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &word : s_)
        word = splitmix64(x);
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    CLUMSY_ASSERT(bound > 0, "below() needs a positive bound");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

double
Rng::exponential(double rate)
{
    CLUMSY_ASSERT(rate > 0.0, "exponential() needs a positive rate");
    // 1 - uniform() is in (0, 1], keeping log() finite.
    return -std::log(1.0 - uniform()) / rate;
}

ZipfTable::ZipfTable(std::uint64_t n, double s) : cdf_(n)
{
    double sum = 0.0;
    for (std::uint64_t k = 1; k <= n; ++k) {
        sum += 1.0 / std::pow(static_cast<double>(k), s);
        cdf_[k - 1] = sum;
    }
    for (auto &v : cdf_)
        v /= sum;
}

std::uint64_t
ZipfTable::sample(Rng &rng) const
{
    CLUMSY_ASSERT(!cdf_.empty(), "zipf needs at least one item");
    const double u = rng.uniform();
    // Binary search the CDF for the first entry >= u.
    std::uint64_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
        const std::uint64_t mid = (lo + hi) / 2;
        if (cdf_[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo + 1;
}

} // namespace clumsy
