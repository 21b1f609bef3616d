/**
 * @file
 * Small bit-manipulation helpers used across the simulator.
 */

#ifndef CLUMSY_COMMON_BITOPS_HH
#define CLUMSY_COMMON_BITOPS_HH

#include <bit>
#include <cstdint>

namespace clumsy
{

/**
 * @return the number of set bits in v. A SWAR count (pairs, nibbles,
 * then one multiply that sums the bytes into the top byte): without a
 * popcount instruction in the target ISA, std::popcount and the
 * builtins compile to a call into libgcc.
 */
constexpr unsigned
popCount(std::uint64_t v)
{
    v -= (v >> 1) & 0x5555555555555555ull;
    v = (v & 0x3333333333333333ull) + ((v >> 2) & 0x3333333333333333ull);
    v = (v + (v >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return static_cast<unsigned>((v * 0x0101010101010101ull) >> 56);
}

/**
 * @return true when v has an odd number of set bits. The builtin
 * compiles to an xor fold and a flags test even without a popcount
 * instruction, where std::popcount would call into libgcc.
 */
constexpr bool
oddParity(std::uint64_t v)
{
    return __builtin_parityll(v) != 0;
}

/** @return true when v is a power of two (v != 0). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** @return floor(log2(v)); v must be non-zero. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    return 63u - static_cast<unsigned>(std::countl_zero(v));
}

/** @return v with bit `pos` (0 = LSB) inverted. */
constexpr std::uint32_t
flipBit(std::uint32_t v, unsigned pos)
{
    return v ^ (std::uint32_t{1} << pos);
}

/** @return bits [lo, lo+width) of v, right-aligned. */
constexpr std::uint32_t
bitField(std::uint32_t v, unsigned lo, unsigned width)
{
    if (width >= 32)
        return v >> lo;
    return (v >> lo) & ((std::uint32_t{1} << width) - 1);
}

} // namespace clumsy

#endif // CLUMSY_COMMON_BITOPS_HH
