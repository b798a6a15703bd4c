/**
 * @file
 * HashedIndex: spreads addresses over a fixed number of cache sets, L2
 * banks or DRAM channels. Every one of those selects `hashMix64(addr >>
 * shift) % n`; this computes the same value with a shift in place of the
 * divide by the (power-of-two) line size and a mask in place of the
 * modulo whenever n is a power of two, which every default geometry is.
 */

#ifndef GGA_SIM_HASHED_INDEX_HPP
#define GGA_SIM_HASHED_INDEX_HPP

#include <cstdint>

#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace gga {

/** `hashMix64(a >> shift) % n`, divide-free when n is a power of two. */
class HashedIndex
{
  public:
    HashedIndex(std::uint32_t n, std::uint32_t shift)
        : n_(n), shift_(shift), pow2_((n & (n - 1)) == 0)
    {
        GGA_ASSERT(n > 0, "hashed index over an empty range");
        GGA_ASSERT(shift < 64, "hashed index shift out of range");
    }

    std::uint32_t
    of(Addr a) const
    {
        const std::uint64_t h = hashMix64(a >> shift_);
        return static_cast<std::uint32_t>(pow2_ ? h & (n_ - 1) : h % n_);
    }

  private:
    std::uint32_t n_;
    std::uint32_t shift_;
    bool pow2_;
};

/** log2 of a power of two. */
inline std::uint32_t
log2Pow2(std::uint32_t x)
{
    GGA_ASSERT(x != 0 && (x & (x - 1)) == 0, "not a power of two: ", x);
    return static_cast<std::uint32_t>(__builtin_ctz(x));
}

} // namespace gga

#endif // GGA_SIM_HASHED_INDEX_HPP
