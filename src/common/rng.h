/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * All stochastic behaviour in a simulation flows from a single seeded
 * Rng (xoshiro256**), so identical configurations reproduce identical
 * results bit-for-bit across runs and platforms. We do not use
 * std::mt19937 + std::distributions because distribution implementations
 * differ across standard libraries.
 */
#ifndef CATNAP_COMMON_RNG_H
#define CATNAP_COMMON_RNG_H

#include <cstdint>
#include "common/phase.h"

namespace catnap {

/**
 * xoshiro256** PRNG (Blackman & Vigna). Fast, high-quality, and fully
 * portable/deterministic given a seed.
 */
class Rng
{
  public:
    /** Constructs a generator whose stream is determined by @p seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

    /** Re-initializes the state from @p seed via SplitMix64 expansion. */
    void
    reseed(std::uint64_t seed)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            // SplitMix64 step: guarantees a well-mixed non-zero state even
            // for adversarial seeds such as 0.
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Returns the next 64 uniformly distributed bits. */
    CATNAP_PHASE_READ std::uint64_t
    next_u64()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Returns a uniform double in [0, 1). */
    double
    next_double()
    {
        // 53 high bits -> double mantissa (exactly representable).
        return static_cast<double>(next_u64() >> 11) *
               (1.0 / 9007199254740992.0);
    }

    /** Returns a uniform integer in [0, bound). @p bound must be > 0. */
    std::uint64_t
    next_below(std::uint64_t bound)
    {
        // Lemire's nearly-divisionless bounded generation with rejection,
        // avoiding modulo bias.
        std::uint64_t x = next_u64();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            const std::uint64_t threshold = (0 - bound) % bound;
            while (lo < threshold) {
                x = next_u64();
                m = static_cast<__uint128_t>(x) * bound;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Returns a uniform int in [lo, hi] inclusive. */
    int
    next_int(int lo, int hi)
    {
        return lo + static_cast<int>(
            next_below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /** Returns true with probability @p p (clamped to [0,1]). */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0) return false;
        if (p >= 1.0) return true;
        return next_double() < p;
    }

    /**
     * Returns a geometrically distributed count of failures before the
     * first success with success probability @p p in (0, 1].
     */
    std::uint64_t
    geometric(double p);

    /** Derives an independent child generator (for per-node streams). */
    Rng
    split()
    {
        return Rng(next_u64() ^ 0xd1b54a32d192ed03ULL);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace catnap

#endif // CATNAP_COMMON_RNG_H
