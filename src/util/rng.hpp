// PlugVolt — deterministic random number generation.
//
// Every stochastic component in the simulator (clock jitter, fault
// sampling, workload noise) draws from an explicitly seeded Rng so that
// experiments are reproducible bit-for-bit.  The generator is
// xoshiro256** seeded through splitmix64, following the reference
// implementations by Blackman & Vigna.
#pragma once

#include <array>
#include <cstdint>

namespace pv {

/// splitmix64 finalizer over a (parent, index) pair: derives
/// statistically independent child seeds from one root seed — the
/// construction Rng uses to expand a seed into its state words, shared
/// by every deterministic sharded driver (the parallel characterization
/// sweep's per-row/per-cell seeds, the campaign engine's per-cell and
/// per-attempt seeds).
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t parent, std::uint64_t index) {
    std::uint64_t z = parent + 0x9E3779B97F4A7C15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/// Deterministic 64-bit PRNG (xoshiro256**).
class Rng {
public:
    /// The four xoshiro words.
    using Words = std::array<std::uint64_t, 4>;

    /// Seeds the four words of state from `seed` via splitmix64.
    explicit Rng(std::uint64_t seed);

    /// One xoshiro256** step on `s`; next_u64() is step(words).  A hot
    /// loop (Machine's settled-op runs) draws with the words in locals
    /// through step() and unit(), and stores them back with set_words().
    static std::uint64_t step(Words& s) {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /// A raw draw's top 53 bits as a uniform double in [0, 1);
    /// uniform() is unit(next_u64()).
    static double unit(std::uint64_t x) { return static_cast<double>(x >> 11) * 0x1.0p-53; }

    [[nodiscard]] const Words& words() const { return s_; }
    void set_words(const Words& s) { s_ = s; }

    /// Next raw 64-bit value.
    std::uint64_t next_u64();

    /// Uniform double in [0, 1).
    double uniform();

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi);

    /// Uniform integer in [0, n).  `n` must be nonzero.
    std::uint64_t uniform_below(std::uint64_t n);

    /// Standard normal deviate (Box–Muller, one value per call).
    double gaussian();

    /// Normal deviate with the given mean and standard deviation.
    double gaussian(double mean, double stddev);

    /// Sample from Binomial(n, p).  Uses exact inversion for small
    /// expected counts and a clamped normal approximation for large ones;
    /// accurate enough for fault-count sampling where n is up to 1e6 and
    /// p spans [1e-9, 1].
    std::uint64_t binomial(std::uint64_t n, double p);

    /// Sample from Poisson(lambda) via inversion (lambda <= ~30 expected).
    std::uint64_t poisson(double lambda);

    /// Order-sensitive fingerprint of the full generator state (the four
    /// xoshiro words plus the Box–Muller cache).  Two generators with
    /// equal fingerprints produce identical streams forever — what the
    /// determinism checker needs to assert, without exposing the words.
    [[nodiscard]] std::uint64_t state_fingerprint() const;

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
        return (x << k) | (x >> (64 - k));
    }

    Words s_;
    bool have_cached_gaussian_ = false;
    double cached_gaussian_ = 0.0;
};

}  // namespace pv
