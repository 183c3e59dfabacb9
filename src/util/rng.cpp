#include "util/rng.hpp"

#include <bit>
#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace pv {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : s_) word = splitmix64(x);
    // All-zero state is invalid for xoshiro; splitmix64 cannot produce
    // four zero words from any seed, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() { return step(s_); }

double Rng::uniform() { return unit(next_u64()); }

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_below(std::uint64_t n) {
    if (n == 0) throw SimError("uniform_below(0)");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = n * ((~std::uint64_t{0}) / n);
    std::uint64_t x = next_u64();
    while (x >= limit) x = next_u64();
    return x % n;
}

double Rng::gaussian() {
    if (have_cached_gaussian_) {
        have_cached_gaussian_ = false;
        return cached_gaussian_;
    }
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    cached_gaussian_ = r * std::sin(theta);
    have_cached_gaussian_ = true;
    return r * std::cos(theta);
}

double Rng::gaussian(double mean, double stddev) { return mean + stddev * gaussian(); }

std::uint64_t Rng::poisson(double lambda) {
    if (lambda < 0.0) throw SimError("poisson with negative lambda");
    if (lambda == 0.0) return 0;
    // Inversion by sequential search; fine for lambda up to ~50.
    const double l = std::exp(-lambda);
    double p = 1.0;
    std::uint64_t k = 0;
    do {
        ++k;
        p *= uniform();
    } while (p > l);
    return k - 1;
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
    if (p <= 0.0 || n == 0) return 0;
    if (p >= 1.0) return n;
    const double mean = static_cast<double>(n) * p;
    if (mean < 30.0) {
        // Poisson approximation dominates in the fault-onset regime
        // (n ~ 1e6, p ~ 1e-6); relative error is O(p), negligible here.
        const std::uint64_t k = poisson(mean);
        return k > n ? n : k;
    }
    // Normal approximation with continuity clamp for the bulk regime.
    const double sd = std::sqrt(mean * (1.0 - p));
    const double draw = std::round(gaussian(mean, sd));
    if (draw <= 0.0) return 0;
    if (draw >= static_cast<double>(n)) return n;
    return static_cast<std::uint64_t>(draw);
}

Rng Rng::fork() { return Rng(next_u64()); }

std::uint64_t Rng::state_fingerprint() const {
    // FNV-1a over the state words; kept dependency-free so util stays
    // below the check layer.
    std::uint64_t h = 0xCBF29CE484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001B3ULL;
        }
    };
    for (const std::uint64_t word : s_) mix(word);
    mix(have_cached_gaussian_ ? 1 : 0);
    mix(std::bit_cast<std::uint64_t>(cached_gaussian_));
    return h;
}

}  // namespace pv
