// Property-based tests for the algebraic layers: OCM mailbox encoding,
// SafeStateMap queries, StateHasher sensitivity.  Each PROP_CHECK is
// deterministic in its seed; a failure message names the seed, the
// shrunk counterexample and the originally drawn inputs.
#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "check/state_hasher.hpp"
#include "plugvolt/limit_table.hpp"
#include "plugvolt/safe_state.hpp"
#include "prop/prop.hpp"
#include "sim/cpu_profile.hpp"
#include "sim/ocm.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace pv {
namespace {

// ---------------------------------------------------------------------------
// MSR 0x150 mailbox encode/decode round trip (Table 1 layout), over all
// five planes and the full representable ± offset range.

std::string show_plane(const sim::VoltagePlane& plane) {
    switch (plane) {
        case sim::VoltagePlane::Core: return "core";
        case sim::VoltagePlane::Gpu: return "gpu";
        case sim::VoltagePlane::Cache: return "cache";
        case sim::VoltagePlane::Uncore: return "uncore";
        case sim::VoltagePlane::AnalogIo: return "analog-io";
    }
    return "?";
}

TEST(PropOcm, EncodeDecodeRoundTripAllPlanes) {
    const prop::ElementOf<sim::VoltagePlane> planes{
        {sim::VoltagePlane::Core, sim::VoltagePlane::Gpu, sim::VoltagePlane::Cache,
         sim::VoltagePlane::Uncore, sim::VoltagePlane::AnalogIo},
        show_plane};
    // [-999, 998] mV stays inside the 11-bit two's-complement field
    // (-1024..+1023 steps of 1/1024 V), so no clamping is in play.
    const prop::OffsetDomain offsets{-999.0, 998.0, 0.125};

    PROP_CHECK(
        0x0C0FFEE1, 1000,
        [](sim::VoltagePlane plane, Millivolts offset) {
            const std::uint64_t raw = sim::encode_offset(offset, plane);
            const auto decoded = sim::decode_offset(raw);
            if (!decoded) return false;
            if (decoded->plane != plane) return false;
            if (!decoded->write_enable || !decoded->command) return false;
            // Truncation toward zero in 1/1024 V steps: the decoded
            // offset is within one step of the request and never deeper.
            constexpr double kStepMv = 1000.0 / 1024.0;
            if (std::abs(decoded->offset.value() - offset.value()) >= kStepMv) return false;
            if (std::abs(decoded->offset.value()) > std::abs(offset.value()) + 1e-9)
                return false;
            // The decoded offset sits exactly on the lattice, so
            // re-encoding it reproduces the raw word bit-for-bit.
            return sim::encode_offset(decoded->offset, plane) == raw;
        },
        planes, offsets);
}

TEST(PropOcm, ClampedBeyondRangeStillDecodes) {
    const prop::ElementOf<sim::VoltagePlane> planes{
        {sim::VoltagePlane::Core, sim::VoltagePlane::Gpu, sim::VoltagePlane::Cache,
         sim::VoltagePlane::Uncore, sim::VoltagePlane::AnalogIo},
        show_plane};
    // Requests beyond the representable field must clamp to the field
    // bounds, not wrap into the opposite sign.
    const prop::OffsetDomain deep{-5000.0, 5000.0, 1.0};
    PROP_CHECK(
        0x0C0FFEE2, 500,
        [](sim::VoltagePlane plane, Millivolts offset) {
            const auto decoded = sim::decode_offset(sim::encode_offset(offset, plane));
            if (!decoded) return false;
            if (offset.value() < 0 && decoded->offset.value() > 0) return false;
            if (offset.value() > 0 && decoded->offset.value() < 0) return false;
            return decoded->offset.value() >= -1000.0 - 1e-9 &&
                   decoded->offset.value() <= 1023.0 * 1000.0 / 1024.0 + 1e-9;
        },
        planes, deep);
}

// ---------------------------------------------------------------------------
// SafeStateMap algebra, against a real characterization of the Comet
// Lake profile (5 mV resolution keeps this fast).

const plugvolt::SafeStateMap& cometlake_map() {
    static const plugvolt::SafeStateMap map = [] {
        plugvolt::CharacterizerConfig config;
        config.offset_step = Millivolts{5.0};
        return test::exhaustive_map(sim::cometlake_i7_10510u(), config, 0xDAC2024);
    }();
    return map;
}

int rank(plugvolt::StateClass c) {
    switch (c) {
        case plugvolt::StateClass::Safe: return 0;
        case plugvolt::StateClass::Unsafe: return 1;
        case plugvolt::StateClass::Crash: return 2;
    }
    return 3;
}

TEST(PropSafeStateMap, MembershipMonotoneInOffsetDepth) {
    const plugvolt::SafeStateMap& map = cometlake_map();
    // Off-lattice frequencies exercise the nearest-row lookup too.
    const prop::FrequencyDomain freqs{400.0, 4900.0, 25.0};
    const prop::OffsetDomain offsets{-300.0, 0.0, 0.5};
    PROP_CHECK(
        0x5AFE0001, 1000,
        [&map](Megahertz f, Millivolts a, Millivolts b) {
            const Millivolts deeper = a.value() <= b.value() ? a : b;
            const Millivolts shallower = a.value() <= b.value() ? b : a;
            // Deepening the undervolt can only move Safe -> Unsafe ->
            // Crash, never back.
            return rank(map.classify(f, deeper)) >= rank(map.classify(f, shallower));
        },
        freqs, offsets, offsets);
}

TEST(PropSafeStateMap, MaximalSafeStateIsLowerBoundEverywhere) {
    const plugvolt::SafeStateMap& map = cometlake_map();
    const Millivolts maximal = map.maximal_safe_offset(plugvolt::kDefaultGuardBand);
    const prop::FrequencyDomain freqs{400.0, 4900.0, 25.0};
    PROP_CHECK(
        0x5AFE0002, 500,
        [&map, maximal](Megahertz f) {
            // The Sec. 5 maximal safe state classifies Safe at EVERY
            // frequency, and never allows deeper than the per-frequency
            // safe limit.
            if (map.classify(f, maximal) != plugvolt::StateClass::Safe) return false;
            if (maximal.value() < map.safe_limit(f, plugvolt::kDefaultGuardBand).value())
                return false;
            // Zero offset (nominal voltage) is Safe everywhere.
            return map.classify(f, Millivolts{0.0}) == plugvolt::StateClass::Safe;
        },
        freqs);
}

TEST(PropSafeStateMap, SafeLimitGuardIsMonotone) {
    const plugvolt::SafeStateMap& map = cometlake_map();
    const prop::FrequencyDomain freqs{400.0, 4900.0, 25.0};
    const prop::OffsetDomain guards{0.0, 60.0, 1.0};
    PROP_CHECK(
        0x5AFE0003, 500,
        [&map](Megahertz f, Millivolts g1, Millivolts g2) {
            const double lo = std::min(g1.value(), g2.value());
            const double hi = std::max(g1.value(), g2.value());
            // A larger guard band can only make the limit shallower.
            return map.safe_limit(f, Millivolts{hi}).value() >=
                   map.safe_limit(f, Millivolts{lo}).value();
        },
        freqs, guards, guards);
}

// ---------------------------------------------------------------------------
// StateHasher sensitivity: any single-field mutation changes the digest.

TEST(PropStateHasher, SingleBitFlipChangesDigest) {
    PROP_CHECK(
        0x4A54E001, 500,
        [](std::int64_t stream_seed, std::int64_t field, std::int64_t bit) {
            std::array<std::uint64_t, 8> fields{};
            Rng rng(static_cast<std::uint64_t>(stream_seed));
            for (auto& f : fields) f = rng.next_u64();
            const auto digest_of = [](const std::array<std::uint64_t, 8>& fs) {
                check::StateHasher hasher;
                for (const auto f : fs) hasher.mix(f);
                return hasher.digest();
            };
            auto mutated = fields;
            mutated[static_cast<std::size_t>(field)] ^= 1ULL << bit;
            return digest_of(fields) != digest_of(mutated);
        },
        prop::IntDomain{0, 1 << 20}, prop::IntDomain{0, 7}, prop::IntDomain{0, 63});
}

TEST(PropStateHasher, EveryFieldKindIsSensitive) {
    PROP_CHECK(
        0x4A54E002, 500,
        [](std::int64_t which, std::int64_t bit) {
            std::uint64_t word = 0x0123456789ABCDEFULL;
            double real = -1.25;
            bool flag = true;
            std::string text = "plugvolt";
            const auto digest_of = [&](std::uint64_t w, double d, bool b,
                                       const std::string& s) {
                check::StateHasher hasher;
                hasher.mix(w).mix(d).mix(b).mix(std::string_view(s));
                return hasher.digest();
            };
            const std::uint64_t before = digest_of(word, real, flag, text);
            switch (which) {
                case 0: word ^= 1ULL << bit; break;
                case 1:
                    real = std::bit_cast<double>(std::bit_cast<std::uint64_t>(real) ^
                                                 (1ULL << bit));
                    break;
                case 2: flag = !flag; break;
                case 3: text[static_cast<std::size_t>(bit) % text.size()] ^= 1; break;
                case 4: text += 'x'; break;
            }
            return digest_of(word, real, flag, text) != before;
        },
        prop::IntDomain{0, 4}, prop::IntDomain{0, 63});
}

TEST(PropStateHasher, LengthPrefixPreventsConcatenationAliasing) {
    PROP_CHECK(
        0x4A54E003, 300,
        [](std::int64_t stream_seed, std::int64_t split_a, std::int64_t split_b) {
            if (split_a == split_b) return true;
            std::string text(16, '\0');
            Rng rng(static_cast<std::uint64_t>(stream_seed));
            for (auto& c : text) c = static_cast<char>('a' + rng.uniform_below(26));
            const auto digest_split = [&text](std::int64_t at) {
                check::StateHasher hasher;
                hasher.mix(std::string_view(text).substr(0, static_cast<std::size_t>(at)));
                hasher.mix(std::string_view(text).substr(static_cast<std::size_t>(at)));
                return hasher.digest();
            };
            // Same bytes, different field boundaries: the length prefix
            // must keep the digests apart.
            return digest_split(split_a) != digest_split(split_b);
        },
        prop::IntDomain{0, 1 << 20}, prop::IntDomain{0, 16}, prop::IntDomain{0, 16});
}

}  // namespace
}  // namespace pv
