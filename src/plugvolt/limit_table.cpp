#include "plugvolt/limit_table.hpp"

#include <cmath>
#include <limits>

#include "sim/ocm.hpp"
#include "util/error.hpp"

namespace pv::plugvolt {
namespace {

/// The offset a poll decodes from 11-bit 0x150 offset code `code`.
Millivolts decoded(int code) {
    return sim::decode_offset(static_cast<std::uint64_t>(code & 0x7FF) << 21)->offset;
}

/// The shallowest decoded offset `detected` holds for (-inf when none).
/// It holds below every offset it holds on, so a bisection over the
/// codes [-1024, 1023] finds the edge.
template <class Detected>
Millivolts detect_ceiling(const Detected& detected) {
    int lo = -1025, hi = 1024;  // lo: detected (below every code); hi: not
    while (hi - lo > 1) {
        const int mid = lo + (hi - lo) / 2;
        (detected(decoded(mid)) ? lo : hi) = mid;
    }
    return lo < -1024 ? Millivolts{-std::numeric_limits<double>::infinity()} : decoded(lo);
}

}  // namespace

void require_guard_band(Millivolts guard) {
    if (!std::isfinite(guard.value()) || guard < Millivolts{0.0})
        throw ConfigError("guard band must be finite and non-negative");
}

LimitTable::LimitTable(SafeStateMap map, Millivolts guard, RestorePolicy policy)
    : map_(std::move(map)), guard_(guard) {
    require_guard_band(guard_);
    maximal_safe_ = map_.maximal_safe_offset(guard_);  // ConfigError on an empty map
    // The maximal-safe policy tightens detection to a frequency-
    // independent bound.
    const Millivolts maximal_ceiling =
        detect_ceiling([this](Millivolts c) { return c < maximal_safe_; });
    // Ratio r reads as r x 100 MHz.  The ratio frequencies rise, so the
    // first row at or above each one only moves right: one merge finds
    // every ratio's nearest row, and a run of ratios sharing a row shares
    // its entry.
    const FreqCharacterization* first = map_.rows().data();
    const FreqCharacterization* above = first;
    for (std::size_t r = 0; r < entries_.size(); ++r) {
        const Megahertz f{static_cast<double>(r) * 100.0};
        while (above != first + map_.rows().size() && above->freq < f) ++above;
        const FreqCharacterization& row = map_.nearest_row(f, above);
        const auto index = static_cast<std::uint32_t>(&row - first);
        if (r > 0 && entries_[r - 1].row == index) {
            entries_[r] = entries_[r - 1];
            continue;
        }
        // Algo. 3 line 6.  The guard band is applied at detection: states
        // within guard of the measured onset still carry residual
        // (sub-characterization-sensitivity) fault probability that a
        // patient attacker could farm.  1 mV of hysteresis keeps the
        // module's own restore target (exactly guard above the onset) from
        // re-triggering detection forever.
        const auto hysteresis = [&](Millivolts c) {
            return map_.classify_row(row, c - guard_ + Millivolts{1.0}) != StateClass::Safe;
        };
        switch (policy) {
            case RestorePolicy::ClampToSafeLimit:
                entries_[r] = {index, detect_ceiling(hysteresis), map_.safe_limit(f, guard_)};
                break;
            case RestorePolicy::ClampToMaximalSafe:
                entries_[r] = {index, maximal_ceiling, maximal_safe_};
                break;
            case RestorePolicy::RestoreZero:
                entries_[r] = {index, detect_ceiling(hysteresis), Millivolts{0.0}};
                break;
        }
    }
}

}  // namespace pv::plugvolt
