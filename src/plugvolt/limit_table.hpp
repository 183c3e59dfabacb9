// PlugVolt — the safety judgment, compiled from a map (Algo. 3, line 6).
//
// A poll reads a ratio byte from 0x198/0x199 and an offset code from
// 0x150, then tests that pair for membership in the unsafe set.  A
// LimitTable compiles one (map, guard band, restore policy) into that
// test, indexed by what the poll reads: one entry per ratio byte, each
// caching the ratio's nearest map row, the shallowest commanded offset
// the poll detects there and the policy's restore target.  The guard
// band, the 1 mV detection hysteresis and the restore-policy switch live
// in the builder and nowhere else; the SafeStateMap queries stay the
// oracle the table is tested against, bit for bit, over every ratio byte
// and every 11-bit offset code.
#pragma once

#include <array>
#include <cstdint>

#include "plugvolt/safe_state.hpp"
#include "util/units.hpp"

namespace pv::plugvolt {

/// How the polling module forces the system back into a safe state.
///
/// ClampToSafeLimit keeps the deepest per-frequency safe offset (the most
/// DVFS-friendly choice and the paper's kernel-module behaviour); it has
/// a theoretical residual race against an adversary who parks a deep,
/// currently-safe offset and then steps frequency by exactly one bin
/// (see the attack-matrix ablation).  ClampToMaximalSafe enforces the
/// Sec. 5 maximal safe state on the *commanded* offset at all times,
/// which provably closes that race at the cost of shallower benign
/// undervolts.  RestoreZero is the most conservative.
enum class RestorePolicy { ClampToSafeLimit, ClampToMaximalSafe, RestoreZero };

/// The guard band every deployment applies unless configured otherwise.
inline constexpr Millivolts kDefaultGuardBand{15.0};

/// ConfigError unless `guard` is finite and non-negative.  A NaN guard
/// classifies every faulting row Safe and a negative one moves detection
/// below the measured onset: either silently disables the defense.
void require_guard_band(Millivolts guard);

/// One immutable (map, guard, policy) judgment.  Built by one merge of
/// the ratio bytes into the rows, then, for each row that is some
/// ratio's nearest, an 11-step bisection over the offset codes (plus one
/// safe_limit query under ClampToSafeLimit).  ClampToMaximalSafe's
/// bound is frequency-independent: it is bisected once.
class LimitTable {
public:
    /// ConfigError on an empty map or a guard require_guard_band refuses.
    LimitTable(SafeStateMap map, Millivolts guard, RestorePolicy policy);

    /// Whether a poll treats `commanded` at `ratio` as unsafe.  Exact for
    /// the offsets sim::decode_offset yields, the only ones a poll reads.
    [[nodiscard]] bool detects(std::uint8_t ratio, Millivolts commanded) const {
        return commanded <= entries_[ratio].detect_ceiling;
    }

    /// The offset a poll writes back on a detection at `ratio`.
    [[nodiscard]] Millivolts restore_target(std::uint8_t ratio) const {
        return entries_[ratio].restore;
    }

    /// The map's own class of `offset` at `ratio`: no guard, no
    /// hysteresis and no policy (the auditor's view of a write).
    [[nodiscard]] StateClass classify(std::uint8_t ratio, Millivolts offset) const {
        return map_.classify_row(map_.rows()[entries_[ratio].row], offset);
    }

    /// Highest row frequency at which `offset`, deepened by the guard, is
    /// safe (the lowest row when none is): the frequency lever.  A row
    /// scan, taken only on a detection or a rail-watch residual.
    [[nodiscard]] Megahertz frequency_limit(Millivolts offset) const {
        return map_.max_safe_frequency(offset, guard_);
    }

    /// Sec. 5 maximal safe state under this table's guard.
    [[nodiscard]] Millivolts maximal_safe() const { return maximal_safe_; }
    [[nodiscard]] const SafeStateMap& map() const { return map_; }

private:
    struct Entry {
        std::uint32_t row = 0;        ///< index of the ratio's nearest map row
        Millivolts detect_ceiling{};  ///< shallowest detected offset (-inf: none)
        Millivolts restore{};         ///< policy-folded restore target
    };

    SafeStateMap map_;
    Millivolts guard_;
    Millivolts maximal_safe_;
    std::array<Entry, 256> entries_{};
};

}  // namespace pv::plugvolt
