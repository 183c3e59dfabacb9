// PlugVolt — population-level safe envelopes.
//
// One SafeStateMap protects one die; a vendor ships ONE clamp to a whole
// fleet.  PopulationEnvelope folds per-unit maps into the numbers that
// decision needs: percentile clamps ("the offset safe for 99.9% of
// units"), the guard-band-vs-yield curve that prices every extra
// millivolt of margin in excluded dies, per-frequency onset/crash spread,
// and outlier-die detection (units whose boundary sits far off the lot
// median are escapes worth re-screening, not data to widen the clamp by).
//
// Clamp semantics (sign convention: offsets are negative, "shallower" =
// closer to 0): unit u's scalar summary is m_u = maximal_safe_offset
// (guarded); a clamp c protects u iff c >= m_u.  clamp_at_yield(y) may
// exclude e = floor((1-y)*N) units and returns the (e+1)-th SHALLOWEST
// m_u — the deepest clamp that still protects at least ceil(y*N) units.
// Exclusion semantics make the update rule honest: at y = 1.0 (e = 0)
// adding a unit can only keep or SHALLOW the clamp (max over a superset),
// unconditionally; at y < 1.0 the same holds whenever the new unit does
// not grow the exclusion budget e — when it does, the clamp may step one
// unit deeper by design (one more die is allowed outside the envelope).
// The property tests assert exactly these two true forms.
//
// Order independence: units live in a FlatMap keyed by unit_id, so every
// derived quantity — and state_hash — depends only on the SET of
// (unit_id, map) pairs, never on insertion order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "plugvolt/limit_table.hpp"
#include "plugvolt/safe_state.hpp"
#include "util/flat_map.hpp"
#include "util/units.hpp"

namespace pv::fleet {

struct EnvelopeConfig {
    /// Safety margin handed to SafeStateMap::maximal_safe_offset (finite
    /// and non-negative, ConfigError otherwise).
    Millivolts guard = plugvolt::kDefaultGuardBand;
    /// A unit is an outlier when |m_u - median| exceeds this multiple of
    /// the lot's median absolute deviation.
    double outlier_threshold = 4.0;
    /// MAD floor in mV: a tight lot has MAD ~ 0 and would flag every
    /// unit off-median; deviations below the characterization resolution
    /// are not outliers.
    double mad_floor_mv = 1.0;
};

/// Per-frequency spread across the fleet.  min/max are numeric (offsets
/// are negative, so `*_max` is the SHALLOWEST boundary in the fleet and
/// `*_min` the deepest).  Onset statistics cover faulting units only
/// (and are 0 when every unit is fault-free at the frequency); crash
/// statistics cover all units, with the no-crash sentinel standing in
/// for columns that never crashed.
struct EnvelopeRow {
    Megahertz freq{};
    Millivolts onset_min{};
    Millivolts onset_median{};
    Millivolts onset_max{};
    Millivolts crash_min{};
    Millivolts crash_median{};
    Millivolts crash_max{};
    std::uint64_t fault_free_units = 0;
};

/// One point of the guard-band-vs-yield trade: excluding `excluded`
/// units buys `clamp` of depth and retains `yield` of the fleet.
struct YieldPoint {
    double yield = 0.0;
    std::uint64_t excluded = 0;
    Millivolts clamp{};
};

class PopulationEnvelope {
public:
    explicit PopulationEnvelope(EnvelopeConfig config = {});

    /// Fold unit `unit_id`'s map in.  All maps must share one frequency
    /// table and sweep floor (one lot); duplicate unit ids throw
    /// ConfigError, as does a table mismatch.
    void add(std::uint64_t unit_id, const plugvolt::SafeStateMap& map);

    [[nodiscard]] std::size_t units() const { return units_.size(); }
    [[nodiscard]] bool empty() const { return units_.empty(); }

    /// The deepest single clamp protecting at least ceil(yield * N)
    /// units (see the header comment for the exclusion semantics).
    /// Throws ConfigError when empty or yield is outside (0, 1].
    [[nodiscard]] Millivolts clamp_at_yield(double yield) const;

    /// Fraction of units a given clamp protects (m_u <= clamp).
    [[nodiscard]] double yield_at_clamp(Millivolts clamp) const;

    /// The full trade curve: one point per exclusion budget e = 0..N-1,
    /// shallowest-first (e = 0 is the protect-everyone clamp).
    [[nodiscard]] std::vector<YieldPoint> guard_band_curve() const;

    /// Units whose m_u sits more than outlier_threshold MADs from the
    /// lot median, ascending unit id.
    [[nodiscard]] std::vector<std::uint64_t> outlier_units() const;

    /// Per-frequency fleet spread, in frequency order.
    [[nodiscard]] std::vector<EnvelopeRow> rows() const;

    /// Unit `unit_id`'s scalar summary m_u.  Throws ConfigError when the
    /// unit is unknown.
    [[nodiscard]] Millivolts unit_clamp(std::uint64_t unit_id) const;

    /// CSV of rows() (header: freq_mhz,onset_min_mv,onset_median_mv,
    /// onset_max_mv,crash_min_mv,crash_median_mv,crash_max_mv,
    /// fault_free_units), doubles at max_digits10 — bit-exact like the
    /// SafeStateMap CSV.
    [[nodiscard]] std::string to_csv() const;

    [[nodiscard]] const EnvelopeConfig& config() const { return config_; }

private:
    struct UnitRecord {
        Millivolts maximal_safe{};  ///< m_u under config_.guard
        std::vector<plugvolt::FreqCharacterization> rows;
    };

    EnvelopeConfig config_;
    FlatMap<std::uint64_t, UnitRecord> units_;  // keyed by unit id: canonical order

    friend std::uint64_t state_hash(const PopulationEnvelope& envelope);
};

/// 64-bit fingerprint over the envelope's full content (config, every
/// unit's id, m_u and rows, in unit-id order).  Two envelopes hash equal
/// iff they aggregate bit-identical maps from the same units — the
/// equality the fleet kill/resume soak asserts.
[[nodiscard]] std::uint64_t state_hash(const PopulationEnvelope& envelope);

}  // namespace pv::fleet
