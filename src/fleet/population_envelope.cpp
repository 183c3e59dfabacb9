#include "fleet/population_envelope.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

#include "check/state_hasher.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace pv::fleet {
namespace {

/// Shortest decimal that round-trips the double bit-exactly (the same
/// contract as the SafeStateMap CSV).
std::string fmt_double(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Median of a sorted, non-empty vector (mean of the middle pair when
/// the count is even — deterministic double arithmetic).
double median_sorted(const std::vector<double>& sorted) {
    const std::size_t n = sorted.size();
    const std::size_t mid = n / 2;
    return (n % 2 == 1) ? sorted[mid] : (sorted[mid - 1] + sorted[mid]) / 2.0;
}

}  // namespace

PopulationEnvelope::PopulationEnvelope(EnvelopeConfig config) : config_(config) {
    plugvolt::require_guard_band(config_.guard);
    if (!(config_.outlier_threshold > 0.0))
        throw ConfigError("outlier_threshold must be positive");
    if (!(config_.mad_floor_mv >= 0.0))
        throw ConfigError("mad_floor_mv must be non-negative");
}

void PopulationEnvelope::add(std::uint64_t unit_id, const plugvolt::SafeStateMap& map) {
    if (map.rows().empty()) throw ConfigError("cannot fold an empty map into an envelope");
    if (!units_.empty()) {
        const std::vector<plugvolt::FreqCharacterization>& ref = units_.begin()->second.rows;
        if (map.rows().size() != ref.size())
            throw ConfigError("envelope maps must share one frequency table");
        for (std::size_t i = 0; i < ref.size(); ++i)
            if (map.rows()[i].freq != ref[i].freq)
                throw ConfigError("envelope maps must share one frequency table");
    }
    const auto [it, inserted] = units_.emplace(unit_id);
    if (!inserted)
        throw ConfigError("unit " + std::to_string(unit_id) + " already in the envelope");
    it->second.maximal_safe = map.maximal_safe_offset(config_.guard);
    it->second.rows = map.rows();
}

Millivolts PopulationEnvelope::clamp_at_yield(double yield) const {
    if (units_.empty()) throw ConfigError("clamp_at_yield on an empty envelope");
    if (!(yield > 0.0) || yield > 1.0)
        throw ConfigError("yield must be in (0, 1]");
    const std::size_t n = units_.size();
    // Exclusion budget: how many units the clamp may leave unprotected.
    const auto excluded = static_cast<std::size_t>(
        std::floor((1.0 - yield) * static_cast<double>(n)));
    std::vector<double> m;
    m.reserve(n);
    for (const auto& [id, rec] : units_) m.push_back(rec.maximal_safe.value());
    // Shallowest first (offsets are negative: descending numeric order);
    // skipping the `excluded` shallowest picks the deepest clamp that
    // still protects everyone else.
    std::sort(m.begin(), m.end(), std::greater<>());
    return Millivolts{m[excluded]};
}

double PopulationEnvelope::yield_at_clamp(Millivolts clamp) const {
    if (units_.empty()) throw ConfigError("yield_at_clamp on an empty envelope");
    std::size_t protected_units = 0;
    for (const auto& [id, rec] : units_)
        if (rec.maximal_safe <= clamp) ++protected_units;
    return static_cast<double>(protected_units) / static_cast<double>(units_.size());
}

std::vector<YieldPoint> PopulationEnvelope::guard_band_curve() const {
    if (units_.empty()) throw ConfigError("guard_band_curve on an empty envelope");
    std::vector<double> m;
    m.reserve(units_.size());
    for (const auto& [id, rec] : units_) m.push_back(rec.maximal_safe.value());
    std::sort(m.begin(), m.end(), std::greater<>());
    std::vector<YieldPoint> curve;
    curve.reserve(m.size());
    for (std::size_t e = 0; e < m.size(); ++e) {
        const Millivolts clamp{m[e]};
        // The honest yield: ties mean excluding e units may still
        // protect more than n - e of them.
        curve.push_back(YieldPoint{
            .yield = yield_at_clamp(clamp),
            .excluded = e,
            .clamp = clamp,
        });
    }
    return curve;
}

std::vector<std::uint64_t> PopulationEnvelope::outlier_units() const {
    std::vector<std::uint64_t> outliers;
    if (units_.size() < 3) return outliers;  // no meaningful spread statistic
    std::vector<double> m;
    m.reserve(units_.size());
    for (const auto& [id, rec] : units_) m.push_back(rec.maximal_safe.value());
    std::sort(m.begin(), m.end());
    const double med = median_sorted(m);
    std::vector<double> dev;
    dev.reserve(m.size());
    for (const double v : m) dev.push_back(std::fabs(v - med));
    std::sort(dev.begin(), dev.end());
    // The MAD floor keeps a tight lot (MAD ~ 0) from flagging every unit
    // that is merely one characterization step off the median.
    const double mad = std::max(median_sorted(dev), config_.mad_floor_mv);
    const double cut = config_.outlier_threshold * mad;
    for (const auto& [id, rec] : units_)
        if (std::fabs(rec.maximal_safe.value() - med) > cut) outliers.push_back(id);
    return outliers;
}

std::vector<EnvelopeRow> PopulationEnvelope::rows() const {
    std::vector<EnvelopeRow> out;
    if (units_.empty()) return out;
    const std::size_t n_rows = units_.begin()->second.rows.size();
    out.reserve(n_rows);
    std::vector<double> onsets, crashes;
    for (std::size_t i = 0; i < n_rows; ++i) {
        onsets.clear();
        crashes.clear();
        EnvelopeRow row;
        row.freq = units_.begin()->second.rows[i].freq;
        for (const auto& [id, rec] : units_) {
            const plugvolt::FreqCharacterization& cell = rec.rows[i];
            if (cell.fault_free)
                ++row.fault_free_units;
            else
                onsets.push_back(cell.onset.value());
            crashes.push_back(cell.crash.value());
        }
        std::sort(onsets.begin(), onsets.end());
        std::sort(crashes.begin(), crashes.end());
        if (!onsets.empty()) {
            row.onset_min = Millivolts{onsets.front()};
            row.onset_median = Millivolts{median_sorted(onsets)};
            row.onset_max = Millivolts{onsets.back()};
        }
        row.crash_min = Millivolts{crashes.front()};
        row.crash_median = Millivolts{median_sorted(crashes)};
        row.crash_max = Millivolts{crashes.back()};
        out.push_back(row);
    }
    return out;
}

Millivolts PopulationEnvelope::unit_clamp(std::uint64_t unit_id) const {
    const auto it = units_.find(unit_id);
    if (it == units_.end())
        throw ConfigError("unit " + std::to_string(unit_id) + " not in the envelope");
    return it->second.maximal_safe;
}

std::string PopulationEnvelope::to_csv() const {
    CsvDocument doc;
    doc.header = {"freq_mhz",     "onset_min_mv",  "onset_median_mv",
                  "onset_max_mv", "crash_min_mv",  "crash_median_mv",
                  "crash_max_mv", "fault_free_units"};
    for (const EnvelopeRow& row : rows()) {
        doc.rows.push_back({fmt_double(row.freq.value()), fmt_double(row.onset_min.value()),
                            fmt_double(row.onset_median.value()),
                            fmt_double(row.onset_max.value()),
                            fmt_double(row.crash_min.value()),
                            fmt_double(row.crash_median.value()),
                            fmt_double(row.crash_max.value()),
                            std::to_string(row.fault_free_units)});
    }
    return csv_write(doc);
}

std::uint64_t state_hash(const PopulationEnvelope& envelope) {
    check::StateHasher h;
    h.mix(envelope.config_.guard.value());
    h.mix(envelope.config_.outlier_threshold);
    h.mix(envelope.config_.mad_floor_mv);
    h.mix(static_cast<std::uint64_t>(envelope.units_.size()));
    // FlatMap iterates in unit-id order: the digest is a function of the
    // SET of folded maps, never of insertion order.
    for (const auto& [id, rec] : envelope.units_) {
        h.mix(id);
        h.mix(rec.maximal_safe.value());
        h.mix(static_cast<std::uint64_t>(rec.rows.size()));
        for (const plugvolt::FreqCharacterization& row : rec.rows) {
            h.mix(row.freq.value());
            h.mix(row.onset.value());
            h.mix(row.crash.value());
            h.mix(row.fault_free);
        }
    }
    return h.digest();
}

}  // namespace pv::fleet
