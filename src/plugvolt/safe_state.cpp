#include "plugvolt/safe_state.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>
#include <utility>

#include "check/state_hasher.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"

namespace pv::plugvolt {
namespace {

/// Shortest decimal that round-trips the double bit-exactly: the file
/// round trip must reproduce the same map hash the sweep computed.
std::string fmt_double(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// One numeric CSV field, parsed whole: trailing bytes, text that is not
/// a number and values beyond double's range are all ConfigError.
double parse_number(const std::string& field, const char* column) {
    double value = 0.0;
    const char* end = field.data() + field.size();
    const auto [ptr, ec] = std::from_chars(field.data(), end, value);
    if (ec != std::errc{} || ptr != end)
        throw ConfigError(std::string("safe-state CSV ") + column + " is not a number: '" +
                          field + "'");
    return value;
}

}  // namespace

const char* to_string(StateClass c) {
    switch (c) {
        case StateClass::Safe: return "safe";
        case StateClass::Unsafe: return "unsafe";
        case StateClass::Crash: return "crash";
    }
    return "?";
}

SafeStateMap::SafeStateMap(std::string system_name, Millivolts sweep_floor)
    : system_name_(std::move(system_name)), sweep_floor_(sweep_floor) {
    if (sweep_floor_ >= Millivolts{0.0})
        throw ConfigError("sweep floor must be a negative offset");
}

void SafeStateMap::add(FreqCharacterization row) {
    // Every ordering check below compares false against NaN, and the
    // lookups binary-search the rows, so a non-finite field is refused
    // before anything else.
    if (!std::isfinite(row.freq.value()) || !std::isfinite(row.onset.value()) ||
        !std::isfinite(row.crash.value()))
        throw ConfigError("safe-state row fields must be finite");
    if (!rows_.empty() && row.freq <= rows_.back().freq)
        throw ConfigError("safe-state rows must be added in increasing frequency order");
    if (!row.fault_free && row.crash > row.onset)
        throw ConfigError("crash boundary cannot be shallower than fault onset");
    rows_.push_back(row);
}

const FreqCharacterization& SafeStateMap::nearest_row(Megahertz f) const {
    if (rows_.empty()) throw ConfigError("safe-state map is empty");
    return nearest_row(f, std::partition_point(rows_.data(), rows_.data() + rows_.size(),
                                               [f](const FreqCharacterization& row) {
                                                   return row.freq < f;
                                               }));
}

const FreqCharacterization& SafeStateMap::nearest_row(Megahertz f,
                                                      const FreqCharacterization* above) const {
    // The first row with the least computed |f - freq|, as a linear scan
    // finds it.  Rows are finite and strictly increasing, so that distance
    // never rises over the rows below f and never falls over the rows
    // above it (rounding can only make neighbours tie).  No row compares
    // below a NaN f, so it lands on the front row; every distance to
    // +inf is inf, a tie the front row wins.
    const auto dist = [f](const FreqCharacterization& row) {
        return std::abs(f.value() - row.freq.value());
    };
    const FreqCharacterization* first = rows_.data();
    if (above == first) return *first;
    const FreqCharacterization* below = above - 1;
    const double d_below = dist(*below);
    if (above != first + rows_.size() && dist(*above) < d_below) return *above;
    // The rows below f that tie `below` run up to it; the first wins.
    if (below == first || dist(below[-1]) > d_below) return *below;
    return *std::partition_point(first, below, [&](const FreqCharacterization& row) {
        return dist(row) > d_below;
    });
}

StateClass SafeStateMap::classify(Megahertz f, Millivolts offset) const {
    return classify_row(nearest_row(f), offset);
}

StateClass SafeStateMap::classify_row(const FreqCharacterization& row, Millivolts offset) const {
    if (row.fault_free) {
        // No faults were seen down to the sweep floor; anything deeper
        // was never characterized and must be treated as unsafe.
        return offset >= sweep_floor_ ? StateClass::Safe : StateClass::Unsafe;
    }
    if (offset <= row.crash) return StateClass::Crash;
    if (offset <= row.onset) return StateClass::Unsafe;
    return StateClass::Safe;
}

bool SafeStateMap::is_unsafe(Megahertz f, Millivolts offset) const {
    return classify(f, offset) != StateClass::Safe;
}

Millivolts SafeStateMap::safe_limit(Megahertz f, Millivolts guard) const {
    const FreqCharacterization& row = nearest_row(f);
    const Millivolts edge = row.fault_free ? sweep_floor_ : row.onset;
    return std::min(Millivolts{0.0}, edge + guard);
}

Millivolts SafeStateMap::maximal_safe_offset(Millivolts guard) const {
    if (rows_.empty()) throw ConfigError("safe-state map is empty");
    Millivolts shallowest_edge = sweep_floor_;
    for (const auto& row : rows_) {
        const Millivolts edge = row.fault_free ? sweep_floor_ : row.onset;
        shallowest_edge = std::max(shallowest_edge, edge);
    }
    return std::min(Millivolts{0.0}, shallowest_edge + guard);
}

Megahertz SafeStateMap::max_safe_frequency(Millivolts offset, Millivolts guard) const {
    if (rows_.empty()) throw ConfigError("safe-state map is empty");
    // Each row is its own frequency's nearest row, so it classifies
    // itself; the rows rise in frequency, so the last safe one is the
    // highest.
    const Millivolts probe = offset - guard;
    for (auto row = rows_.rbegin(); row != rows_.rend(); ++row)
        if (classify_row(*row, probe) == StateClass::Safe) return row->freq;
    return rows_.front().freq;
}

std::string SafeStateMap::to_csv() const {
    CsvDocument doc;
    doc.header = {"freq_mhz", "onset_mv", "crash_mv", "fault_free"};
    for (const auto& row : rows_) {
        doc.rows.push_back({fmt_double(row.freq.value()), fmt_double(row.onset.value()),
                            fmt_double(row.crash.value()),
                            row.fault_free ? "1" : "0"});
    }
    return csv_write(doc);
}

SafeStateMap SafeStateMap::from_csv(const std::string& text, std::string system_name,
                                    Millivolts sweep_floor) {
    const CsvDocument doc = csv_parse(text);
    if (doc.header != std::vector<std::string>{"freq_mhz", "onset_mv", "crash_mv", "fault_free"})
        throw ConfigError("unexpected safe-state CSV header");
    SafeStateMap map(std::move(system_name), sweep_floor);
    for (const auto& row : doc.rows) {
        if (row[3] != "0" && row[3] != "1")
            throw ConfigError("safe-state CSV fault_free must be 0 or 1: '" + row[3] + "'");
        map.add(FreqCharacterization{
            .freq = Megahertz{parse_number(row[0], "freq_mhz")},
            .onset = Millivolts{parse_number(row[1], "onset_mv")},
            .crash = Millivolts{parse_number(row[2], "crash_mv")},
            .fault_free = row[3] == "1",
        });
    }
    return map;
}

void SafeStateMap::save_csv(const std::string& path) const {
    atomic_write_file(path, to_csv());
}

SafeStateMap SafeStateMap::load_csv(const std::string& path, std::string system_name,
                                    Millivolts sweep_floor) {
    return from_csv(read_file(path), std::move(system_name), sweep_floor);
}

std::uint64_t state_hash(const SafeStateMap& map) {
    check::StateHasher h;
    h.mix(map.system_name());
    h.mix(map.sweep_floor().value());
    h.mix(static_cast<std::uint64_t>(map.rows().size()));
    for (const FreqCharacterization& row : map.rows()) {
        h.mix(row.freq.value());
        h.mix(row.onset.value());
        h.mix(row.crash.value());
        h.mix(row.fault_free);
    }
    return h.digest();
}

}  // namespace pv::plugvolt
