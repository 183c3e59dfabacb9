// PlugVolt — safe/unsafe system-state characterization data (Sec. 3-4).
//
// The countermeasure's whole knowledge is this map: per frequency, the
// undervolt offset where faults begin (onset) and where the machine
// crashes.  A (frequency, offset) pair classifies as Safe, Unsafe or
// Crash; the "maximal safe state" of Sec. 5 is the deepest offset that is
// safe at *every* frequency, which is what the microcode and hardware
// deployments enforce.
#pragma once

#include <string>
#include <vector>

#include "util/units.hpp"

namespace pv::plugvolt {

/// Classification of one (frequency, offset) system state.
enum class StateClass {
    Safe,    ///< no observable faults at this point
    Unsafe,  ///< faults manifest (the paper's "unsafe state")
    Crash,   ///< deep enough that the machine crashes
};

[[nodiscard]] const char* to_string(StateClass c);

/// Characterization result for one frequency column of the sweep.
struct FreqCharacterization {
    Megahertz freq;
    /// Shallowest offset with observable faults; 0 when `fault_free`.
    Millivolts onset;
    /// Offset at which the machine crashed; equals the sweep floor when
    /// no crash was reached.
    Millivolts crash;
    /// True if the whole sweep depth showed no faults at this frequency.
    bool fault_free = false;
};

/// The per-system safe/unsafe state map (Figs. 2-4 in data form).
class SafeStateMap {
public:
    /// `sweep_floor` is the deepest offset the characterization visited
    /// (the paper sweeps to -300 mV); classifications below it are
    /// conservative (never Safe).
    SafeStateMap(std::string system_name, Millivolts sweep_floor);

    /// Append one frequency column; columns must be added in strictly
    /// increasing frequency order, with finite fields (ConfigError
    /// otherwise).
    void add(FreqCharacterization row);

    [[nodiscard]] const std::vector<FreqCharacterization>& rows() const { return rows_; }
    [[nodiscard]] const std::string& system_name() const { return system_name_; }
    [[nodiscard]] Millivolts sweep_floor() const { return sweep_floor_; }

    /// The characterized frequency column nearest to `f`, found by binary
    /// search: the lower one on a tie, so a NaN or infinite frequency
    /// takes the lowest.  Throws ConfigError on an empty map.
    [[nodiscard]] const FreqCharacterization& nearest_row(Megahertz f) const;

    /// Classify a (frequency, offset) state using the nearest
    /// characterized frequency column.  Throws ConfigError on an empty map.
    [[nodiscard]] StateClass classify(Megahertz f, Millivolts offset) const;

    /// Convenience: Unsafe or Crash (what the polling module reacts to).
    [[nodiscard]] bool is_unsafe(Megahertz f, Millivolts offset) const;

    /// Deepest offset still safe at frequency `f`, with `guard` of margin
    /// (the value the polling module writes back on detection, keeping as
    /// much benign undervolt as possible).
    [[nodiscard]] Millivolts safe_limit(Megahertz f, Millivolts guard = Millivolts{15.0}) const;

    /// Sec. 5 maximal safe state: the deepest offset safe at EVERY
    /// characterized frequency, with `guard` of margin.  Never deeper
    /// than the sweep floor.
    [[nodiscard]] Millivolts maximal_safe_offset(Millivolts guard = Millivolts{15.0}) const;

    /// Highest characterized frequency at which `offset` (deepened by
    /// `guard`) is still safe; falls back to the lowest characterized
    /// frequency when none qualifies.  This is the instant lever the
    /// polling module pulls on detection: dropping frequency is always
    /// the safe direction and takes effect immediately, unlike the slow
    /// voltage restore.
    [[nodiscard]] Megahertz max_safe_frequency(Millivolts offset,
                                               Millivolts guard = Millivolts{15.0}) const;

    /// CSV round trip (header: freq_mhz,onset_mv,crash_mv,fault_free).
    [[nodiscard]] std::string to_csv() const;
    [[nodiscard]] static SafeStateMap from_csv(const std::string& text,
                                               std::string system_name,
                                               Millivolts sweep_floor);

    /// File round trip: save_csv writes atomically (temp-file + rename,
    /// util/fsio), so a crash mid-save can never leave a torn map for a
    /// later PollingModule to arm.  load_csv throws IoError when the
    /// file is unreadable and ConfigError when its contents are not a
    /// map; the round trip is bit-exact (doubles print with max_digits10).
    void save_csv(const std::string& path) const;
    [[nodiscard]] static SafeStateMap load_csv(const std::string& path,
                                               std::string system_name,
                                               Millivolts sweep_floor);

private:
    [[nodiscard]] StateClass classify_row(const FreqCharacterization& row,
                                          Millivolts offset) const;

    std::string system_name_;
    Millivolts sweep_floor_;
    std::vector<FreqCharacterization> rows_;
};

/// 64-bit fingerprint of a map (check::StateHasher over every field).
/// Two maps hash equal iff they are bit-identical cell-for-cell — the
/// single definition of "same map" shared by the determinism tests and
/// bench_parallel_sweep's self-check.
[[nodiscard]] std::uint64_t state_hash(const SafeStateMap& map);

}  // namespace pv::plugvolt
