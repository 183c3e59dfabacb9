// Shared helpers for the reproduction benches.
#pragma once

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "os/kernel.hpp"
#include "plugvolt/limit_table.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "plugvolt/safe_state.hpp"
#include "sim/cpu_profile.hpp"
#include "util/table.hpp"

namespace pv::bench {

/// Largest worker count a bench accepts on its command line.
inline constexpr unsigned kMaxWorkers = 256;

/// Parse a worker-count argument strictly: decimal digits only, in
/// [min, kMaxWorkers].  Anything else prints `usage` and exits 2, so a
/// bad argument stops the bench before any engine or pool is built.
inline unsigned parse_workers(const char* text, unsigned min, const char* usage) {
    const char* end = text + std::strlen(text);
    unsigned value = 0;
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ptr == text || ptr != end || ec != std::errc{} || value < min ||
        value > kMaxWorkers) {
        std::fprintf(stderr, "bad worker count '%s' (want %u..%u)\nusage: %s\n", text, min,
                     kMaxWorkers, usage);
        std::exit(2);
    }
    return value;
}

/// Parse an unsigned 64-bit argument strictly: decimal digits, or hex
/// digits after a 0x/0X prefix, and nothing else — no sign, no spaces,
/// no trailing characters.  Anything else prints `what`, `usage` and
/// exits 2, like parse_workers.
inline std::uint64_t parse_u64(const char* text, const char* what, const char* usage) {
    const bool hex = text[0] == '0' && (text[1] == 'x' || text[1] == 'X');
    const char* begin = hex ? text + 2 : text;
    const char* end = text + std::strlen(text);
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(begin, end, value, hex ? 16 : 10);
    if (ptr == begin || ptr != end || ec != std::errc{}) {
        std::fprintf(stderr, "bad %s '%s' (want decimal or 0x hex)\nusage: %s\n", what, text,
                     usage);
        std::exit(2);
    }
    return value;
}

/// Wall-clock stopwatch for measuring real (not simulated) sweep cost.
class Stopwatch {
public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}
    [[nodiscard]] double elapsed_ms() const {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

private:
    std::chrono::steady_clock::time_point start_;
};

/// One machine-readable result line of a bench: what ran, how long it
/// took, how much work it did, and its speedup against the bench's
/// declared baseline.  Written to BENCH_<bench>.json so the perf
/// trajectory is diffable across PRs.
struct BenchRecord {
    std::string name;
    double wall_ms = 0.0;
    std::uint64_t cells = 0;   ///< work units evaluated (0 if not applicable)
    double speedup = 1.0;      ///< vs the bench's serial/reference variant
};

/// Emit `BENCH_<bench>.json` in the working directory (overwriting), a
/// single JSON object: {"bench": ..., "records": [...]}.  Returns the
/// path written.
inline std::string write_bench_json(const std::string& bench,
                                    const std::vector<BenchRecord>& records) {
    const std::string path = "BENCH_" + bench + ".json";
    std::ofstream out(path);
    out << "{\n  \"bench\": \"" << bench << "\",\n  \"records\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const BenchRecord& r = records[i];
        char line[256];
        std::snprintf(line, sizeof line,
                      "    {\"name\": \"%s\", \"wall_ms\": %.3f, \"cells\": %llu, "
                      "\"speedup\": %.3f}%s\n",
                      r.name.c_str(), r.wall_ms, static_cast<unsigned long long>(r.cells),
                      r.speedup, i + 1 < records.size() ? "," : "");
        out << line;
    }
    out << "  ]\n}\n";
    return path;
}

/// The paper's Algorithm 2 sweep: one worker scanning every offset step
/// of each frequency row, seeded with `seed`.
inline plugvolt::ParallelCharacterizerConfig exhaustive_sweep(
    const plugvolt::CharacterizerConfig& cell, std::uint64_t seed = 0xDAC2024) {
    plugvolt::ParallelCharacterizerConfig config;
    config.cell = cell;
    config.workers = 1;
    config.mode = plugvolt::SweepMode::Exhaustive;
    config.seed = seed;
    return config;
}

/// Run the paper's Algorithm 2 sweep on `profile` at the given offset
/// resolution (the paper uses 1 mV).
inline plugvolt::SafeStateMap characterize(const sim::CpuProfile& profile,
                                           Millivolts step = Millivolts{1.0},
                                           std::uint64_t seed = 0xDAC2024) {
    plugvolt::CharacterizerConfig cell;
    cell.offset_step = step;
    return plugvolt::ParallelCharacterizer(profile, exhaustive_sweep(cell, seed))
        .characterize();
}

/// Render one safe/unsafe characterization as a paper-figure-shaped
/// table plus an ASCII strip chart (offset axis, one row per frequency).
inline void print_characterization(const sim::CpuProfile& profile,
                                   const plugvolt::SafeStateMap& map,
                                   const char* figure_tag) {
    std::printf("=== %s: characterization of unsafe/safe system states for %s, "
                "microcode version: %s ===\n",
                figure_tag, profile.codename.c_str(), profile.microcode.c_str());
    std::printf("system: %s\nsweep: offsets 0..%.0f mV at 1 mV, 10^6 imul per cell, "
                "frequency table %.1f-%.1f GHz at 0.1 GHz\n\n",
                profile.name.c_str(), map.sweep_floor().value(),
                profile.freq_min.gigahertz(), profile.freq_max.gigahertz());

    Table table({"freq (GHz)", "fault onset (mV)", "crash (mV)", "unsafe band (mV)",
                 "0 mV [.safe  #unsafe  Xcrash] " + std::to_string(
                     static_cast<int>(map.sweep_floor().value())) + " mV"});
    constexpr int kStripWidth = 60;
    for (const auto& row : map.rows()) {
        std::string strip(kStripWidth, '.');
        if (!row.fault_free) {
            const double floor_mv = -map.sweep_floor().value();
            const int onset_pos = static_cast<int>(-row.onset.value() / floor_mv * kStripWidth);
            const int crash_pos = static_cast<int>(-row.crash.value() / floor_mv * kStripWidth);
            for (int i = onset_pos; i < kStripWidth; ++i) strip[static_cast<std::size_t>(i)] = '#';
            for (int i = crash_pos; i < kStripWidth; ++i) strip[static_cast<std::size_t>(i)] = 'X';
        }
        const bool crashed = row.crash >= map.sweep_floor();
        table.add_row({Table::num(row.freq.gigahertz(), 1),
                       row.fault_free ? "none<=floor" : Table::num(row.onset.value(), 0),
                       crashed ? Table::num(row.crash.value(), 0) : ">floor",
                       row.fault_free ? "-" : Table::num(row.onset.value() - row.crash.value(), 0),
                       strip});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("maximal safe state (Sec. 5, %.0f mV guard): %.0f mV\n\n",
                plugvolt::kDefaultGuardBand.value(),
                map.maximal_safe_offset(plugvolt::kDefaultGuardBand).value());
}

}  // namespace pv::bench
