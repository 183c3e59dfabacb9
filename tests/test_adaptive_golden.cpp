// Golden-file regression for the adaptive planner's probe stream at the
// paper's 1 mV resolution.
//
// The charmap and fleet goldens pin VERDICTS at 5 and 10 mV; they say
// nothing about which cells the planner probed, in what order, or what
// its posteriors reported along the way.  This file pins all of it for
// Sky Lake, Kaby Lake R and Comet Lake at 1 mV, once as a cold solo
// sweep and once as a warm-started 6-unit fleet.  Each case folds into
// one 64-bit FNV-1a fingerprint:
//   - every probe the planner issued, in order, with its outcome
//     (row, step, faults, crashed) — for the solo sweep the engine's
//     adaptive_probe_log() as well;
//   - every ProbeSelected and PosteriorUpdate event, recorded through a
//     trace::ScopedRecorder bound on the planner's thread;
//   - state_hash of every resulting map.
// A planner optimization that is meant to be invisible must leave these
// fingerprints unchanged.
//
// The same six cases also pin what the planner CONCLUDED, apart from
// how it got there: `adaptive_*_map.golden` holds the state_hash of every
// resulting map, every planned row (crash and onset step, anchored or
// interpolated) and, for a fleet, the envelope hash.  A change to the
// probe search regoldens the probe streams; it must leave these alone.
//
// Regoldening (after an INTENDED change to the probe stream):
// `PV_REGOLDEN=1 ctest -R Golden`; commit the diff alongside the change
// that explains it.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/state_hasher.hpp"
#include "fleet/fleet_orchestrator.hpp"
#include "fleet/silicon_lot.hpp"
#include "infer/adaptive_planner.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "plugvolt/safe_state.hpp"
#include "sim/cpu_profile.hpp"
#include "trace/recorder.hpp"

#ifndef PV_GOLDEN_DIR
#error "PV_GOLDEN_DIR must point at tests/golden (set in tests/CMakeLists.txt)"
#endif

namespace pv::infer {
namespace {

constexpr double kStepMv = 1.0;
constexpr std::uint64_t kFleetUnits = 6;

struct GoldenCase {
    const char* slug;  ///< file stem under tests/golden/
    sim::CpuProfile (*profile)();
    bool fleet;        ///< warm-started fleet instead of one cold sweep
};

const std::vector<GoldenCase>& golden_cases() {
    static const std::vector<GoldenCase> cases = {
        {"adaptive_skylake_1mv", sim::skylake_i5_6500, false},
        {"adaptive_kabylake_r_1mv", sim::kabylake_r_i5_8250u, false},
        {"adaptive_cometlake_1mv", sim::cometlake_i7_10510u, false},
        {"adaptive_fleet_skylake_1mv_6u", sim::skylake_i5_6500, true},
        {"adaptive_fleet_kabylake_r_1mv_6u", sim::kabylake_r_i5_8250u, true},
        {"adaptive_fleet_cometlake_1mv_6u", sim::cometlake_i7_10510u, true},
    };
    return cases;
}

std::string golden_path(const GoldenCase& c) {
    return std::string(PV_GOLDEN_DIR) + "/" + c.slug + ".golden";
}

bool regolden_requested() {
    const char* env = std::getenv("PV_REGOLDEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Reads the committed fingerprint; '#' lines are comments.
std::optional<std::uint64_t> read_golden(const std::string& path) {
    std::ifstream in(path);
    if (!in) return std::nullopt;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        return std::strtoull(line.c_str(), nullptr, 0);
    }
    return std::nullopt;
}

void write_golden(const GoldenCase& c, std::uint64_t hash) {
    std::ofstream out(golden_path(c));
    ASSERT_TRUE(out) << "cannot write " << golden_path(c);
    char line[64];
    std::snprintf(line, sizeof line, "0x%016" PRIx64 "\n", hash);
    out << "# Adaptive 1 mV probe stream for " << c.slug
        << " (probes, posterior/probe trace events, map hashes).\n"
        << "# Regolden after intended planner changes: PV_REGOLDEN=1 ctest -R Golden\n"
        << line;
}

/// Everything the planner did, folded in call order.  Shared by the
/// planner invocations of one case; the fleet runs its units one at a
/// time (workers == 1), so invocations never overlap.
struct StreamHash {
    check::StateHasher hasher;
    bool overflowed = false;
};

void mix_probe(check::StateHasher& h, std::uint64_t row, std::uint64_t step,
               std::uint64_t faults, bool crashed) {
    h.mix(row).mix(step).mix(faults).mix(crashed);
}

/// The infer planner, wrapped to hash every probe call it makes and the
/// planner-side trace events of the invocation.
plugvolt::AdaptivePlannerFn hashing_planner(StreamHash& stream) {
    const plugvolt::AdaptivePlannerFn inner = adaptive_planner();
    return [&stream, inner](const plugvolt::AdaptiveContext& ctx,
                            const plugvolt::CellProbeFn& probe) {
        // Probes run on this thread too, so the track also collects the
        // simulator's own events; only the planner's kinds are hashed.
        trace::TraceRecorder recorder("adaptive-planner", 0, std::size_t{1} << 16);
        std::vector<plugvolt::PlannedRow> rows;
        {
            const trace::ScopedRecorder bind(&recorder);
            const plugvolt::CellProbeFn hashed = [&stream, &probe](std::size_t row,
                                                                   std::uint64_t step) {
                const plugvolt::CellResult cell = probe(row, step);
                mix_probe(stream.hasher, row, step, cell.faults, cell.crashed);
                return cell;
            };
            rows = inner(ctx, hashed);
        }
        if (recorder.dropped_events() != 0) stream.overflowed = true;
        for (const trace::Event& e : recorder.events()) {
            if (e.kind != trace::EventKind::ProbeSelected &&
                e.kind != trace::EventKind::PosteriorUpdate)
                continue;
            stream.hasher.mix(static_cast<std::uint64_t>(e.kind))
                .mix(e.ts_ps)
                .mix(e.a)
                .mix(e.b);
        }
        for (const plugvolt::PlannedRow& r : rows)
            stream.hasher.mix(r.crash_step).mix(r.onset_step).mix(r.anchored);
        return rows;
    };
}

std::uint64_t solo_stream_hash(const GoldenCase& c, StreamHash& stream) {
    plugvolt::ParallelCharacterizerConfig config;
    config.cell.offset_step = Millivolts{kStepMv};
    config.mode = plugvolt::SweepMode::Adaptive;
    config.workers = 1;
    config.planner = hashing_planner(stream);
    plugvolt::ParallelCharacterizer sweep(c.profile(), config);
    const std::uint64_t map_hash = plugvolt::state_hash(sweep.characterize());
    for (const plugvolt::ProbeLogEntry& e : sweep.adaptive_probe_log())
        mix_probe(stream.hasher, e.row, e.step, e.faults, e.crashed);
    stream.hasher.mix(map_hash);
    return stream.hasher.digest();
}

std::uint64_t fleet_stream_hash(const GoldenCase& c, StreamHash& stream) {
    // The benchmark's fleet shape: lot-neighbour warm starts, units
    // characterized strictly in order by one worker.
    fleet::FleetConfig config;
    config.units = kFleetUnits;
    config.workers = 1;
    config.warm_start = true;
    config.sweep.cell.offset_step = Millivolts{kStepMv};
    config.sweep.mode = plugvolt::SweepMode::Adaptive;
    config.sweep.workers = 1;
    config.sweep.planner = hashing_planner(stream);
    fleet::FleetOrchestrator fleet(fleet::SiliconLot(c.profile(), {}), config);
    // Map hashes are folded in after the run, so the stream hash does not
    // depend on when progress runs relative to the next unit's planning.
    std::vector<std::uint64_t> map_hashes;
    const fleet::PopulationEnvelope envelope = fleet.characterize(
        [&map_hashes](std::uint64_t, const plugvolt::SafeStateMap& map) {
            map_hashes.push_back(plugvolt::state_hash(map));
        });
    for (const std::uint64_t h : map_hashes) stream.hasher.mix(h);
    stream.hasher.mix(fleet::state_hash(envelope));
    return stream.hasher.digest();
}

/// The verdict side of one case: map hashes, planned rows and (fleet
/// only) the envelope hash.
struct MapFingerprint {
    std::uint64_t maps = 0;
    std::uint64_t plan = 0;
    std::optional<std::uint64_t> envelope;
};

/// The infer planner, wrapped to fold the rows it returns into `plan`.
plugvolt::AdaptivePlannerFn recording_planner(check::StateHasher& plan) {
    const plugvolt::AdaptivePlannerFn inner = adaptive_planner();
    return [&plan, inner](const plugvolt::AdaptiveContext& ctx,
                          const plugvolt::CellProbeFn& probe) {
        std::vector<plugvolt::PlannedRow> rows = inner(ctx, probe);
        for (const plugvolt::PlannedRow& r : rows)
            plan.mix(r.crash_step).mix(r.onset_step).mix(r.anchored);
        return rows;
    };
}

MapFingerprint map_fingerprint(const GoldenCase& c) {
    check::StateHasher maps;
    check::StateHasher plan;
    MapFingerprint out;
    if (c.fleet) {
        fleet::FleetConfig config;
        config.units = kFleetUnits;
        config.workers = 1;
        config.warm_start = true;
        config.sweep.cell.offset_step = Millivolts{kStepMv};
        config.sweep.mode = plugvolt::SweepMode::Adaptive;
        config.sweep.workers = 1;
        config.sweep.planner = recording_planner(plan);
        fleet::FleetOrchestrator fleet(fleet::SiliconLot(c.profile(), {}), config);
        const fleet::PopulationEnvelope envelope = fleet.characterize(
            [&maps](std::uint64_t, const plugvolt::SafeStateMap& map) {
                maps.mix(plugvolt::state_hash(map));
            });
        out.envelope = fleet::state_hash(envelope);
    } else {
        plugvolt::ParallelCharacterizerConfig config;
        config.cell.offset_step = Millivolts{kStepMv};
        config.mode = plugvolt::SweepMode::Adaptive;
        config.workers = 1;
        config.planner = recording_planner(plan);
        plugvolt::ParallelCharacterizer sweep(c.profile(), config);
        maps.mix(plugvolt::state_hash(sweep.characterize()));
    }
    out.maps = maps.digest();
    out.plan = plan.digest();
    return out;
}

std::string map_golden_path(const GoldenCase& c) {
    return std::string(PV_GOLDEN_DIR) + "/" + c.slug + "_map.golden";
}

std::string hex(std::uint64_t v) {
    char text[32];
    std::snprintf(text, sizeof text, "0x%016" PRIx64, v);
    return text;
}

/// "key value" lines; '#' lines are comments.
std::optional<MapFingerprint> read_map_golden(const std::string& path) {
    std::ifstream in(path);
    if (!in) return std::nullopt;
    MapFingerprint out;
    std::string key, value;
    while (in >> key) {
        if (key[0] == '#') {
            std::getline(in, value);
            continue;
        }
        if (!(in >> value)) return std::nullopt;
        const std::uint64_t v = std::strtoull(value.c_str(), nullptr, 0);
        if (key == "maps") out.maps = v;
        else if (key == "plan") out.plan = v;
        else if (key == "envelope") out.envelope = v;
        else return std::nullopt;
    }
    return out;
}

void write_map_golden(const GoldenCase& c, const MapFingerprint& f) {
    std::ofstream out(map_golden_path(c));
    ASSERT_TRUE(out) << "cannot write " << map_golden_path(c);
    out << "# Adaptive 1 mV verdicts for " << c.slug
        << " (map state_hash, planned rows, envelope).\n"
        << "# Probe-search changes must leave this file alone; regolden only after\n"
        << "# an intended change to the maps: PV_REGOLDEN=1 ctest -R Golden\n"
        << "maps " << hex(f.maps) << "\n"
        << "plan " << hex(f.plan) << "\n";
    if (f.envelope) out << "envelope " << hex(*f.envelope) << "\n";
}

TEST(AdaptiveGolden, OneMillivoltMapsAndPlansReproduceCommittedFingerprints) {
    for (const GoldenCase& c : golden_cases()) {
        SCOPED_TRACE(c.slug);
        const MapFingerprint got = map_fingerprint(c);
        if (regolden_requested()) {
            write_map_golden(c, got);
            continue;
        }
        const auto committed = read_map_golden(map_golden_path(c));
        ASSERT_TRUE(committed.has_value())
            << "missing or malformed golden file " << map_golden_path(c)
            << " — generate with: PV_REGOLDEN=1 ctest -R Golden";
        EXPECT_EQ(hex(got.maps), hex(committed->maps)) << c.slug << ": maps drifted";
        EXPECT_EQ(hex(got.plan), hex(committed->plan)) << c.slug << ": planned rows drifted";
        EXPECT_EQ(got.envelope.has_value(), committed->envelope.has_value());
        if (got.envelope && committed->envelope) {
            EXPECT_EQ(hex(*got.envelope), hex(*committed->envelope))
                << c.slug << ": envelope drifted";
        }
    }
}

TEST(AdaptiveGolden, OneMillivoltProbeStreamsReproduceCommittedFingerprints) {
    for (const GoldenCase& c : golden_cases()) {
        SCOPED_TRACE(c.slug);
        StreamHash stream;
        const std::uint64_t hash =
            c.fleet ? fleet_stream_hash(c, stream) : solo_stream_hash(c, stream);
        ASSERT_FALSE(stream.overflowed) << "planner trace track overflowed its ring";

        if (regolden_requested()) {
            write_golden(c, hash);
            continue;
        }
        const auto committed = read_golden(golden_path(c));
        ASSERT_TRUE(committed.has_value())
            << "missing golden file " << golden_path(c)
            << " — generate with: PV_REGOLDEN=1 ctest -R Golden";
        EXPECT_EQ(hash, *committed)
            << c.slug << ": adaptive 1 mV probe stream drifted from the committed golden; "
            << "if the change is intended, regolden with PV_REGOLDEN=1 ctest -R Golden";
    }
}

}  // namespace
}  // namespace pv::infer
