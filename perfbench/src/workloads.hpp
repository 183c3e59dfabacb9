// The benchmark's three workloads.  Each runs its set-up several times
// (median reported), an untraced measured phase sized to take about
// Options::seconds on the reference host for the end-to-end metrics,
// its output checks outside the timed phase, and — with Options::trace —
// a traced phase of fixed size for the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace pvbench {

/// End-to-end metrics, printed by every workload (an operation is a
/// map, a cube cell or a daemon job).
inline const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"ops_per_s", "1/s"},
};

/// Per-layer metrics, printed by every traced run; a workload that does
/// not exercise a layer reports 0 for it.
inline const std::vector<MetricSpec> kPerLayer = {
    {"sim.events_dispatched", "count"},
    {"sim.batch_windows", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"os.msr_accesses", "count"},
    {"plugvolt.polls", "count"},
    {"plugvolt.restore_writes", "count"},
    {"plugvolt.cells_evaluated", "cells/map"},
    {"plugvolt.crash_probes", "probes/map"},
    {"plugvolt.probe_us", "us"},
    {"infer.plan_self_ms", "ms/map"},
    {"infer.rows_interpolated", "count"},
    {"infer.plan_share", "ratio"},
    {"fleet.map_ms_p50", "ms"},
    {"fleet.unit_ms_p99", "ms"},
    {"fleet.finalize_ms", "ms"},
    {"fleet.warm_rows", "count"},
    {"campaign.attack_s.plundervolt", "s"},
    {"campaign.attack_s.voltjockey", "s"},
    {"campaign.attack_s.voltjockey-precise", "s"},
    {"campaign.attack_s.voltjockey-descending", "s"},
    {"campaign.attack_s.voltpillager", "s"},
    {"campaign.attack_s.v0ltpwn", "s"},
    {"campaign.attack_s.v0ltpwn-sgxstep", "s"},
    {"campaign.attack_s.benign-undervolt", "s"},
    {"campaign.shard_efficiency", "ratio"},
    {"campaign.map_prep_ms", "ms"},
    {"workload.table2_ms", "ms"},
    {"workload.table2_overhead_pct", "%"},
    {"resilience.submit_us_p50", "us"},
    {"resilience.unit_commits", "count"},
    {"resilience.state_bytes", "bytes"},
    {"serve.job_ms_p50", "ms"},
    {"serve.job_ms_p99", "ms"},
    {"serve.start_ms_p50", "ms"},
    {"serve.commit_ms_p50", "ms"},
    {"serve.dvfs_us_p50", "us"},
    {"serve.dvfs_us_p99", "us"},
    {"serve.client_late_us_p99", "us"},
    {"serve.resume_ms", "ms"},
    {"serve.resume_frames", "count"},
    {"bench.trace_overhead_pct", "%"},
};

[[nodiscard]] Report run_fleet_characterize(const Options& opt);
[[nodiscard]] Report run_attack_matrix(const Options& opt);
[[nodiscard]] Report run_daemon_serve(const Options& opt);

/// Set-up repetitions per run; setup_s is their median.  Repetition 0
/// is the set-up the run keeps and runs before the measured phase; the
/// others are spread evenly over the phase's rounds (untimed by them;
/// attack_matrix, with only two rounds, spreads them over its check
/// cells), so setup_s samples the host across the whole run, as wall_s
/// does, rather than during its first few milliseconds.
inline constexpr int kSetupRepeats = 31;

/// Input seed of set-up repetition `rep`: the run's own seed for the
/// kept set-up, seeds derived from it for the others.  With the inputs
/// varied, the median is a set-up cost averaged over inputs, not the
/// cost of the one input this run's seed happens to draw.
[[nodiscard]] inline std::uint64_t setup_seed(std::uint64_t seed, int rep) {
    return rep == 0 ? seed : pv::mix_seed(seed, 0x5E7'0000 + static_cast<std::uint64_t>(rep));
}

/// Runs the set-up repetitions due before measured round `round` of
/// `rounds` (all remaining ones once round == rounds), each through
/// `once(rep)`, which returns its set-up time in seconds.
template <typename Once>
void run_due_setups(std::vector<double>& setup_s, std::uint64_t round, std::uint64_t rounds,
                    Once&& once) {
    while (setup_s.size() < static_cast<std::size_t>(kSetupRepeats) &&
           setup_s.size() * rounds <= round * static_cast<std::uint64_t>(kSetupRepeats))
        setup_s.push_back(once(static_cast<int>(setup_s.size())));
}

[[nodiscard]] inline std::string setup_note(const std::vector<double>& setup_s) {
    return "median of " + std::to_string(setup_s.size()) +
           " set-ups on distinct input seeds, spread over the run";
}

/// The measured phase is a whole number of rounds of fixed work, sized
/// from the time budget by the workload's nominal round rate, so a run
/// does the same work for the same (seed, seconds) on any host and its
/// time is what varies.
[[nodiscard]] inline std::uint64_t rounds_for(double budget_s, double rounds_per_s) {
    const double rounds = budget_s * rounds_per_s + 0.5;
    return rounds < 1.0 ? 1 : static_cast<std::uint64_t>(rounds);
}

[[nodiscard]] inline double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
    return static_cast<double>(to_ns - from_ns) / 1e9;
}

[[nodiscard]] inline double ms_between(std::int64_t from_ns, std::int64_t to_ns) {
    return static_cast<double>(to_ns - from_ns) / 1e6;
}

/// (traced - untraced) / untraced, in percent.
[[nodiscard]] inline double overhead_pct(double traced, double untraced) {
    return untraced > 0.0 ? 100.0 * (traced - untraced) / untraced : 0.0;
}

}  // namespace pvbench
