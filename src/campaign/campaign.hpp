// PlugVolt — adversarial campaign engine (Sec. 4.3 / Table 2 at scale).
//
// The paper's central claim is a *matrix* claim: the polling module
// defeats every software DVFS fault attack that access control
// (SA-00289) and Minefield cannot, at every deployment level, on every
// characterized part.  bench_attack_matrix used to exercise that matrix
// with an ad-hoc loop over one profile; the campaign engine turns the
// full {attack} x {defense deployment} x {CPU profile} cross-product
// into a sharded, crash-tolerant, bit-exactly replayable workload:
//
//   - every cell runs on a freshly constructed Machine seeded from
//     mix(campaign_seed, cell_index) — the same order-independence
//     trick as ParallelCharacterizer, so a cell's outcome is a pure
//     function of (config, cell) and the sharded run equals the
//     single-thread run fingerprint-for-fingerprint;
//   - a cell whose Machine ends dead (the attack gave up mid-crash, or
//     a simulator error unwound) is rebuilt and re-run with the next
//     derived attempt seed, up to max_attempts, with the rebuild count
//     recorded — the crash-tolerant retry loop long stochastic attacker
//     campaigns (V0LTpwn, PMFault) need;
//   - any single cell can be re-executed bit-exactly via run_cell()
//     (campaign_demo exposes it as --replay seed:cell) for debugging;
//   - results carry the AttackResult, the polling module's metrics,
//     the MsrAuditor's findings and a state-hash fingerprint, and the
//     report serializes to JSON and CSV (report.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attacks/attack.hpp"
#include "plugvolt/polling_module.hpp"
#include "plugvolt/safe_state.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/retry.hpp"
#include "sim/cpu_profile.hpp"
#include "trace/metrics.hpp"

namespace pv::trace {
class TraceSession;
}  // namespace pv::trace

namespace pv::campaign {

/// The attack column of the matrix.  BenignUndervolt is the paper's
/// differentiator probe, not an attack: a non-SGX process asking for
/// safe undervolts while an enclave is loaded (full/clamped/DENIED).
enum class AttackKind {
    Plundervolt,
    VoltJockey,            ///< big-jump frequency raise
    VoltJockeyPrecise,     ///< adjacent-bin hop with attacker map
    VoltJockeyDescending,  ///< descending-rail PCU transition race
    VoltPillager,          ///< hardware SVID injection (no MSR trace)
    V0ltpwn,               ///< enclave victim, no stepping
    V0ltpwnSgxStep,        ///< enclave victim + SGX-Step zero-stepping
    BenignUndervolt,       ///< benign DVFS usability probe
};

/// The defense row of the matrix: none, the four polling flavours, the
/// two vendor deployments, and the two baselines the paper argues
/// against.
enum class DefenseKind {
    None,
    PollingNoRailWatch,   ///< plain PollingModule (paper Algo. 3, no watchdog)
    PollingSafeLimit,     ///< Protector kernel-module (safe-limit + rail watch)
    PollingMaximalSafe,   ///< RestorePolicy::ClampToMaximalSafe
    PollingRestoreZero,   ///< RestorePolicy::RestoreZero
    Microcode,            ///< Sec. 5.1 write-ignore
    MsrClamp,             ///< Sec. 5.2 hardware clamp MSR
    AccessControl,        ///< Intel SA-00289 baseline
    Minefield,            ///< trap-deflection baseline (victim compile time)
};

[[nodiscard]] const char* to_string(AttackKind kind);
[[nodiscard]] const char* to_string(DefenseKind kind);

/// Every attack / defense kind, in matrix order.
[[nodiscard]] const std::vector<AttackKind>& all_attacks();
[[nodiscard]] const std::vector<DefenseKind>& all_defenses();

/// Cost knobs threaded into every attack's campaign parameters, so the
/// differential and property tests can run the whole cube at a coarse,
/// fast setting while the demo runs the published shape.
struct AttackTuning {
    /// Offset scan resolution (Plundervolt/VoltJockey/V0LTpwn scans;
    /// VoltPillager keeps its published 2x-coarser ratio).
    Millivolts scan_step{2.0};
    /// Probe-loop iterations per scanned offset.
    std::uint64_t probe_ops = 100'000;
    /// Enclave entries per offset (V0LTpwn).  The published campaign
    /// enters tens of thousands of times; 200 is enough for the
    /// last-mul fault (the one Minefield's traps cannot see under
    /// zero-step suppression) to land reliably.
    unsigned runs_per_offset = 200;
    /// Reboots an attacker tolerates before giving up.  The published
    /// one-shot campaigns default to 2-3; a campaign adversary with
    /// physical access retries more.
    unsigned max_crashes = 6;
};

struct CampaignConfig {
    std::vector<AttackKind> attacks = all_attacks();
    std::vector<DefenseKind> defenses = all_defenses();
    std::vector<sim::CpuProfile> profiles = sim::paper_profiles();
    /// Root seed: every cell seed and every per-profile characterization
    /// seed derives from it.
    std::uint64_t seed = 0xDAC2024;
    /// Worker threads for run(); 1 = run cells inline on the calling
    /// thread (the single-thread reference execution), 0 = pool default.
    unsigned workers = 0;
    /// Crash-tolerant retry: rebuild the Machine and re-run the cell up
    /// to this many total attempts when it ends with a dead machine.
    unsigned max_attempts = 3;
    /// Backoff between rebuild attempts (max_attempts above overrides
    /// the policy's own budget).  The delay models the reboot pacing a
    /// physical campaign pays and is charged on the rebuilt machine's
    /// virtual clock — deterministically, so retried cells still replay
    /// bit-exactly.
    resilience::RetryPolicy retry{};
    /// Resolution of the per-profile safe-state maps the defenses (and
    /// map-driven attacks) are armed with.
    Millivolts char_step{2.0};
    AttackTuning tuning{};
    /// Attach an MsrAuditor to every cell and record its findings.
    bool audit = true;
    /// Optional environment fault plan: every cell attempt runs its MSR
    /// traffic through a FaultInjector reseeded from (cell seed,
    /// attempt), so injected faults are a pure function of (config,
    /// cell, attempt) — order- and worker-count-independent, and
    /// bit-identical across resumed runs.
    std::optional<resilience::FaultPlan> fault_plan;
    /// Optional trace sink (not owned; must outlive run()).  Every cell
    /// opens its own track, keyed by cell INDEX — never by worker or OS
    /// thread — and all events carry virtual-clock timestamps, so the
    /// exported trace is byte-identical between serial and sharded runs.
    trace::TraceSession* trace = nullptr;
};

/// One cell of the cube, fully determined by the config and its index.
struct CellSpec {
    std::size_t index = 0;  ///< linear index in the enumeration order
    AttackKind attack = AttackKind::Plundervolt;
    DefenseKind defense = DefenseKind::None;
    std::size_t profile_index = 0;
    std::uint64_t seed = 0;  ///< mix(config.seed, index)
};

/// Outcome of one campaign cell.
struct CampaignCellResult {
    CellSpec spec;
    std::string profile_name;
    attack::AttackResult attack_result;
    /// Polling-module counters, when the cell's defense deploys one.
    std::optional<plugvolt::PollingMetrics> polling;
    /// MsrAuditor findings over the cell (0/0 when auditing is off).
    std::uint64_t audit_violations = 0;
    std::uint64_t audited_accesses = 0;
    /// Machine::state_hash() after the final attempt — the cell's
    /// bit-exact replay witness.
    std::uint64_t machine_state_hash = 0;
    /// Attempts executed (1 = no retry) and machines rebuilt dead.
    unsigned attempts = 1;
    unsigned machine_rebuilds = 0;
    /// Human verdict: "blocked", "faults leaked (n)", "BROKEN (n faults)"
    /// — or the benign probe's "full"/"clamped"/"DENIED".
    std::string verdict;
    /// Cell-level metrics (attempts, faults, virtual duration, plus the
    /// polling module's counters and histograms under "polling.").
    /// Folded into fingerprint() and the JSON report.
    trace::MetricsSnapshot metrics;
};

/// 64-bit fingerprint over every field of a cell result (StateHasher).
/// Equal fingerprints mean the cell replayed bit-exactly.
[[nodiscard]] std::uint64_t fingerprint(const CampaignCellResult& cell);

struct CampaignReport;  // report.hpp
class CampaignJournal;  // journal.hpp

/// Per-run resume accounting (what run() adopted vs executed).
struct CampaignRunStats {
    std::uint64_t cells_executed = 0;
    std::uint64_t cells_adopted = 0;
    std::uint64_t attempts_fast_forwarded = 0;

    friend bool operator==(const CampaignRunStats&, const CampaignRunStats&) = default;
};

/// The sharded campaign driver.
class CampaignEngine {
public:
    /// Notification that `attempts_failed` attempts of `spec` have ended
    /// with a dead machine (the journaling hook; may fire on a pool
    /// worker thread in sharded runs).
    using AttemptSink = std::function<void(const CellSpec& spec, unsigned attempts_failed)>;

    explicit CampaignEngine(CampaignConfig config);
    ~CampaignEngine();

    CampaignEngine(const CampaignEngine&) = delete;
    CampaignEngine& operator=(const CampaignEngine&) = delete;

    /// The full cube, in enumeration order (profile-major, then defense,
    /// then attack) with derived per-cell seeds.
    [[nodiscard]] std::vector<CellSpec> cells() const;

    /// Fingerprint over everything result-determining in the config
    /// (cube axes, seed, tuning, retry, audit, fault plan — NOT workers
    /// or trace sinks).  The campaign journal's header identity.
    [[nodiscard]] std::uint64_t config_hash() const;

    /// Run the whole cube.  workers > 1 shards cells across a ThreadPool;
    /// the report's cells are always in enumeration order and equal the
    /// single-thread run fingerprint-for-fingerprint.  `progress`
    /// (optional) is called on the calling thread, in cell order.
    [[nodiscard]] CampaignReport run(
        const std::function<void(const CampaignCellResult&)>& progress = {});

    /// Run the cube against a cell-granular WAL: journaled cells are
    /// adopted verbatim (bit-identical by per-cell purity), journaled
    /// dead-attempt counts fast-forward each cell's retry stream, and
    /// every fresh cell is committed BEFORE `progress` sees it.  Throws
    /// ConfigError unless the journal's identity matches config_hash().
    [[nodiscard]] CampaignReport run(
        CampaignJournal& journal,
        const std::function<void(const CampaignCellResult&)>& progress = {});

    /// Accounting for the most recent run() call.
    [[nodiscard]] const CampaignRunStats& run_stats() const { return run_stats_; }

    /// Execute one cell bit-exactly (the --replay path).  Pure function
    /// of (config, spec): calling it twice returns equal fingerprints.
    [[nodiscard]] CampaignCellResult run_cell(const CellSpec& spec);

    /// run_cell with resume support: skips the first `start_attempt`
    /// attempts (journaled as dead) while still consuming their retry
    /// schedule — the executed attempts see the same seeds and backoffs
    /// as an uninterrupted run, so the result is bit-identical.  `sink`
    /// (optional) observes each dead attempt as it is recorded.
    [[nodiscard]] CampaignCellResult run_cell(const CellSpec& spec,
                                              unsigned start_attempt,
                                              const AttemptSink& sink);

    /// Characterize (once, lazily) and return the safe-state map armed
    /// for profile `profile_index`.  Deterministic in config.seed and
    /// independent of worker count.
    [[nodiscard]] const plugvolt::SafeStateMap& map_for(std::size_t profile_index);

    [[nodiscard]] const CampaignConfig& config() const { return config_; }

private:
    /// Ensure every profile map exists (serially, on the calling
    /// thread) so sharded cells only ever read the cache.
    void prepare_maps();

    /// Both run() overloads: `journal` may be null (nothing adopted,
    /// nothing committed).
    [[nodiscard]] CampaignReport run_cube(
        CampaignJournal* journal,
        const std::function<void(const CampaignCellResult&)>& progress);

    CampaignConfig config_;
    std::vector<std::unique_ptr<plugvolt::SafeStateMap>> maps_;
    CampaignRunStats run_stats_;
};

}  // namespace pv::campaign
