// PlugVolt — parallel sharded characterization engine.
//
// The Algorithm 2 sweep is embarrassingly parallel across frequency
// rows: on real hardware the machine crash-reboots between columns
// anyway, so no state an attacker or defender cares about flows from one
// row to the next.  This engine shards rows across a ThreadPool, each
// worker owning its own Machine/Kernel/Characterizer built from the same
// CpuProfile, and reproduces the paper's per-cell protocol bit-for-bit
// regardless of worker count or visit order.
//
// Determinism / seeding scheme
// ----------------------------
//   row_seed  = mix(sweep_seed, row_index)
//   cell_seed = mix(row_seed, offset_step_index)
// and every cell probe starts from Machine::reset(cell_seed): boot
// state, cold die, fresh RNG.  A cell's outcome is therefore a pure
// function of (profile, frequency, offset, sweep_seed) — independent of
// which worker probes it, in which order, and of how many cells were
// probed before it.  That is what makes every worker count (one worker
// runs the rows in order on the calling thread) and both row strategies
// (the exhaustive scan and the row search) produce the same SafeStateMap
// cell-for-cell.  This engine is the repo's only Algorithm 2 sweep
// driver; Characterizer supplies the per-cell probe it runs.
//
// Bisection mode
// --------------
// Each row runs the one fast row search (row_search.hpp) with every row
// anchored, a zero reboot cost and, in a fleet, the lot neighbours'
// boundaries as its prior.  The fault physics make each column monotone
// in offset: the crash condition (FaultModel::would_crash) is a
// deterministic threshold, so the crash search is exact whatever order
// its probes come in; fault probability only grows as the offset
// deepens, but fault observation is a per-cell Bernoulli draw, so the
// observable onset is fuzzy over the few steps where the expected fault
// count crosses ~1.  The search's refine walk scans refine_window
// shallower cells from a faulting start; with the window covering that
// band it lands on exactly the cell an exhaustive scan reports first.
// Use Exhaustive mode to validate maps (it probes every cell up to the
// crash boundary, exactly like the paper's sweep); use Bisection for the
// production fast path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "plugvolt/characterizer.hpp"
#include "plugvolt/safe_state.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/journal.hpp"
#include "sim/cpu_profile.hpp"
#include "util/flat_map.hpp"

namespace pv::plugvolt {

class RowSearch;

/// How each frequency row locates its onset and crash boundaries.
enum class SweepMode {
    Exhaustive,  ///< probe every offset step down to the crash (validation)
    Bisection,   ///< the row search on every row (production fast path)
    Adaptive,    ///< the row search on anchor rows, the rest interpolated (src/infer)
};

[[nodiscard]] const char* to_string(SweepMode mode);

/// Prior for one frequency row of the row search: the boundary steps a
/// lot-neighbour (an already-characterized unit of the same silicon lot)
/// reported for this row, or the adaptive planner's interpolation.  0
/// means "no prior" (flat) for that boundary.  Priors NEVER change sweep
/// results — the crash boundary is a deterministic monotone predicate,
/// so any bracketing search finds the same cell, and the onset refine
/// walk lands on the same shallowest faulting cell from any faulting
/// start (see DESIGN §5h for the soundness argument) — they only shrink
/// the probe count, which is why they are excluded from config_hash().
struct RowWarmStart {
    std::uint64_t crash_step = 0;  ///< neighbours' crash boundary (1-based step)
    std::uint64_t onset_step = 0;  ///< neighbours' fault-onset step (1-based)
};

/// Per-row hint source consulted at the start of each searched row (a
/// Bisection row or an Adaptive anchor); return std::nullopt (or zero
/// steps) for a flat prior.  Called on the thread that searches the row.
using WarmStartFn = std::function<std::optional<RowWarmStart>(std::size_t row_index)>;

// --- Adaptive-mode delegation ------------------------------------------
// The Adaptive sweep's row-axis planner (which rows to anchor, which to
// interpolate) is IMPLEMENTED one layer up, in src/infer; it anchors rows
// with this layer's row search.  plugvolt defines the delegation surface
// so the layering DAG stays acyclic: infer includes plugvolt, and
// callers that want adaptive sweeps (fleet, bench, tests) inject an
// infer planner through ParallelCharacterizerConfig::planner.

/// One cell probe actually executed by an adaptive sweep, in selection
/// order.  `step` is the 1-based offset step of the row's column.
struct ProbeLogEntry {
    std::uint64_t row = 0;
    std::uint64_t step = 0;
    std::uint64_t faults = 0;
    bool crashed = false;
};

/// A row search's or adaptive planner's verdict for one frequency row,
/// in 1-based offset steps:
///   crash_step in [1, steps]  — certified crash boundary;
///   crash_step == steps + 1   — no crash inside the sweep;
///   onset_step in [1, steps]  — shallowest faulting cell;
///   onset_step == 0           — no faulting cell (fault-free column, or
///                               the band hides under the crash cell).
/// `anchored` rows were certified by direct probes (the bisection
/// bracket invariant holds for them); non-anchored rows were interpolated
/// between anchors and carry a 1-cell accuracy certificate instead.
struct PlannedRow {
    std::uint64_t crash_step = 0;
    std::uint64_t onset_step = 0;
    bool anchored = false;
};

/// Everything a planner may condition on.  Probe OUTCOMES arrive only
/// through the CellProbeFn the engine passes alongside, which routes
/// through the same memoized per-cell reseeding path as every other
/// sweep mode — that is what keeps any adaptively probed cell
/// bit-identical to its exhaustive counterpart.
struct AdaptiveContext {
    std::size_t rows = 0;            ///< frequency-table size
    std::uint64_t steps = 0;         ///< offset steps per column
    std::uint64_t seed = 0;          ///< sweep seed (planner RNG root)
    std::uint64_t refine_window = 0; ///< onset observability-band bound
    /// Rows already durable in a journal being resumed: the planner must
    /// treat anchored entries as certified boundary values (their probes
    /// already happened in the killed run) and must not re-derive them.
    /// Planning decisions may depend only on certified VALUES, never on
    /// probe counts — that is the resume bit-identity contract.
    std::vector<std::optional<PlannedRow>> adopted;
    /// Lot-neighbour prior source (fleet warm start); hints shape the
    /// posterior only, never certified results.
    WarmStartFn warm_start;
};

/// A journaled row back in step coordinates — the inverse of the
/// engine's step-to-row conversion: crash_step == steps + 1 for a column
/// that never crashed, onset_step == 0 for a fault-free one (a row whose
/// onset sits on its crash cell reads back onset_step == crash_step).
/// `anchored` is left false; the caller knows the row's provenance.
[[nodiscard]] PlannedRow steps_from_row(const resilience::RowRecord& rec,
                                        const CharacterizerConfig& cell);

/// Probe offset step `s` (1-based, <= steps) of row `row`.  Memoized by
/// the engine: repeated calls are free and logged once.
using CellProbeFn = std::function<CellResult(std::size_t row, std::uint64_t step)>;

/// The adaptive strategy itself: given the context and a probe oracle,
/// return a verdict for every row.  Runs sequentially on the sweep's
/// calling thread, so the probe sequence is a pure function of
/// (context, probe outcomes) regardless of worker count.
using AdaptivePlannerFn =
    std::function<std::vector<PlannedRow>(const AdaptiveContext&, const CellProbeFn&)>;

struct ParallelCharacterizerConfig {
    /// Per-cell protocol (offset step, floor, ops per cell, cores, ...).
    CharacterizerConfig cell{};
    /// Worker threads; 0 means ThreadPool::default_worker_count().  One
    /// worker runs rows serially on the CALLING thread with no pool, so
    /// drivers that already shard at a coarser axis (fleet units, daemon
    /// jobs) never nest a pool inside a pool or hop threads per row.
    /// Results are identical for every count (each cell is seeded
    /// independently).
    unsigned workers = 0;
    SweepMode mode = SweepMode::Bisection;
    /// Root seed of the deterministic per-row / per-cell seeding scheme.
    std::uint64_t seed = 0xDAC2024;
    /// Shallow verification window of the row search's onset walk, in
    /// offset steps.  Must cover the stochastic observability band (a
    /// few steps at 1 mV resolution); the equality tests pin it down.
    std::uint64_t refine_window = 8;
    /// Environment fault plan applied to every worker's MSR driver.
    /// The injector is reseeded per cell from the cell seed, so which
    /// accesses fault is a pure function of (plan, cell) — independent
    /// of worker count and probe order, like the cells themselves.
    std::optional<resilience::FaultPlan> fault_plan;
    /// Optional prior source for searched rows (ignored in Exhaustive
    /// mode).  Affects probe cost only, never results, and is therefore
    /// excluded from config_hash().
    WarmStartFn warm_start;
    /// Adaptive-mode strategy (required when mode == SweepMode::Adaptive,
    /// rejected otherwise).  Like warm_start it is excluded from
    /// config_hash(): the mode itself IS hashed, and a conforming planner
    /// produces results determined by (profile, cell protocol, seed) —
    /// the differential tests hold adaptive maps to the golden
    /// fingerprints within the certified 1-cell tolerance.
    AdaptivePlannerFn planner;
};

/// Aggregate cost counters of one sweep (the quantities the bench
/// tracks: probing work and reboots burned).
struct SweepStats {
    std::uint64_t cells_evaluated = 0;  ///< cell probes actually run
    std::uint64_t crash_probes = 0;     ///< probes that ended in a crash-reboot
    std::uint64_t rows = 0;             ///< frequency columns characterized
    std::uint64_t rows_resumed = 0;     ///< columns adopted from a journal
    std::uint64_t msr_retries = 0;      ///< faulted mailbox writes retried
    std::uint64_t env_faults = 0;       ///< environment faults injected
    std::uint64_t journal_commits = 0;  ///< row frames committed this run
    std::uint64_t journal_bytes = 0;    ///< bytes physically written this run
    std::uint64_t rows_interpolated = 0;  ///< adaptive rows certified without probes
};

/// The sharded Algorithm 2 driver.
class ParallelCharacterizer {
public:
    ParallelCharacterizer(sim::CpuProfile profile, ParallelCharacterizerConfig config);

    /// Run the sweep over the profile's full frequency table.  `progress`
    /// (optional) is called on the calling thread, in frequency order,
    /// once per completed column.
    [[nodiscard]] SafeStateMap characterize(
        const std::function<void(const FreqCharacterization&)>& progress = {});

    /// Journaled sweep: every completed column is committed to `journal`
    /// BEFORE the progress callback sees it, so a crash at any point
    /// leaves all delivered rows durable.  Columns already present in
    /// the journal are adopted bit-for-bit instead of being re-probed —
    /// so calling this on a journal recovered after a crash IS the
    /// resume path, and the result is cell-identical to an
    /// uninterrupted sweep.  Throws ConfigError when the journal's
    /// identity does not match this sweep's config_hash(), and, like
    /// characterize_with(), JournalError when a journaled row does not
    /// match the frequency table.
    [[nodiscard]] SafeStateMap characterize(
        resilience::SweepJournal& journal,
        const std::function<void(const FreqCharacterization&)>& progress = {});

    /// Durability-agnostic sweep: rows in `adopted` (keyed by row_index
    /// into this sweep's frequency table) are taken verbatim instead of
    /// re-probed, and every freshly computed row is handed to `commit`
    /// BEFORE the progress callback — the same write-ahead contract as
    /// the journaled characterize(), with the durable medium abstracted
    /// away.  This is the fleet orchestrator's entry point: it frames
    /// many units' rows into one shared journal, so per-unit sweeps
    /// deliver rows through this sink instead of owning a journal each.
    /// Throws JournalError when an adopted row does not match the table.
    [[nodiscard]] SafeStateMap characterize_with(
        const std::vector<resilience::RowRecord>& adopted,
        const std::function<void(const resilience::RowRecord&)>& commit,
        const std::function<void(const FreqCharacterization&)>& progress = {});

    /// Fingerprint of everything that determines sweep RESULTS (profile,
    /// frequency table, cell protocol, seed, mode, refine window, fault
    /// plan — NOT worker count).  A journal is only resumable into a
    /// sweep with the same hash: SweepJournal::open(path, config_hash()).
    [[nodiscard]] std::uint64_t config_hash() const;

    /// Counters of the last characterize() call.
    [[nodiscard]] const SweepStats& stats() const { return stats_; }

    /// Every cell probe the last Adaptive sweep executed, in selection
    /// order (empty for other modes).  The determinism PROP tests assert
    /// this sequence bit-identical across worker counts, and the
    /// differential layer replays each entry against a fresh-boot
    /// single-cell characterization.
    [[nodiscard]] const std::vector<ProbeLogEntry>& adaptive_probe_log() const {
        return probe_log_;
    }

    /// The last Adaptive sweep's per-row verdicts, indexed like the
    /// frequency table (empty for other modes).  `anchored` marks rows
    /// certified by direct probes; interpolated rows carry only the
    /// planner's 1-cell certificate — the uncertainty signal the serving
    /// layer widens guard bands with.  Identical between a fresh run and
    /// a journal resume (adopted rows keep their probed/interpolated
    /// provenance via the journal's cells counter).
    [[nodiscard]] const std::vector<PlannedRow>& planned_rows() const {
        return planned_rows_;
    }

    [[nodiscard]] const ParallelCharacterizerConfig& config() const { return config_; }
    [[nodiscard]] const sim::CpuProfile& profile() const { return profile_; }

private:
    struct RowOutcome {
        FreqCharacterization row;
        std::uint64_t cells = 0;
        std::uint64_t crashes = 0;
        std::uint64_t retries = 0;
    };
    class Worker;

    [[nodiscard]] RowOutcome characterize_row(Worker& worker, RowSearch& search,
                                              std::size_t row_index, Megahertz f,
                                              std::uint64_t row_seed) const;

    /// One simulator context per configured worker.
    [[nodiscard]] std::vector<std::unique_ptr<Worker>> make_workers() const;

    /// Shared sweep core: `done` rows are adopted, fresh rows flow
    /// through `commit` (may be empty) before `progress`.  One worker
    /// runs rows on the calling thread; more shard them across a pool.
    [[nodiscard]] SafeStateMap run_rows(
        const FlatMap<std::uint64_t, resilience::RowRecord>& done,
        const std::function<void(const resilience::RowRecord&)>& commit,
        const std::function<void(const FreqCharacterization&)>& progress);

    /// Adaptive execution strategy: the injected planner drives probes
    /// sequentially on the calling thread (workers supply interchangeable
    /// simulator contexts, so results and the probe sequence are
    /// worker-count-independent), then rows are delivered in frequency
    /// order under the same commit-before-progress contract.
    [[nodiscard]] SafeStateMap run_adaptive(
        const FlatMap<std::uint64_t, resilience::RowRecord>& done,
        const std::function<void(const resilience::RowRecord&)>& commit,
        const std::function<void(const FreqCharacterization&)>& progress);

    sim::CpuProfile profile_;
    ParallelCharacterizerConfig config_;
    SweepStats stats_{};
    std::vector<ProbeLogEntry> probe_log_;
    std::vector<PlannedRow> planned_rows_;
};

}  // namespace pv::plugvolt
