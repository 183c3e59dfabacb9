// PlugVolt — fleet-scale characterization orchestrator.
//
// Characterizes every unit of a SiliconLot in one process and folds the
// per-unit SafeStateMaps into a PopulationEnvelope.  This is the first
// workload whose sharding axis is UNITS rather than frequency rows: with
// more than one worker the orchestrator owns a ThreadPool (one task per
// unit); with one it runs units in id order on the calling thread.  Each
// unit's ParallelCharacterizer has one worker, so it runs its row loop
// on whichever thread picked the unit up — no pool nested inside a pool.
//
// Warm starts: units finished earlier publish their row boundaries into
// a lock-guarded per-row aggregate; later units' row searches take the
// lot-neighbour mean boundary as their posterior prior.  Priors shrink
// probe counts only — results are prior-independent (see
// row_search.hpp and DESIGN §5h), so per-unit maps stay
// bit-identical to cold solo runs even though WHICH hints a unit saw
// depends on completion order.  That is the envelope's determinism
// story, and the fleet differential test enforces it cell-for-cell.
//
// Journaling: one shared SweepJournal holds every unit's rows, framed as
// row_index = unit_id * row_stride() + row (all units of a lot share one
// frequency table).  Rows commit BEFORE the per-unit progress callback,
// in unit order, so killing the process at any unit boundary and
// resuming yields an envelope bit-identical to an uninterrupted run —
// the fleet kill/resume soak's contract.  Partially journaled units are
// resumed at row granularity: adopted rows are never re-probed or
// re-committed.
#pragma once

#include <cstdint>
#include <functional>

#include "fleet/population_envelope.hpp"
#include "fleet/silicon_lot.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "resilience/journal.hpp"

namespace pv::fleet {

struct FleetConfig {
    /// Units to characterize: unit ids 0 .. units-1.
    std::uint64_t units = 1;
    /// Per-unit sweep protocol template.  `warm_start` must be left
    /// unset (the orchestrator owns it), and fleet units sweep with one
    /// worker whatever `workers` says (characterize_unit uses it); the
    /// per-unit sweep seed is derived as mix_seed(sweep.seed, unit_id).
    /// With mode == SweepMode::Adaptive and no planner set, the
    /// orchestrator attaches the src/infer planner.
    plugvolt::ParallelCharacterizerConfig sweep{};
    /// Fleet pool width (units in flight); 0 means
    /// ThreadPool::default_worker_count(), and 1 runs units on the
    /// calling thread with no pool.  Results are independent of this,
    /// like the row engine's worker count.
    unsigned workers = 0;
    /// Warm-start each unit from finished lot neighbours: their mean
    /// boundary steps are the row search's posterior priors in both fast
    /// modes (ignored in Exhaustive mode).
    bool warm_start = true;
    EnvelopeConfig envelope{};
};

/// Aggregate cost counters of one fleet run.
struct FleetStats {
    std::uint64_t units = 0;            ///< units delivered (adopted + characterized)
    std::uint64_t units_resumed = 0;    ///< units adopted whole from the journal
    std::uint64_t rows_resumed = 0;     ///< rows adopted from the journal
    std::uint64_t cells_evaluated = 0;  ///< cell probes actually run
    std::uint64_t crash_probes = 0;     ///< probes that ended in a crash-reboot
    std::uint64_t msr_retries = 0;      ///< faulted mailbox writes retried
    std::uint64_t env_faults = 0;       ///< environment faults injected
    std::uint64_t warm_rows = 0;        ///< rows that started from a neighbour hint
    std::uint64_t journal_commits = 0;  ///< row frames committed this run
    std::uint64_t journal_bytes = 0;    ///< bytes physically written this run
};

class FleetOrchestrator {
public:
    /// Throws ConfigError on an invalid FleetConfig (zero units, or a
    /// sweep template carrying warm_start).
    FleetOrchestrator(SiliconLot lot, FleetConfig config);

    /// Called on the characterize() caller's thread, in unit-id order,
    /// once per completed unit (after its rows are durable).
    using UnitProgress =
        std::function<void(std::uint64_t unit_id, const plugvolt::SafeStateMap& map)>;

    /// Characterize the whole fleet (no durability).
    [[nodiscard]] PopulationEnvelope characterize(const UnitProgress& progress = {});

    /// Journaled fleet run; adopts journaled rows, commits fresh rows
    /// write-ahead — on a journal recovered after a crash this IS the
    /// resume path.  Throws ConfigError when the journal's identity does
    /// not match config_hash(), JournalError when a row does not belong
    /// to this fleet.
    [[nodiscard]] PopulationEnvelope characterize(resilience::SweepJournal& journal,
                                                  const UnitProgress& progress = {});

    /// One unit characterized cold (no warm start, no fleet) — the
    /// reference the differential tests compare fleet maps against.
    [[nodiscard]] plugvolt::SafeStateMap characterize_unit(std::uint64_t unit_id) const;

    /// The exact per-unit sweep configuration unit `unit_id` runs under
    /// a cold solo characterization: the template with the unit-derived
    /// seed and no warm start.  Pair with
    /// lot().unit_profile(unit_id) to rebuild the reference sweep.
    [[nodiscard]] plugvolt::ParallelCharacterizerConfig unit_sweep_config(
        std::uint64_t unit_id) const;

    /// Rows per unit in the shared journal's global frame
    /// (= the lot's frequency-table size).
    [[nodiscard]] std::uint64_t row_stride() const { return stride_; }

    /// Fingerprint of everything that determines fleet RESULTS: the
    /// lot (base profile + jitter config), unit count, and the per-unit
    /// sweep protocol — NOT pool widths, warm_start, or the envelope
    /// statistics config (the journal stores raw rows, not envelopes).
    /// A fleet journal is SweepJournal::open(path, config_hash()).
    [[nodiscard]] std::uint64_t config_hash() const;

    /// Counters of the last characterize() call.
    [[nodiscard]] const FleetStats& stats() const { return stats_; }

    [[nodiscard]] const SiliconLot& lot() const { return lot_; }
    [[nodiscard]] const FleetConfig& config() const { return config_; }

private:
    class Aggregate;

    [[nodiscard]] PopulationEnvelope run_fleet(resilience::SweepJournal* journal,
                                               const UnitProgress& progress);

    SiliconLot lot_;
    FleetConfig config_;
    std::uint64_t stride_;
    FleetStats stats_{};
};

}  // namespace pv::fleet
