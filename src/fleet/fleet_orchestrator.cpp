#include "fleet/fleet_orchestrator.hpp"

#include <future>
#include <string>
#include <utility>
#include <vector>

#include "check/state_hasher.hpp"
#include "infer/adaptive_planner.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pv::fleet {

/// Lock-guarded per-row boundary aggregate the warm starts draw from.
/// Finished units fold their row boundaries in (as offset STEPS, the row
/// search's coordinate); later units' row searches take the running mean
/// of their lot neighbours as a prior.  Folds and reads race benignly
/// across unit tasks: WHICH priors a unit sees depends on completion
/// order, but priors only move probes (row_search.hpp), so every
/// downstream result stays order-independent.
class FleetOrchestrator::Aggregate {
public:
    Aggregate(std::size_t rows, const plugvolt::CharacterizerConfig& cell)
        : cell_(cell), steps_(plugvolt::sweep_steps(cell)), rows_(rows) {}

    /// Fold one completed row (local index) into the running means.
    /// Columns that never crashed and fault-free rows contribute nothing
    /// to that boundary — a prior must point at a real boundary.
    void fold(const resilience::RowRecord& rec) {
        const plugvolt::PlannedRow row = plugvolt::steps_from_row(rec, cell_);
        MutexLock lock(mutex_);
        RowSum& sum = rows_[rec.row_index];
        if (row.crash_step <= steps_) {
            sum.crash_steps += row.crash_step;
            ++sum.crash_units;
        }
        if (row.onset_step != 0) {
            sum.onset_steps += row.onset_step;
            ++sum.onset_units;
        }
    }

    [[nodiscard]] std::optional<plugvolt::RowWarmStart> hint(std::size_t row) {
        MutexLock lock(mutex_);
        const RowSum& sum = rows_[row];
        plugvolt::RowWarmStart h;
        if (sum.crash_units != 0)
            h.crash_step = (sum.crash_steps + sum.crash_units / 2) / sum.crash_units;
        if (sum.onset_units != 0)
            h.onset_step = (sum.onset_steps + sum.onset_units / 2) / sum.onset_units;
        if (h.crash_step == 0 && h.onset_step == 0) return std::nullopt;
        ++hints_served_;
        return h;
    }

    [[nodiscard]] std::uint64_t hints_served() {
        MutexLock lock(mutex_);
        return hints_served_;
    }

private:
    struct RowSum {
        std::uint64_t crash_steps = 0;
        std::uint64_t crash_units = 0;
        std::uint64_t onset_steps = 0;
        std::uint64_t onset_units = 0;
    };

    const plugvolt::CharacterizerConfig cell_;
    const std::uint64_t steps_;
    Mutex mutex_;
    std::vector<RowSum> rows_ PV_GUARDED_BY(mutex_);
    std::uint64_t hints_served_ PV_GUARDED_BY(mutex_) = 0;
};

FleetOrchestrator::FleetOrchestrator(SiliconLot lot, FleetConfig config)
    : lot_(std::move(lot)), config_(std::move(config)) {
    if (config_.units == 0) throw ConfigError("a fleet needs at least one unit");
    if (config_.sweep.warm_start)
        throw ConfigError("the fleet orchestrator owns warm_start; leave it unset");
    if (config_.workers == 0) config_.workers = ThreadPool::default_worker_count();
    // Adaptive per-unit sweeps default to the infer planner.  In both
    // fast modes the lot-neighbour onset/crash means are priors of the
    // row search (they move probes only, so per-unit maps stay
    // bit-identical to cold solo runs — the fleet differentials'
    // contract).  A caller-supplied planner is kept as-is.
    if (config_.sweep.mode == plugvolt::SweepMode::Adaptive && !config_.sweep.planner)
        config_.sweep.planner = infer::adaptive_planner();
    stride_ = lot_.base().frequency_table().size();
    if (stride_ == 0) throw ConfigError("the lot's frequency table is empty");
    // Validate the per-unit protocol (and unit 0's jittered profile)
    // eagerly so misconfiguration surfaces here, not on a pool thread.
    (void)plugvolt::ParallelCharacterizer(lot_.unit_profile(0), unit_sweep_config(0));
}

plugvolt::ParallelCharacterizerConfig FleetOrchestrator::unit_sweep_config(
    std::uint64_t unit_id) const {
    plugvolt::ParallelCharacterizerConfig cfg = config_.sweep;
    cfg.seed = mix_seed(config_.sweep.seed, unit_id);
    return cfg;
}

std::uint64_t FleetOrchestrator::config_hash() const {
    check::StateHasher h;
    h.mix(lot_.config_hash());
    h.mix(config_.units);
    // The per-unit protocol fingerprint, taken through unit 0's sweep:
    // covers the cell protocol, mode, refine window, fault plan, and the
    // unit-seed derivation (warm_start and worker counts excluded by the
    // row engine's own contract).
    const plugvolt::ParallelCharacterizer probe(lot_.unit_profile(0),
                                               unit_sweep_config(0));
    h.mix(probe.config_hash());
    return h.digest();
}

plugvolt::SafeStateMap FleetOrchestrator::characterize_unit(std::uint64_t unit_id) const {
    plugvolt::ParallelCharacterizer sweeper(lot_.unit_profile(unit_id),
                                            unit_sweep_config(unit_id));
    return sweeper.characterize();
}

PopulationEnvelope FleetOrchestrator::characterize(const UnitProgress& progress) {
    return run_fleet(nullptr, progress);
}

PopulationEnvelope FleetOrchestrator::characterize(resilience::SweepJournal& journal,
                                                   const UnitProgress& progress) {
    return run_fleet(&journal, progress);
}

PopulationEnvelope FleetOrchestrator::run_fleet(resilience::SweepJournal* journal,
                                                const UnitProgress& progress) {
    stats_ = {};
    const std::uint64_t units = config_.units;

    // Journaled rows, re-framed from the global unit*stride + row index
    // to each unit's local row index (characterize_with validates them
    // against the frequency table from there).
    std::vector<std::vector<resilience::RowRecord>> adopted(units);
    std::uint64_t journal_bytes_base = 0;
    if (journal != nullptr) {
        resilience::require_identity(
            journal->identity(), {resilience::SweepJournal::kFormat, config_hash()},
            "fleet journal");
        journal_bytes_base = journal->bytes_written();
        for (const resilience::RowRecord& rec : journal->rows()) {
            const std::uint64_t unit = rec.row_index / stride_;
            if (unit >= units)
                throw JournalError("journal row " + std::to_string(rec.row_index) +
                                   " is beyond this fleet's " + std::to_string(units) +
                                   " units");
            resilience::RowRecord local = rec;
            local.row_index = rec.row_index % stride_;
            adopted[unit].push_back(local);
        }
    }

    Aggregate aggregate(stride_, config_.sweep.cell);
    plugvolt::WarmStartFn hint_fn;
    if (config_.warm_start) {
        // Adopted rows are finished results: seed the hint pool with
        // them before any unit starts.
        for (const std::vector<resilience::RowRecord>& unit_rows : adopted)
            for (const resilience::RowRecord& rec : unit_rows) aggregate.fold(rec);
        hint_fn = [&aggregate](std::size_t row) { return aggregate.hint(row); };
    }

    struct UnitOutcome {
        plugvolt::SafeStateMap map;
        std::vector<resilience::RowRecord> fresh;
        plugvolt::SweepStats sweep;
    };

    // Each unit's row loop runs on one thread (its sweep has one worker,
    // so no pool nests inside the fleet's).  Units are delivered in id
    // order, which is the journaling and progress order.
    const auto run_unit = [this, &adopted, &aggregate, &hint_fn](std::uint64_t u) {
        plugvolt::ParallelCharacterizerConfig cfg = unit_sweep_config(u);
        cfg.workers = 1;
        cfg.warm_start = hint_fn;
        plugvolt::ParallelCharacterizer sweeper(lot_.unit_profile(u), cfg);
        std::vector<resilience::RowRecord> fresh;
        plugvolt::SafeStateMap map = sweeper.characterize_with(
            adopted[u], [&fresh](const resilience::RowRecord& rec) { fresh.push_back(rec); });
        if (config_.warm_start)
            for (const resilience::RowRecord& rec : fresh) aggregate.fold(rec);
        return UnitOutcome{std::move(map), std::move(fresh), sweeper.stats()};
    };

    PopulationEnvelope envelope(config_.envelope);
    const auto deliver = [&](std::uint64_t u, const UnitOutcome& outcome) {
        ++stats_.units;
        if (outcome.fresh.empty() && !adopted[u].empty()) ++stats_.units_resumed;
        stats_.rows_resumed += outcome.sweep.rows_resumed;
        stats_.cells_evaluated += outcome.sweep.cells_evaluated;
        stats_.crash_probes += outcome.sweep.crash_probes;
        stats_.msr_retries += outcome.sweep.msr_retries;
        stats_.env_faults += outcome.sweep.env_faults;
        if (journal != nullptr) {
            // Commit the unit's fresh rows (re-framed to global indices)
            // BEFORE the progress callback: a kill at any unit boundary
            // leaves every delivered unit durable, which is what makes
            // kill + resume == uninterrupted at fleet granularity.
            for (resilience::RowRecord rec : outcome.fresh) {
                rec.row_index = u * stride_ + rec.row_index;
                journal->commit(rec);
                ++stats_.journal_commits;
            }
        }
        envelope.add(u, outcome.map);
        if (progress) progress(u, outcome.map);
    };

    if (config_.workers == 1) {
        // One unit in flight: run each on the calling thread, no pool.
        for (std::uint64_t u = 0; u < units; ++u) deliver(u, run_unit(u));
    } else {
        // One task per unit.  The futures stay positional (index == unit
        // id); collection walks units in id order.
        ThreadPool pool(config_.workers);
        std::vector<std::future<UnitOutcome>> futures(units);
        for (std::uint64_t u = 0; u < units; ++u)
            futures[u] = pool.submit([&run_unit, u] { return run_unit(u); });
        for (std::uint64_t u = 0; u < units; ++u)
            deliver(u, futures[u].get());  // rethrows task exceptions
    }
    stats_.warm_rows = aggregate.hints_served();
    if (journal != nullptr)
        stats_.journal_bytes = journal->bytes_written() - journal_bytes_base;
    return envelope;
}

}  // namespace pv::fleet
