#include "plugvolt/parallel_characterizer.hpp"

#include <cmath>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/assert.hpp"
#include "util/flat_map.hpp"
#include "check/state_hasher.hpp"
#include "os/kernel.hpp"
#include "plugvolt/row_search.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pv::plugvolt {
namespace {

/// Salt mixed into the cell seed to derive the per-cell injector seed:
/// keeps the fault stream independent of the machine's own RNG stream.
constexpr std::uint64_t kFaultSeedTag = 0xFA'5EED;

/// Probe memos are dense tables indexed by offset step, one u64 per
/// cell: faults << 2 | crashed << 1 | 1 for a probed cell, 0 for an
/// unprobed one.
[[nodiscard]] std::uint64_t pack_cell(const CellResult& cell) {
    PV_ASSERT(cell.faults < (std::uint64_t{1} << 62),
              "fault count " << cell.faults << " overflows a probe memo entry");
    return cell.faults << 2 | (cell.crashed ? 2 : 0) | 1;
}

[[nodiscard]] CellResult unpack_cell(std::uint64_t entry) {
    return CellResult{entry >> 2, (entry & 2) != 0};
}

/// Frequency-order row delivery, shared by every execution strategy.
struct RowDelivery {
    SafeStateMap& map;
    SweepStats& stats;
    const std::function<void(const resilience::RowRecord&)>& commit;
    const std::function<void(const FreqCharacterization&)>& progress;

    /// A row adopted verbatim from the journal.
    void adopted(const resilience::RowRecord& rec) const {
        ++stats.rows_resumed;
        add(FreqCharacterization{
            .freq = Megahertz{rec.freq_mhz},
            .onset = Millivolts{rec.onset_mv},
            .crash = Millivolts{rec.crash_mv},
            .fault_free = rec.fault_free,
        });
    }

    /// A freshly computed row and its probe cost.  Committed BEFORE the
    /// progress callback: if the process dies anywhere past this point
    /// the row is already durable, which is what makes kill-at-any-point
    /// + resume == uninterrupted.
    void fresh(std::size_t i, const FreqCharacterization& row, std::uint64_t cells,
               std::uint64_t crashes) const {
        if (commit) {
            commit(resilience::RowRecord{
                .row_index = i,
                .freq_mhz = row.freq.value(),
                .onset_mv = row.onset.value(),
                .crash_mv = row.crash.value(),
                .fault_free = row.fault_free,
                .cells = cells,
                .crashes = crashes,
            });
            ++stats.journal_commits;
        }
        add(row);
    }

    void add(const FreqCharacterization& row) const {
        map.add(row);
        if (progress) progress(row);
    }
};

/// A row verdict in 1-based offset steps, as every execution strategy
/// reaches it, converted to the map's millivolt row.  `crash_step` past
/// the sweep means "no crash inside the sweep"; `onset_step` 0 means "no
/// faulting cell", and then a crashing column's onset is its crash cell
/// (faults and crash within one step).
FreqCharacterization row_from_steps(const Characterizer& chr, Megahertz f,
                                    std::uint64_t crash_step, std::uint64_t onset_step) {
    FreqCharacterization row{
        .freq = f,
        .onset = Millivolts{0.0},
        .crash = chr.no_crash_sentinel(),
        .fault_free = true,
    };
    const bool crashed = crash_step <= chr.sweep_steps();
    if (crashed) {
        row.crash = chr.offset_at_step(crash_step);
        row.fault_free = false;
    }
    if (onset_step != 0) {
        row.onset = chr.offset_at_step(onset_step);
        row.fault_free = false;
    } else if (crashed) {
        row.onset = row.crash;
    }
    return row;
}

}  // namespace

PlannedRow steps_from_row(const resilience::RowRecord& rec, const CharacterizerConfig& cell) {
    const double step_mv = cell.offset_step.value();
    const auto to_step = [step_mv](double offset_mv) {
        return static_cast<std::uint64_t>(std::llround(-offset_mv / step_mv));
    };
    PlannedRow row;
    row.crash_step = rec.crash_mv == (cell.sweep_floor - cell.offset_step).value()
                         ? sweep_steps(cell) + 1
                         : to_step(rec.crash_mv);
    row.onset_step = rec.fault_free || rec.onset_mv == 0.0 ? 0 : to_step(rec.onset_mv);
    return row;
}

const char* to_string(SweepMode mode) {
    switch (mode) {
        case SweepMode::Exhaustive: return "exhaustive";
        case SweepMode::Bisection: return "bisection";
        case SweepMode::Adaptive: return "adaptive";
    }
    return "?";
}

/// Per-worker simulator instance plus the per-row probe cache.  Owned by
/// exactly one thread at a time (a pool thread, or the calling thread of
/// a one-worker sweep); rows never share a Worker.
class ParallelCharacterizer::Worker {
public:
    Worker(const sim::CpuProfile& profile, const CharacterizerConfig& cell_config,
           std::uint64_t boot_seed,
           const std::optional<resilience::FaultPlan>& fault_plan)
        : context_(os::make_worker_context(profile, boot_seed)),
          characterizer_(*context_.kernel, cell_config) {
        if (fault_plan) {
            injector_.emplace(*fault_plan);
            context_.kernel->msr().set_fault_injector(&*injector_);
        }
    }

    /// Start a new frequency row: forget cached probes and the pinned-
    /// state snapshot (it belongs to the previous row's frequency).
    void begin_row(Megahertz f, std::uint64_t row_seed) {
        freq_ = f;
        row_seed_ = row_seed;
        memo_.assign(characterizer_.sweep_steps() + 1, 0);
        pinned_.reset();
        cells_ = 0;
        crashes_ = 0;
        retry_base_ = characterizer_.msr_retries();
    }

    /// Probe offset step `s` of the current row from a fresh boot with
    /// the cell's derived seed; memoized, so the row search and its walk
    /// never pay for (or re-randomize) a cell twice.
    ///
    /// The boot -> row-frequency pin draws no random numbers, so its
    /// trajectory is a pure function of the row frequency: the first
    /// probe simulates it once and snapshots the pinned machine; every
    /// later probe restores the snapshot and reseeds — bit-identical to
    /// reset + re-pin (the perfpath differential suite holds this to
    /// state-hash equality), at a fraction of the per-cell cost.
    [[nodiscard]] CellResult probe(std::uint64_t s) {
        PV_ASSERT(s >= 1 && s < memo_.size(), "cell probe of step " << s << " outside the row");
        if (const std::uint64_t entry = memo_[s]; entry != 0) return unpack_cell(entry);
        const std::uint64_t cell_seed = mix_seed(row_seed_, s);
        if (pinned_) {
            context_.machine->restore_snapshot(*pinned_, cell_seed);
        } else {
            context_.machine->reset(cell_seed);
            characterizer_.pin_frequency(freq_);
            pinned_.emplace(context_.machine->capture_snapshot());
        }
        if (injector_) {
            // The fault stream and stale-read history restart with the
            // cell, so which accesses fault is a pure function of
            // (plan, cell) — no cross-cell leakage via probe order.
            injector_->reseed(mix_seed(cell_seed, kFaultSeedTag));
            context_.kernel->msr().clear_stale_cache();
        }
        // Both branches above leave the machine pinned at freq_ with the
        // rail settled, so the cell can skip the per-cell cpupower pass.
        const CellResult cell =
            characterizer_.test_cell_pinned(freq_, characterizer_.offset_at_step(s));
        ++cells_;
        if (cell.crashed) ++crashes_;
        memo_[s] = pack_cell(cell);
        return cell;
    }

    [[nodiscard]] const Characterizer& characterizer() const { return characterizer_; }
    [[nodiscard]] std::uint64_t cells() const { return cells_; }
    [[nodiscard]] std::uint64_t crashes() const { return crashes_; }
    /// Mailbox retries absorbed during the current row.
    [[nodiscard]] std::uint64_t row_retries() const {
        return characterizer_.msr_retries() - retry_base_;
    }
    [[nodiscard]] std::uint64_t env_faults() const {
        return injector_ ? injector_->injected_total() : 0;
    }

private:
    os::WorkerContext context_;
    Characterizer characterizer_;
    std::optional<resilience::FaultInjector> injector_;
    Megahertz freq_{};
    std::uint64_t row_seed_ = 0;
    std::vector<std::uint64_t> memo_;  // pack_cell entries; begin_row keeps capacity
    std::optional<sim::Machine::Snapshot> pinned_;  // per-row pinned state
    std::uint64_t cells_ = 0;
    std::uint64_t crashes_ = 0;
    std::uint64_t retry_base_ = 0;
};

ParallelCharacterizer::ParallelCharacterizer(sim::CpuProfile profile,
                                             ParallelCharacterizerConfig config)
    : profile_(std::move(profile)), config_(std::move(config)) {
    if (config_.workers == 0) config_.workers = ThreadPool::default_worker_count();
    if (config_.refine_window == 0)
        throw ConfigError("refine_window must cover at least one step");
    if (config_.mode == SweepMode::Adaptive && !config_.planner)
        throw ConfigError(
            "Adaptive sweeps need an injected planner (src/infer provides one)");
    if (config_.mode != SweepMode::Adaptive && config_.planner)
        throw ConfigError("a planner is only meaningful in Adaptive mode");
    if (config_.fault_plan) config_.fault_plan->validate();
    // Validate the cell protocol eagerly (same checks a Characterizer
    // would apply) so misconfiguration surfaces here, not on a worker.
    sim::Machine probe_machine(profile_, /*seed=*/0);
    os::Kernel probe_kernel(probe_machine);
    (void)Characterizer(probe_kernel, config_.cell);
}

ParallelCharacterizer::RowOutcome ParallelCharacterizer::characterize_row(
    Worker& worker, RowSearch& search, std::size_t row_index, Megahertz f,
    std::uint64_t row_seed) const {
    worker.begin_row(f, row_seed);
    const Characterizer& chr = worker.characterizer();
    const auto outcome = [&](std::uint64_t crash_step, std::uint64_t onset_step) {
        return RowOutcome{row_from_steps(chr, f, crash_step, onset_step), worker.cells(),
                          worker.crashes(), worker.row_retries()};
    };

    if (config_.mode == SweepMode::Exhaustive) {
        // The paper's scan, with per-cell boot-fresh state: walk deeper
        // until faults appear, keep walking until the machine dies.
        const std::uint64_t steps = chr.sweep_steps();
        std::uint64_t s_onset = 0;
        for (std::uint64_t s = 1; s <= steps; ++s) {
            const CellResult cell = worker.probe(s);
            if (cell.crashed) return outcome(s, s_onset);
            if (cell.faults > 0 && s_onset == 0) s_onset = s;
        }
        return outcome(steps + 1, s_onset);
    }

    // Bisection: the row search with every row anchored and a zero
    // reboot cost; a fleet's lot-neighbour boundaries are its prior.
    RowWarmStart prior;
    if (config_.warm_start) {
        if (const auto hint = config_.warm_start(row_index)) prior = *hint;
    }
    const PlannedRow planned = search.solve(
        config_.seed, row_index, prior, [&worker](std::uint64_t s) { return worker.probe(s); });
    return outcome(planned.crash_step, planned.onset_step);
}

std::uint64_t ParallelCharacterizer::config_hash() const {
    check::StateHasher h;
    h.mix(std::string_view(profile_.name));
    const std::vector<Megahertz> table = profile_.frequency_table();
    h.mix(static_cast<std::uint64_t>(table.size()));
    for (const Megahertz f : table) h.mix(f.value());
    h.mix(config_.cell.sweep_floor.value());
    h.mix(config_.cell.offset_step.value());
    h.mix(config_.cell.ops_per_cell);
    h.mix(static_cast<std::uint64_t>(config_.cell.dvfs_core));
    h.mix(static_cast<std::uint64_t>(config_.cell.execute_core));
    h.mix(static_cast<std::uint64_t>(config_.cell.instr_class));
    h.mix(config_.cell.die_preheat_c);
    h.mix(static_cast<std::uint64_t>(config_.cell.retry.max_attempts));
    h.mix(static_cast<std::uint64_t>(config_.cell.retry.base_delay.value()));
    h.mix(config_.cell.retry.multiplier);
    h.mix(static_cast<std::uint64_t>(config_.cell.retry.max_delay.value()));
    h.mix(config_.cell.retry.jitter);
    h.mix(config_.seed);
    h.mix(static_cast<std::uint64_t>(config_.mode));
    h.mix(config_.refine_window);
    h.mix(config_.fault_plan.has_value());
    if (config_.fault_plan) {
        h.mix(config_.fault_plan->seed);
        for (const double r : config_.fault_plan->rates) h.mix(r);
    }
    return h.digest();
}

SafeStateMap ParallelCharacterizer::characterize(
    const std::function<void(const FreqCharacterization&)>& progress) {
    return characterize_with({}, {}, progress);
}

SafeStateMap ParallelCharacterizer::characterize(
    resilience::SweepJournal& journal,
    const std::function<void(const FreqCharacterization&)>& progress) {
    resilience::require_identity(journal.identity(),
                                 {resilience::SweepJournal::kFormat, config_hash()},
                                 "sweep journal");
    // Rows already durable in the journal are adopted, not re-probed.
    const std::uint64_t bytes_base = journal.bytes_written();
    SafeStateMap map = characterize_with(
        journal.rows(),
        [&journal](const resilience::RowRecord& rec) { journal.commit(rec); }, progress);
    stats_.journal_bytes = journal.bytes_written() - bytes_base;
    return map;
}

SafeStateMap ParallelCharacterizer::characterize_with(
    const std::vector<resilience::RowRecord>& adopted,
    const std::function<void(const resilience::RowRecord&)>& commit,
    const std::function<void(const FreqCharacterization&)>& progress) {
    const std::vector<Megahertz> table = profile_.frequency_table();
    // FlatMap, not unordered_map: this path feeds the replay fingerprint,
    // and flat iteration order is canonical (pv-lint determinism-unordered).
    FlatMap<std::uint64_t, resilience::RowRecord> done;
    for (const resilience::RowRecord& rec : adopted) {
        if (rec.row_index >= table.size() ||
            rec.freq_mhz != table[rec.row_index].value())
            throw JournalError("adopted row " + std::to_string(rec.row_index) +
                               " does not match the frequency table");
        done.emplace(rec.row_index, rec);
    }
    return run_rows(done, commit, progress);
}

std::vector<std::unique_ptr<ParallelCharacterizer::Worker>>
ParallelCharacterizer::make_workers() const {
    // One simulator per worker, all from the same profile; the boot seed
    // is irrelevant to results (every probe re-seeds) but kept distinct
    // for hygiene.
    std::vector<std::unique_ptr<Worker>> workers;
    workers.reserve(config_.workers);
    for (unsigned w = 0; w < config_.workers; ++w)
        workers.push_back(std::make_unique<Worker>(profile_, config_.cell,
                                                   mix_seed(config_.seed, 1'000'000 + w),
                                                   config_.fault_plan));
    return workers;
}

SafeStateMap ParallelCharacterizer::run_rows(
    const FlatMap<std::uint64_t, resilience::RowRecord>& done,
    const std::function<void(const resilience::RowRecord&)>& commit,
    const std::function<void(const FreqCharacterization&)>& progress) {
    if (config_.mode == SweepMode::Adaptive) return run_adaptive(done, commit, progress);
    const std::vector<Megahertz> table = profile_.frequency_table();
    stats_ = {};
    planned_rows_.clear();  // a planner verdict only exists for Adaptive sweeps

    // Declared before the pool so that on any unwind the pool joins
    // (draining queued rows) before a Worker dies.
    const std::vector<std::unique_ptr<Worker>> workers = make_workers();
    // One row search per worker: a search reuses its buffers row to row.
    std::vector<RowSearch> searches(
        workers.size(), RowSearch(workers[0]->characterizer().sweep_steps(),
                                  config_.refine_window, AcquisitionConfig{.reboot_cost = 0.0}));

    // One worker: no pool — each fresh row is computed lazily on the
    // calling thread right where the pooled path would block on its
    // future.  Same rows, same seeds, same delivery order.
    const bool serial = config_.workers == 1;
    std::optional<ThreadPool> pool;
    std::vector<std::future<RowOutcome>> futures;
    if (!serial) {
        pool.emplace(config_.workers);
        futures.resize(table.size());
        // Futures stay positional (index == row); adopted rows leave
        // theirs invalid.  Collection below walks rows in frequency order.
        for (std::size_t i = 0; i < table.size(); ++i) {
            if (done.contains(i)) continue;
            const Megahertz f = table[i];
            const std::uint64_t row_seed = mix_seed(config_.seed, i);
            futures[i] = pool->submit([this, &workers, &searches, i, f, row_seed] {
                // The workers and searches vectors are shared across threads
                // but strictly partitioned by worker index: each pool thread
                // only ever touches its own Worker and RowSearch, so no lock
                // is needed — the index bound is the invariant that
                // partitioning rests on.
                const int w = ThreadPool::current_worker_index();
                PV_ASSERT(w >= 0 && static_cast<std::size_t>(w) < workers.size(),
                          "row task ran outside the pool: worker index " << w << " of "
                                                                         << workers.size());
                const auto slot = static_cast<std::size_t>(w);
                return characterize_row(*workers[slot], searches[slot], i, f, row_seed);
            });
        }
    }

    SafeStateMap map(profile_.name, config_.cell.sweep_floor);
    const RowDelivery deliver{map, stats_, commit, progress};
    for (std::size_t i = 0; i < table.size(); ++i) {
        ++stats_.rows;
        if (const auto it = done.find(i); it != done.end()) {
            deliver.adopted(it->second);
            continue;
        }
        RowOutcome outcome =
            serial ? characterize_row(*workers[0], searches[0], i, table[i],
                                      mix_seed(config_.seed, i))
                   : futures[i].get();  // rethrows worker exceptions
        stats_.cells_evaluated += outcome.cells;
        stats_.crash_probes += outcome.crashes;
        stats_.msr_retries += outcome.retries;
        deliver.fresh(i, outcome.row, outcome.cells, outcome.crashes);
    }
    for (const auto& worker : workers) stats_.env_faults += worker->env_faults();
    return map;
}

SafeStateMap ParallelCharacterizer::run_adaptive(
    const FlatMap<std::uint64_t, resilience::RowRecord>& done,
    const std::function<void(const resilience::RowRecord&)>& commit,
    const std::function<void(const FreqCharacterization&)>& progress) {
    const std::vector<Megahertz> table = profile_.frequency_table();
    stats_ = {};
    probe_log_.clear();

    // The planner itself is sequential; workers are interchangeable
    // simulator contexts (every probe reseeds from the cell seed), so
    // results AND the probe sequence are worker-count-independent — the
    // acquisition-determinism PROP test pins that down.
    const std::vector<std::unique_ptr<Worker>> workers = make_workers();

    const Characterizer& chr = workers[0]->characterizer();
    const std::uint64_t steps = chr.sweep_steps();

    AdaptiveContext ctx;
    ctx.rows = table.size();
    ctx.steps = steps;
    ctx.seed = config_.seed;
    ctx.refine_window = config_.refine_window;
    ctx.warm_start = config_.warm_start;
    ctx.adopted.assign(table.size(), std::nullopt);
    for (const auto& [i, rec] : done) {
        // Back to the planner's step coordinates.  A journal only records
        // boundary millivolts; onset == crash collapses to the same
        // effective encoding the planner's interpolation logic uses, so
        // replanning from adopted rows reproduces the uninterrupted plan.
        PlannedRow adopted = steps_from_row(rec, config_.cell);
        adopted.anchored = rec.cells > 0;  // cells == 0 marks interpolated rows
        ctx.adopted[i] = adopted;
    }

    // Engine-level probe memo: the per-worker caches are row-scoped (and
    // reset when a worker switches rows), but the planner's certificate
    // logic may revisit a (row, step) pair at any point; every pair is
    // probed and logged at most once per sweep.  One dense table per row,
    // allocated when the planner first probes that row.
    std::vector<std::vector<std::uint64_t>> memo(table.size());
    std::vector<std::size_t> worker_row(workers.size(), table.size());
    const CellProbeFn probe = [&](std::size_t row, std::uint64_t step) -> CellResult {
        PV_ASSERT(row < table.size() && step >= 1 && step <= steps,
                  "adaptive probe out of range: row " << row << " step " << step);
        std::vector<std::uint64_t>& row_memo = memo[row];
        if (row_memo.empty()) row_memo.assign(steps + 1, 0);
        if (const std::uint64_t entry = row_memo[step]; entry != 0) return unpack_cell(entry);
        const std::size_t w = row % workers.size();
        if (worker_row[w] != row) {
            workers[w]->begin_row(table[row], mix_seed(config_.seed, row));
            worker_row[w] = row;
        }
        const CellResult cell = workers[w]->probe(step);
        probe_log_.push_back({row, step, cell.faults, cell.crashed});
        // Stamped with the selection ordinal, not machine time: the
        // planner runs outside any single machine's virtual clock, and
        // the ordinal is just as deterministic.
        PV_TRACE_EVENT(trace::EventKind::ProbeSelected, "adaptive-probe",
                       static_cast<std::int64_t>(probe_log_.size()), row, step);
        row_memo[step] = pack_cell(cell);
        return cell;
    };

    const std::vector<PlannedRow> plan = config_.planner(ctx, probe);
    if (plan.size() != table.size())
        throw ConfigError("adaptive planner returned " + std::to_string(plan.size()) +
                          " rows for a " + std::to_string(table.size()) + "-row table");

    // Surface the merged verdict (adopted rows keep their journaled
    // provenance, fresh rows take the planner's) for the serving layer's
    // uncertainty-aware guard bands.
    planned_rows_.resize(table.size());
    for (std::size_t i = 0; i < table.size(); ++i)
        planned_rows_[i] = ctx.adopted[i] ? *ctx.adopted[i] : plan[i];

    std::vector<std::uint64_t> row_cells(table.size(), 0);
    std::vector<std::uint64_t> row_crashes(table.size(), 0);
    for (const ProbeLogEntry& entry : probe_log_) {
        ++row_cells[entry.row];
        if (entry.crashed) ++row_crashes[entry.row];
    }

    SafeStateMap map(profile_.name, config_.cell.sweep_floor);
    const RowDelivery deliver{map, stats_, commit, progress};
    for (std::size_t i = 0; i < table.size(); ++i) {
        ++stats_.rows;
        if (const auto it = done.find(i); it != done.end()) {
            deliver.adopted(it->second);
            continue;
        }
        const PlannedRow& planned = plan[i];
        if (planned.crash_step < 1 || planned.crash_step > steps + 1 ||
            planned.onset_step > steps ||
            (planned.onset_step != 0 && planned.onset_step > planned.crash_step))
            throw ConfigError("adaptive planner returned an invalid verdict for row " +
                              std::to_string(i));
        if (row_cells[i] == 0) ++stats_.rows_interpolated;
        // cells == 0 doubles as the interpolated-row marker a resumed
        // plan reads back through ctx.adopted.
        deliver.fresh(i,
                      row_from_steps(chr, table[i], planned.crash_step, planned.onset_step),
                      row_cells[i], row_crashes[i]);
    }
    stats_.cells_evaluated = probe_log_.size();
    for (const ProbeLogEntry& entry : probe_log_)
        if (entry.crashed) ++stats_.crash_probes;
    for (const auto& worker : workers) {
        stats_.env_faults += worker->env_faults();
        stats_.msr_retries += worker->characterizer().msr_retries();
    }
    return map;
}

}  // namespace pv::plugvolt
