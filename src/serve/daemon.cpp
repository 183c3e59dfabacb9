#include "serve/daemon.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/report.hpp"
#include "check/state_hasher.hpp"
#include "fleet/fleet_orchestrator.hpp"
#include "fleet/silicon_lot.hpp"
#include "infer/adaptive_planner.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "resilience/journal.hpp"
#include "serve/guard_band.hpp"
#include "sim/cpu_profile.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pv::serve {
namespace {

/// Seed tags (disjoint from the campaign engine's 0xC0DE'0001..4).
constexpr std::uint64_t kJobBackoffTag = 0xC0DE'0005;
constexpr std::uint64_t kLotSeedTag = 0xC0DE'0006;

/// The watchdog's cancellation signal.  Deliberately NOT a
/// std::exception: the job retry loop must not swallow it, and the
/// kill signals the soak tests throw from the progress hook pass
/// through the same way.
struct QuarantineSignal {
    std::uint64_t units = 0;
    std::uint64_t deadline = 0;
};

void validate_spec(const JobSpec& spec) {
    if (spec.profile_index >= sim::paper_profiles().size())
        throw ConfigError("job profile_index " + std::to_string(spec.profile_index) +
                          " outside sim::paper_profiles()");
    if (!(spec.char_step_mv > 0.0))
        throw ConfigError("job char_step_mv must be positive");
    if (spec.sweep_mode > static_cast<std::uint8_t>(plugvolt::SweepMode::Adaptive))
        throw ConfigError("unknown sweep mode " + std::to_string(spec.sweep_mode));
    if (spec.kind == JobKind::Fleet && spec.units == 0)
        throw ConfigError("fleet job needs at least one unit");
}

std::uint64_t daemon_config_hash(const DaemonConfig& config) {
    check::StateHasher h;
    h.mix(static_cast<std::uint64_t>(1));  // serve config-hash version
    h.mix(static_cast<std::uint64_t>(config.max_queue_depth));
    h.mix(static_cast<std::uint64_t>(config.job_retry.max_attempts));
    h.mix(config.job_retry.base_delay.value());
    h.mix(config.job_retry.multiplier);
    h.mix(config.job_retry.max_delay.value());
    h.mix(config.job_retry.jitter);
    h.mix(config.guard.value());
    h.mix(config.fault_plan.has_value());
    if (config.fault_plan) {
        h.mix(config.fault_plan->seed);
        for (const double rate : config.fault_plan->rates) h.mix(rate);
    }
    return h.digest();
}

JobWal open_wal(const DaemonConfig& config, std::uint64_t config_hash) {
    std::filesystem::create_directories(config.state_dir);
    return JobWal::open(config.state_dir + "/daemon.wal", config_hash, config.journal);
}

sim::CpuProfile profile_for(const JobSpec& spec) {
    return sim::paper_profiles()[spec.profile_index];
}

/// Serving-tier campaign tuning: jobs are queue units, not the
/// publication-scale run (campaign_demo keeps that role).
campaign::AttackTuning job_tuning() {
    campaign::AttackTuning tuning;
    tuning.scan_step = Millivolts{8.0};
    tuning.probe_ops = 20'000;
    tuning.runs_per_offset = 8;
    return tuning;
}

std::string format_mv(Millivolts mv) { return std::to_string(mv.value()) + " mV"; }

}  // namespace

const char* to_string(DvfsDecision decision) {
    switch (decision) {
        case DvfsDecision::Granted: return "granted";
        case DvfsDecision::Clamped: return "clamped";
        case DvfsDecision::Denied: return "DENIED";
    }
    return "?";
}

CampaignDaemon::CampaignDaemon(DaemonConfig config)
    : config_(std::move(config)),
      config_hash_((config_.job_retry.validate(),
                    config_.fault_plan ? config_.fault_plan->validate() : void(),
                    daemon_config_hash(config_))),
      wal_(open_wal(config_, config_hash_)) {
    if (config_.max_queue_depth == 0)
        throw ConfigError("daemon queue depth must be at least 1");
    resume_queue(wal_.records());
    rehydrate_serving_state();
}

std::string CampaignDaemon::job_journal_path(std::uint64_t id, const char* ext) const {
    return config_.state_dir + "/job-" + std::to_string(id) + ext;
}

void CampaignDaemon::resume_queue(const std::vector<JobRecord>& records) {
    // Ctor-only: no concurrent access yet (constructors are exempt from
    // the thread-safety analysis for the same reason).
    for (const JobRecord& record : records) {
        jobs_[record.id] = record;
        switch (record.state) {
            case JobState::Queued:
                // Includes jobs killed mid-execution (started frame with
                // no finished frame): re-run, adopting the engine journal.
                queue_.push_back(record.id);
                break;
            case JobState::Rejected:
                jobs_[record.id].detail = "queue full";
                ++stats_.jobs_resumed;
                break;
            default:
                ++stats_.jobs_resumed;
                break;
        }
    }
}

void CampaignDaemon::rehydrate_serving_state() {
    // Serving state is not journaled separately — it is re-derived from
    // the LAST completed characterize/fleet job's engine journal (all
    // rows adopted: zero probes) and cross-checked against the WAL's
    // fingerprint.  Any mismatch or unreadable journal drops the state:
    // the daemon then serves Denied until a fresh job completes — fail
    // closed, never from unverified data.
    const JobRecord* last_map = nullptr;
    const JobRecord* last_fleet = nullptr;
    for (const auto& [id, record] : jobs_) {
        if (record.state != JobState::Completed) continue;
        if (record.spec.kind == JobKind::Characterize) last_map = &record;
        if (record.spec.kind == JobKind::Fleet) last_fleet = &record;
    }
    if (last_map != nullptr) {
        try {
            ExecOutcome out = execute_characterize(*last_map);
            if (out.fingerprint == last_map->result_fingerprint && out.commit_map)
                committed_map_ = std::move(out.commit_map);
            else
                ++stats_.rehydration_drops;
        } catch (const std::exception&) {
            ++stats_.rehydration_drops;
        }
    }
    if (last_fleet != nullptr) {
        try {
            ExecOutcome out = execute_fleet(*last_fleet);
            if (out.fingerprint == last_fleet->result_fingerprint && out.commit_envelope)
                committed_envelope_ = std::move(out.commit_envelope);
            else
                ++stats_.rehydration_drops;
        } catch (const std::exception&) {
            ++stats_.rehydration_drops;
        }
    }
}

std::uint64_t CampaignDaemon::submit(const JobSpec& spec) {
    validate_spec(spec);
    MutexLock lock(mutex_);
    const std::uint64_t id = wal_.next_id();
    // Write-ahead: the submit (and a rejection) is durable before any
    // in-memory state changes, so a replayed submit stream reproduces
    // the same ids, the same queue, and the same rejections.
    wal_.submitted(id, spec);
    JobRecord record;
    record.id = id;
    record.spec = spec;
    ++stats_.jobs_submitted;
    if (queue_.size() >= config_.max_queue_depth) {
        wal_.rejected(id);
        record.state = JobState::Rejected;
        record.detail = "queue full";
        ++stats_.jobs_rejected;
        jobs_[id] = std::move(record);
        return id;
    }
    jobs_[id] = std::move(record);
    queue_.push_back(id);
    return id;
}

bool CampaignDaemon::step() {
    JobRecord job;
    {
        MutexLock lock(mutex_);
        if (queue_.empty()) return false;
        const std::uint64_t id = queue_.front();
        queue_.erase(queue_.begin());
        JobRecord& record = jobs_.at(id);
        record.state = JobState::Running;
        job = record;  // snapshot carries WAL-fast-forwarded attempts
    }

    std::uint64_t backoff_ps = 0;
    while (true) {
        {
            MutexLock lock(mutex_);
            wal_.started(job.id);
        }
        try {
            if (job.attempts < job.spec.inject_fail_attempts)
                throw std::runtime_error("injected job failure (execution " +
                                         std::to_string(job.attempts) + ")");
            ExecOutcome out = execute(job);
            MutexLock lock(mutex_);
            JobRecord& record = jobs_.at(job.id);
            record.state = JobState::Completed;
            record.attempts = job.attempts + 1;
            record.result_fingerprint = out.fingerprint;
            record.progress_units = out.units;
            record.detail = std::move(out.detail);
            record.metrics = std::move(out.metrics);
            record.metrics.set_counter("job.units", out.units);
            record.metrics.set_counter("job.attempts_failed", job.attempts);
            record.metrics.set_counter("job.backoff_ps", backoff_ps);
            wal_.finished(record);
            if (out.commit_map) committed_map_ = std::move(out.commit_map);
            if (out.commit_envelope) committed_envelope_ = std::move(out.commit_envelope);
            ++stats_.jobs_completed;
            return true;
        } catch (const QuarantineSignal& signal) {
            MutexLock lock(mutex_);
            JobRecord& record = jobs_.at(job.id);
            record.state = JobState::Quarantined;
            record.attempts = job.attempts + 1;
            record.detail = "work-unit deadline exceeded (" +
                            std::to_string(signal.units) + " units > budget " +
                            std::to_string(signal.deadline) + ")";
            wal_.finished(record);
            ++stats_.jobs_quarantined;
            return true;
        } catch (const std::exception& error) {
            // One failed execution.  Journal it (so a resumed daemon
            // re-enters the loop at the same execution index), then
            // either retry with deterministic virtual backoff or give
            // the job its terminal Failed verdict.  Anything that is
            // not a std::exception (kill signals in the soak tests)
            // deliberately propagates.
            ++job.attempts;
            MutexLock lock(mutex_);
            JobRecord& record = jobs_.at(job.id);
            record.attempts = job.attempts;
            wal_.attempt_failed(job.id, job.attempts);
            ++stats_.job_attempts_failed;
            if (job.attempts >= config_.job_retry.max_attempts) {
                record.state = JobState::Failed;
                record.detail = error.what();
                wal_.finished(record);
                ++stats_.jobs_failed;
                return true;
            }
            backoff_ps += static_cast<std::uint64_t>(
                config_.job_retry
                    .backoff(job.attempts - 1, mix_seed(job.spec.seed, kJobBackoffTag))
                    .value());
        }
    }
}

void CampaignDaemon::run_until_idle() {
    while (step()) {
    }
}

void CampaignDaemon::unit_delivered(std::uint64_t id, std::uint64_t units_done,
                                    std::uint64_t deadline) {
    JobRecord snapshot;
    {
        MutexLock lock(mutex_);
        JobRecord& record = jobs_.at(id);
        record.progress_units = units_done;
        snapshot = record;
    }
    // Cooperative watchdog: the unit just delivered is already durable
    // in the job's engine journal; over-budget jobs are cancelled here,
    // at the unit boundary, never mid-probe.
    if (deadline != 0 && units_done > deadline)
        throw QuarantineSignal{units_done, deadline};
    if (hook_) hook_(snapshot, units_done);
}

CampaignDaemon::ExecOutcome CampaignDaemon::execute(const JobRecord& job) {
    switch (job.spec.kind) {
        case JobKind::Characterize: return execute_characterize(job);
        case JobKind::Campaign: return execute_campaign(job);
        case JobKind::Fleet: return execute_fleet(job);
    }
    throw ConfigError("unknown job kind");
}

CampaignDaemon::ExecOutcome CampaignDaemon::execute_characterize(const JobRecord& job) {
    const JobSpec& spec = job.spec;
    plugvolt::ParallelCharacterizerConfig cfg;
    cfg.cell.offset_step = Millivolts{spec.char_step_mv};
    cfg.workers = config_.workers;
    cfg.mode = static_cast<plugvolt::SweepMode>(spec.sweep_mode);
    cfg.seed = spec.seed;
    cfg.fault_plan = config_.fault_plan;
    // An injected-fault environment needs more mailbox retry headroom,
    // exactly like the fleet soak's configuration.
    if (config_.fault_plan) cfg.cell.retry.max_attempts = 8;
    if (cfg.mode == plugvolt::SweepMode::Adaptive)
        cfg.planner = infer::adaptive_planner();

    plugvolt::ParallelCharacterizer characterizer(profile_for(spec), cfg);
    std::uint64_t units = 0;
    const auto progress = [&](const plugvolt::FreqCharacterization&) {
        unit_delivered(job.id, ++units, spec.deadline_units);
    };

    ExecOutcome out;
    const auto finish = [&](const plugvolt::SafeStateMap& map) {
        out.fingerprint = plugvolt::state_hash(map);
        WidenedMap served =
            widen_uncertain_rows(map, characterizer.planned_rows(), cfg.cell.offset_step);
        out.units = units;
        out.detail = std::to_string(map.rows().size()) + " rows, maximal safe " +
                     format_mv(map.maximal_safe_offset(config_.guard));
        const plugvolt::SweepStats& stats = characterizer.stats();
        out.metrics.set_counter("sweep.cells_evaluated", stats.cells_evaluated);
        out.metrics.set_counter("sweep.crash_probes", stats.crash_probes);
        out.metrics.set_counter("sweep.rows_resumed", stats.rows_resumed);
        out.metrics.set_counter("sweep.rows_interpolated", stats.rows_interpolated);
        out.metrics.set_counter("sweep.msr_retries", stats.msr_retries);
        out.metrics.set_counter("sweep.env_faults", stats.env_faults);
        out.metrics.set_counter("map.widened_rows", served.widened_rows);
        out.commit_map =
            CommittedMap{job.id, out.fingerprint, std::move(served.map)};
    };
    resilience::SweepJournal journal = resilience::SweepJournal::open(
        job_journal_path(job.id, ".pvj"), characterizer.config_hash(), config_.journal);
    finish(characterizer.characterize(journal, progress));
    return out;
}

CampaignDaemon::ExecOutcome CampaignDaemon::execute_campaign(const JobRecord& job) {
    const JobSpec& spec = job.spec;
    campaign::CampaignConfig cfg;
    const auto& attack_axis = campaign::all_attacks();
    const auto& defense_axis = campaign::all_defenses();
    const std::size_t n_attacks =
        spec.campaign_attacks == 0
            ? attack_axis.size()
            : std::min<std::size_t>(spec.campaign_attacks, attack_axis.size());
    const std::size_t n_defenses =
        spec.campaign_defenses == 0
            ? defense_axis.size()
            : std::min<std::size_t>(spec.campaign_defenses, defense_axis.size());
    cfg.attacks.assign(attack_axis.begin(),
                       attack_axis.begin() + static_cast<std::ptrdiff_t>(n_attacks));
    cfg.defenses.assign(defense_axis.begin(),
                        defense_axis.begin() + static_cast<std::ptrdiff_t>(n_defenses));
    cfg.profiles = {profile_for(spec)};
    cfg.seed = spec.seed;
    cfg.workers = config_.workers;
    cfg.char_step = Millivolts{spec.char_step_mv};
    cfg.tuning = job_tuning();
    cfg.fault_plan = config_.fault_plan;

    campaign::CampaignEngine engine(cfg);
    std::uint64_t units = 0;
    const auto progress = [&](const campaign::CampaignCellResult&) {
        unit_delivered(job.id, ++units, spec.deadline_units);
    };

    ExecOutcome out;
    const auto finish = [&](const campaign::CampaignReport& report) {
        out.fingerprint = report.fingerprint();
        out.units = units;
        out.detail = std::to_string(report.cells.size()) + " cells, " +
                     std::to_string(report.weaponized_count()) + " weaponized";
        const campaign::CampaignRunStats& stats = engine.run_stats();
        out.metrics.set_counter("campaign.cells_executed", stats.cells_executed);
        out.metrics.set_counter("campaign.cells_adopted", stats.cells_adopted);
        out.metrics.set_counter("campaign.attempts_fast_forwarded",
                                stats.attempts_fast_forwarded);
    };
    campaign::CampaignJournal journal = campaign::CampaignJournal::open(
        job_journal_path(job.id, ".pvcj"), engine.config_hash(), config_.journal);
    finish(engine.run(journal, progress));
    return out;
}

CampaignDaemon::ExecOutcome CampaignDaemon::execute_fleet(const JobRecord& job) {
    const JobSpec& spec = job.spec;
    fleet::LotConfig lot_config;
    lot_config.lot_seed = mix_seed(spec.seed, kLotSeedTag);
    const fleet::SiliconLot lot(profile_for(spec), lot_config);

    fleet::FleetConfig cfg;
    cfg.units = spec.units;
    cfg.sweep.cell.offset_step = Millivolts{spec.char_step_mv};
    cfg.sweep.mode = static_cast<plugvolt::SweepMode>(spec.sweep_mode);
    cfg.sweep.seed = spec.seed;
    cfg.sweep.fault_plan = config_.fault_plan;
    if (config_.fault_plan) cfg.sweep.cell.retry.max_attempts = 8;
    cfg.workers = config_.workers;

    fleet::FleetOrchestrator orchestrator(lot, cfg);
    std::uint64_t units = 0;
    const auto progress = [&](std::uint64_t, const plugvolt::SafeStateMap&) {
        unit_delivered(job.id, ++units, spec.deadline_units);
    };

    ExecOutcome out;
    const auto finish = [&](fleet::PopulationEnvelope&& envelope) {
        out.fingerprint = fleet::state_hash(envelope);
        out.units = units;
        out.detail = std::to_string(envelope.units()) + " units, clamp " +
                     format_mv(envelope.clamp_at_yield(1.0));
        const fleet::FleetStats& stats = orchestrator.stats();
        out.metrics.set_counter("fleet.units_resumed", stats.units_resumed);
        out.metrics.set_counter("fleet.rows_resumed", stats.rows_resumed);
        out.metrics.set_counter("fleet.cells_evaluated", stats.cells_evaluated);
        out.metrics.set_counter("fleet.env_faults", stats.env_faults);
        out.commit_envelope = CommittedEnvelope{job.id, std::move(envelope)};
    };
    resilience::SweepJournal journal = resilience::SweepJournal::open(
        job_journal_path(job.id, ".pvj"), orchestrator.config_hash(), config_.journal);
    finish(orchestrator.characterize(journal, progress));
    return out;
}

DvfsVerdict CampaignDaemon::request_undervolt(Megahertz f, Millivolts requested) {
    MutexLock lock(mutex_);
    DvfsVerdict verdict;
    if (!committed_map_) {
        // Fail closed: no committed, hash-verified map — no undervolt.
        verdict.decision = DvfsDecision::Denied;
        ++stats_.dvfs_denied;
        return verdict;
    }
    verdict.source_job = committed_map_->source_job;
    const Millivolts limit = committed_map_->map.safe_limit(f, config_.guard);
    if (requested >= limit) {
        verdict.decision = DvfsDecision::Granted;
        verdict.applied = requested;
        ++stats_.dvfs_granted;
    } else {
        verdict.decision = DvfsDecision::Clamped;
        verdict.applied = limit;
        ++stats_.dvfs_clamped;
    }
    return verdict;
}

std::optional<EnvelopeView> CampaignDaemon::query_envelope() const {
    MutexLock lock(mutex_);
    if (!committed_envelope_) return std::nullopt;
    EnvelopeView view;
    view.source_job = committed_envelope_->source_job;
    view.units = committed_envelope_->envelope.units();
    view.state_hash = fleet::state_hash(committed_envelope_->envelope);
    view.clamp = committed_envelope_->envelope.clamp_at_yield(1.0);
    return view;
}

std::optional<JobRecord> CampaignDaemon::job(std::uint64_t id) const {
    MutexLock lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    return it->second;
}

std::vector<JobRecord> CampaignDaemon::jobs() const {
    MutexLock lock(mutex_);
    std::vector<JobRecord> out;
    out.reserve(jobs_.size());
    for (const auto& [id, record] : jobs_) out.push_back(record);
    return out;
}

std::size_t CampaignDaemon::queue_depth() const {
    MutexLock lock(mutex_);
    return queue_.size();
}

DaemonStats CampaignDaemon::stats() const {
    MutexLock lock(mutex_);
    return stats_;
}

trace::MetricsSnapshot CampaignDaemon::metrics() const {
    MutexLock lock(mutex_);
    trace::MetricsSnapshot snapshot;
    snapshot.set_counter("daemon.jobs_submitted", stats_.jobs_submitted);
    snapshot.set_counter("daemon.jobs_rejected", stats_.jobs_rejected);
    snapshot.set_counter("daemon.jobs_completed", stats_.jobs_completed);
    snapshot.set_counter("daemon.jobs_failed", stats_.jobs_failed);
    snapshot.set_counter("daemon.jobs_quarantined", stats_.jobs_quarantined);
    snapshot.set_counter("daemon.jobs_resumed", stats_.jobs_resumed);
    snapshot.set_counter("daemon.job_attempts_failed", stats_.job_attempts_failed);
    snapshot.set_counter("daemon.rehydration_drops", stats_.rehydration_drops);
    snapshot.set_counter("daemon.dvfs_granted", stats_.dvfs_granted);
    snapshot.set_counter("daemon.dvfs_clamped", stats_.dvfs_clamped);
    snapshot.set_counter("daemon.dvfs_denied", stats_.dvfs_denied);
    snapshot.set_gauge("daemon.queue_depth", static_cast<double>(queue_.size()));
    snapshot.set_gauge("daemon.jobs_total", static_cast<double>(jobs_.size()));
    return snapshot;
}

std::uint64_t CampaignDaemon::queue_fingerprint() const {
    MutexLock lock(mutex_);
    check::StateHasher h;
    h.mix(static_cast<std::uint64_t>(jobs_.size()));
    for (const auto& [id, record] : jobs_) {
        h.mix(id);
        h.mix(static_cast<std::uint64_t>(record.spec.kind));
        h.mix(record.spec.seed);
        h.mix(record.spec.profile_index);
        h.mix(record.spec.char_step_mv);
        h.mix(static_cast<std::uint64_t>(record.spec.sweep_mode));
        h.mix(record.spec.units);
        h.mix(record.spec.deadline_units);
        h.mix(record.spec.campaign_attacks);
        h.mix(record.spec.campaign_defenses);
        h.mix(static_cast<std::uint64_t>(record.spec.inject_fail_attempts));
        h.mix(static_cast<std::uint64_t>(record.state));
        h.mix(record.result_fingerprint);
        h.mix(static_cast<std::uint64_t>(record.attempts));
        h.mix(record.progress_units);
        h.mix(std::string_view(record.detail));
    }
    return h.digest();
}

}  // namespace pv::serve
