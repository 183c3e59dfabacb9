#include "campaign/campaign.hpp"

#include <exception>
#include <future>
#include <utility>

#include "attacks/plundervolt.hpp"
#include "attacks/v0ltpwn.hpp"
#include "attacks/voltjockey.hpp"
#include "attacks/voltpillager.hpp"
#include "campaign/benign_probe.hpp"
#include "campaign/journal.hpp"
#include "campaign/report.hpp"
#include "check/assert.hpp"
#include "check/msr_auditor.hpp"
#include "check/state_hasher.hpp"
#include "defenses/access_control.hpp"
#include "defenses/minefield.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "plugvolt/plugvolt.hpp"
#include "os/msr_driver.hpp"
#include "sgx/runtime.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pv::campaign {
namespace {

/// Seed-stream tags, so the per-cell machine seeds, the per-profile
/// characterization seeds and the attacks' private RNG seeds never
/// collide on one mix level.
constexpr std::uint64_t kMapSeedTag = 0xC0DE'0001;
constexpr std::uint64_t kAttackRngTag = 0xC0DE'0002;
constexpr std::uint64_t kRetryBackoffTag = 0xC0DE'0003;
constexpr std::uint64_t kEnvFaultTag = 0xC0DE'0004;

/// Everything one cell holds alive while its attack runs.  Member order
/// is teardown order in reverse: the machine must outlive every consumer.
struct CellRig {
    CellRig(const sim::CpuProfile& profile, std::uint64_t seed)
        : machine(profile, seed), kernel(machine), runtime(kernel) {}

    sim::Machine machine;
    os::Kernel kernel;
    sgx::SgxRuntime runtime;
    std::unique_ptr<plugvolt::Protector> protector;
    std::shared_ptr<plugvolt::PollingModule> bare_module;
    std::unique_ptr<defense::AccessControl> access_control;
    std::unique_ptr<check::MsrAuditor> auditor;
    std::unique_ptr<sgx::Enclave> tenant;

    /// Live polling module of whichever deployment installed one.
    [[nodiscard]] const plugvolt::PollingModule* polling_module() const {
        if (bare_module) return bare_module.get();
        if (protector) return protector->polling_module();
        return nullptr;
    }
};

void install_defense(CellRig& rig, DefenseKind kind, const plugvolt::SafeStateMap& map) {
    plugvolt::PollingConfig cfg;
    switch (kind) {
        case DefenseKind::None:
        case DefenseKind::Minefield:  // applied at victim compile time
            return;
        case DefenseKind::PollingNoRailWatch:
            rig.bare_module = std::make_shared<plugvolt::PollingModule>(map, cfg);
            rig.kernel.load_module(rig.bare_module);
            return;
        case DefenseKind::PollingSafeLimit:
            rig.protector = std::make_unique<plugvolt::Protector>(rig.kernel, map);
            rig.protector->deploy(plugvolt::DeploymentLevel::KernelModule);
            return;
        case DefenseKind::PollingMaximalSafe:
            cfg.restore = plugvolt::RestorePolicy::ClampToMaximalSafe;
            rig.protector = std::make_unique<plugvolt::Protector>(rig.kernel, map);
            rig.protector->deploy(plugvolt::DeploymentLevel::KernelModule, cfg);
            return;
        case DefenseKind::PollingRestoreZero:
            cfg.restore = plugvolt::RestorePolicy::RestoreZero;
            rig.protector = std::make_unique<plugvolt::Protector>(rig.kernel, map);
            rig.protector->deploy(plugvolt::DeploymentLevel::KernelModule, cfg);
            return;
        case DefenseKind::Microcode:
            rig.protector = std::make_unique<plugvolt::Protector>(rig.kernel, map);
            rig.protector->deploy(plugvolt::DeploymentLevel::Microcode);
            return;
        case DefenseKind::MsrClamp:
            rig.protector = std::make_unique<plugvolt::Protector>(rig.kernel, map);
            rig.protector->deploy(plugvolt::DeploymentLevel::HardwareMsr);
            return;
        case DefenseKind::AccessControl:
            rig.access_control =
                std::make_unique<defense::AccessControl>(rig.machine, rig.runtime);
            rig.access_control->install();
            return;
    }
}

[[nodiscard]] bool is_v0ltpwn(AttackKind kind) {
    return kind == AttackKind::V0ltpwn || kind == AttackKind::V0ltpwnSgxStep;
}

std::unique_ptr<attack::Attack> make_attack(CellRig& rig, const CellSpec& spec,
                                            const AttackTuning& tuning,
                                            const plugvolt::SafeStateMap& map) {
    switch (spec.attack) {
        case AttackKind::Plundervolt: {
            attack::PlundervoltConfig cfg;
            cfg.scan_step = tuning.scan_step;
            cfg.probe_ops = tuning.probe_ops;
            cfg.max_crashes = tuning.max_crashes;
            cfg.rng_seed = mix_seed(spec.seed, kAttackRngTag);
            return std::make_unique<attack::Plundervolt>(cfg);
        }
        case AttackKind::VoltJockey:
        case AttackKind::VoltJockeyPrecise:
        case AttackKind::VoltJockeyDescending: {
            attack::VoltJockeyConfig cfg;
            cfg.scan_step = tuning.scan_step;
            cfg.probe_ops = tuning.probe_ops;
            cfg.max_crashes = tuning.max_crashes;
            cfg.precise_step = spec.attack == AttackKind::VoltJockeyPrecise;
            cfg.descending_rail = spec.attack == AttackKind::VoltJockeyDescending;
            if (spec.attack == AttackKind::VoltJockey)
                return std::make_unique<attack::VoltJockey>(cfg);
            // The map-driven variants carry the attacker's own
            // characterization — the search space is open to adversaries
            // too (same map; an attacker would measure the same physics).
            return std::make_unique<attack::VoltJockey>(cfg, map);
        }
        case AttackKind::VoltPillager: {
            attack::VoltPillagerConfig cfg;
            cfg.scan_step = tuning.scan_step * 2.0;  // published 2x-coarser ratio
            cfg.probe_ops = tuning.probe_ops;
            cfg.max_crashes = tuning.max_crashes;
            return std::make_unique<attack::VoltPillager>(cfg);
        }
        case AttackKind::V0ltpwn:
        case AttackKind::V0ltpwnSgxStep: {
            attack::V0ltpwnConfig cfg;
            // The published campaign pins a chosen P-state, not the
            // maximum: the attacker (who holds the same characterization
            // the defender does) picks the frequency whose fault-onset to
            // crash window is widest, maximizing faultable-but-alive
            // dwell time for the stepped enclave runs.
            double best_window_mv = 0.0;
            for (const plugvolt::FreqCharacterization& row : map.rows()) {
                if (row.fault_free) continue;
                const double window_mv = row.onset.value() - row.crash.value();
                if (window_mv > best_window_mv) {
                    best_window_mv = window_mv;
                    cfg.pin_freq = row.freq;
                }
            }
            sgx::Program program = sgx::make_mul_chain(0xAAAA, 0x5555, 32);
            if (spec.defense == DefenseKind::Minefield) {
                defense::Minefield pass;
                program = pass.instrument(program);
            }
            cfg.victim_program = program;
            cfg.suppress_after_index = sgx::last_mul_index(program);
            cfg.use_sgx_step = spec.attack == AttackKind::V0ltpwnSgxStep;
            cfg.scan_step = tuning.scan_step;
            cfg.runs_per_offset = tuning.runs_per_offset;
            cfg.max_crashes = tuning.max_crashes;
            return std::make_unique<attack::V0ltpwn>(rig.runtime, cfg);
        }
        case AttackKind::BenignUndervolt:
            return std::make_unique<BenignUndervolt>();
    }
    throw ConfigError("unknown attack kind");
}

std::string verdict_of(const CellSpec& spec, const attack::AttackResult& r) {
    if (spec.attack == AttackKind::BenignUndervolt) return r.weaponization;
    if (r.weaponized) return "BROKEN (" + std::to_string(r.faults_observed) + " faults)";
    if (r.faults_observed > 0)
        return "faults leaked (" + std::to_string(r.faults_observed) + ")";
    return "blocked";
}

}  // namespace

const char* to_string(AttackKind kind) {
    switch (kind) {
        case AttackKind::Plundervolt: return "plundervolt";
        case AttackKind::VoltJockey: return "voltjockey";
        case AttackKind::VoltJockeyPrecise: return "voltjockey-precise";
        case AttackKind::VoltJockeyDescending: return "voltjockey-descending";
        case AttackKind::VoltPillager: return "voltpillager";
        case AttackKind::V0ltpwn: return "v0ltpwn";
        case AttackKind::V0ltpwnSgxStep: return "v0ltpwn-sgxstep";
        case AttackKind::BenignUndervolt: return "benign-undervolt";
    }
    return "?";
}

const char* to_string(DefenseKind kind) {
    switch (kind) {
        case DefenseKind::None: return "none";
        case DefenseKind::PollingNoRailWatch: return "polling-no-rail-watch";
        case DefenseKind::PollingSafeLimit: return "polling-safe-limit";
        case DefenseKind::PollingMaximalSafe: return "polling-maximal-safe";
        case DefenseKind::PollingRestoreZero: return "polling-restore-zero";
        case DefenseKind::Microcode: return "microcode";
        case DefenseKind::MsrClamp: return "msr-clamp";
        case DefenseKind::AccessControl: return "access-control";
        case DefenseKind::Minefield: return "minefield";
    }
    return "?";
}

const std::vector<AttackKind>& all_attacks() {
    static const std::vector<AttackKind> kinds = {
        AttackKind::Plundervolt,         AttackKind::VoltJockey,
        AttackKind::VoltJockeyPrecise,   AttackKind::VoltJockeyDescending,
        AttackKind::VoltPillager,        AttackKind::V0ltpwn,
        AttackKind::V0ltpwnSgxStep,      AttackKind::BenignUndervolt,
    };
    return kinds;
}

const std::vector<DefenseKind>& all_defenses() {
    static const std::vector<DefenseKind> kinds = {
        DefenseKind::None,
        DefenseKind::PollingNoRailWatch,
        DefenseKind::PollingSafeLimit,
        DefenseKind::PollingMaximalSafe,
        DefenseKind::PollingRestoreZero,
        DefenseKind::Microcode,
        DefenseKind::MsrClamp,
        DefenseKind::AccessControl,
        DefenseKind::Minefield,
    };
    return kinds;
}

std::uint64_t fingerprint(const CampaignCellResult& cell) {
    check::StateHasher hasher;
    hasher.mix(static_cast<std::uint64_t>(cell.spec.index));
    hasher.mix(static_cast<std::uint64_t>(cell.spec.attack));
    hasher.mix(static_cast<std::uint64_t>(cell.spec.defense));
    hasher.mix(static_cast<std::uint64_t>(cell.spec.profile_index));
    hasher.mix(cell.spec.seed);
    hasher.mix(std::string_view(cell.profile_name));
    const attack::AttackResult& r = cell.attack_result;
    hasher.mix(std::string_view(r.attack_name));
    hasher.mix(r.faults_observed);
    hasher.mix(r.weaponized);
    hasher.mix(std::string_view(r.weaponization));
    hasher.mix(static_cast<std::uint64_t>(r.crashes));
    hasher.mix(r.writes_attempted);
    hasher.mix(r.writes_effective);
    hasher.mix(r.started.value());
    hasher.mix(r.finished.value());
    hasher.mix(std::string_view(r.notes));
    hasher.mix(cell.polling.has_value());
    if (cell.polling) {
        hasher.mix(cell.polling->polls);
        hasher.mix(cell.polling->detections);
        hasher.mix(cell.polling->restore_writes);
        hasher.mix(cell.polling->freq_drops);
        hasher.mix(cell.polling->rail_watch_detections);
        hasher.mix(cell.polling->read_retries);
        hasher.mix(cell.polling->write_retries);
        hasher.mix(cell.polling->stale_reads);
        hasher.mix(cell.polling->missed_polls);
        hasher.mix(cell.polling->fail_closed_clamps);
        hasher.mix(cell.polling->last_detection.value());
    }
    hasher.mix(cell.audit_violations);
    hasher.mix(cell.audited_accesses);
    hasher.mix(cell.machine_state_hash);
    hasher.mix(static_cast<std::uint64_t>(cell.attempts));
    hasher.mix(static_cast<std::uint64_t>(cell.machine_rebuilds));
    hasher.mix(std::string_view(cell.verdict));
    hasher.mix(static_cast<std::uint64_t>(cell.metrics.size()));
    for (const auto& [name, v] : cell.metrics.values()) {
        hasher.mix(std::string_view(name));
        hasher.mix(static_cast<std::uint64_t>(v.kind));
        hasher.mix(v.count);
        hasher.mix(v.value);
        hasher.mix(static_cast<std::uint64_t>(v.bounds.size()));
        for (const double b : v.bounds) hasher.mix(b);
        for (const std::uint64_t c : v.buckets) hasher.mix(c);
    }
    return hasher.digest();
}

CampaignEngine::CampaignEngine(CampaignConfig config) : config_(std::move(config)) {
    if (config_.attacks.empty() || config_.defenses.empty() || config_.profiles.empty())
        throw ConfigError("campaign cube must have at least one attack, defense and profile");
    if (config_.max_attempts == 0)
        throw ConfigError("campaign max_attempts must be at least 1");
    config_.retry.max_attempts = config_.max_attempts;
    config_.retry.validate();
    if (config_.workers == 0) config_.workers = ThreadPool::default_worker_count();
    maps_.resize(config_.profiles.size());
}

CampaignEngine::~CampaignEngine() = default;

std::vector<CellSpec> CampaignEngine::cells() const {
    std::vector<CellSpec> specs;
    specs.reserve(config_.profiles.size() * config_.defenses.size() * config_.attacks.size());
    std::size_t index = 0;
    for (std::size_t p = 0; p < config_.profiles.size(); ++p)
        for (const DefenseKind defense : config_.defenses)
            for (const AttackKind attack : config_.attacks) {
                specs.push_back(CellSpec{
                    .index = index,
                    .attack = attack,
                    .defense = defense,
                    .profile_index = p,
                    .seed = mix_seed(config_.seed, index),
                });
                ++index;
            }
    return specs;
}

const plugvolt::SafeStateMap& CampaignEngine::map_for(std::size_t profile_index) {
    PV_ASSERT(profile_index < maps_.size(),
              "profile index " << profile_index << " outside the cube's "
                               << maps_.size() << " profiles");
    if (!maps_[profile_index]) {
        plugvolt::ParallelCharacterizerConfig pc;
        pc.cell.offset_step = config_.char_step;
        pc.workers = config_.workers;
        pc.seed = mix_seed(config_.seed, kMapSeedTag + profile_index);
        plugvolt::ParallelCharacterizer characterizer(config_.profiles[profile_index], pc);
        maps_[profile_index] =
            std::make_unique<plugvolt::SafeStateMap>(characterizer.characterize());
    }
    return *maps_[profile_index];
}

void CampaignEngine::prepare_maps() {
    for (std::size_t p = 0; p < config_.profiles.size(); ++p) (void)map_for(p);
}

CampaignCellResult CampaignEngine::run_cell(const CellSpec& spec) {
    return run_cell(spec, 0, {});
}

std::uint64_t CampaignEngine::config_hash() const {
    check::StateHasher hasher;
    hasher.mix(std::uint64_t{1});  // codec version
    hasher.mix(config_.seed);
    hasher.mix(static_cast<std::uint64_t>(config_.attacks.size()));
    for (const AttackKind a : config_.attacks) hasher.mix(static_cast<std::uint64_t>(a));
    hasher.mix(static_cast<std::uint64_t>(config_.defenses.size()));
    for (const DefenseKind d : config_.defenses) hasher.mix(static_cast<std::uint64_t>(d));
    hasher.mix(static_cast<std::uint64_t>(config_.profiles.size()));
    for (const sim::CpuProfile& p : config_.profiles) {
        hasher.mix(std::string_view(p.name));
        hasher.mix(std::string_view(p.codename));
        hasher.mix(std::string_view(p.microcode));
        hasher.mix(static_cast<std::uint64_t>(p.core_count));
        hasher.mix(p.freq_min.value());
        hasher.mix(p.freq_max.value());
        hasher.mix(p.freq_base.value());
        hasher.mix(p.freq_step.value());
        hasher.mix(static_cast<std::uint64_t>(p.vf_points.size()));
        for (const auto& pt : p.vf_points) {
            hasher.mix(pt.freq.value());
            hasher.mix(pt.voltage.value());
        }
    }
    hasher.mix(static_cast<std::uint64_t>(config_.max_attempts));
    hasher.mix(static_cast<std::uint64_t>(config_.retry.base_delay.value()));
    hasher.mix(config_.retry.multiplier);
    hasher.mix(static_cast<std::uint64_t>(config_.retry.max_delay.value()));
    hasher.mix(config_.retry.jitter);
    hasher.mix(config_.char_step.value());
    hasher.mix(config_.tuning.scan_step.value());
    hasher.mix(config_.tuning.probe_ops);
    hasher.mix(static_cast<std::uint64_t>(config_.tuning.runs_per_offset));
    hasher.mix(static_cast<std::uint64_t>(config_.tuning.max_crashes));
    hasher.mix(config_.audit);
    hasher.mix(config_.fault_plan.has_value());
    if (config_.fault_plan) {
        hasher.mix(config_.fault_plan->seed);
        for (const double rate : config_.fault_plan->rates) hasher.mix(rate);
    }
    return hasher.digest();
}

CampaignCellResult CampaignEngine::run_cell(const CellSpec& spec,
                                            unsigned start_attempt,
                                            const AttemptSink& sink) {
    PV_ASSERT(spec.profile_index < config_.profiles.size(),
              "cell profile index " << spec.profile_index << " out of range");
    const sim::CpuProfile& profile = config_.profiles[spec.profile_index];
    const plugvolt::SafeStateMap& map = map_for(spec.profile_index);

    if (start_attempt >= config_.max_attempts) start_attempt = config_.max_attempts - 1;

    CampaignCellResult out;
    out.spec = spec;
    out.profile_name = profile.name;
    // Journaled dead attempts are skipped, not replayed; they still count.
    out.machine_rebuilds = start_attempt;

    // One trace track per cell, keyed by cell index: which worker (or
    // the calling thread) executes the cell is invisible in the export.
    trace::TraceRecorder* recorder =
        config_.trace == nullptr
            ? nullptr
            : &config_.trace->create_track("cell-" + std::to_string(spec.index),
                                           spec.index);
    trace::ScopedRecorder bind_recorder(recorder);
    PV_TRACE_EVENT(trace::EventKind::CampaignCellBegin, "cell", 0,
                   static_cast<std::uint64_t>(spec.attack),
                   static_cast<std::uint64_t>(spec.defense));
    std::int64_t cell_end_ps = 0;

    resilience::RetrySchedule sched(config_.retry, mix_seed(spec.seed, kRetryBackoffTag));
    while (sched.next_attempt()) {
        const unsigned attempt = sched.attempts() - 1;
        // Fast-forward past journaled dead attempts: the schedule is
        // still consumed (same attempt indices, same backoff stream), but
        // the dead work is not replayed — the executed attempts are
        // bit-identical to an uninterrupted run's.
        if (attempt < start_attempt) continue;
        // Attempt seeds derive from the cell seed, so the retry loop is
        // as deterministic as the first try: a cell that dies on attempt
        // 0 dies identically on every replay, and its attempt-1 outcome
        // is a pure function of (config, cell) too.
        // The env-fault injector reseeds per (cell, attempt) and must
        // outlive the rig (teardown can still issue MSR traffic).
        std::optional<resilience::FaultInjector> injector;
        CellRig rig(profile, mix_seed(spec.seed, attempt));
        if (config_.fault_plan) {
            injector.emplace(*config_.fault_plan);
            injector->reseed(mix_seed(mix_seed(spec.seed, kEnvFaultTag), attempt));
            rig.kernel.msr().set_fault_injector(&*injector);
        }
        if (sched.backoff() > Picoseconds{0}) {
            // Reboot pacing: the operator waits out the backoff before
            // re-arming the cell, charged on the fresh machine's clock so
            // retried cells replay bit-exactly.
            PV_TRACE_EVENT(trace::EventKind::RetryBackoff, "cell-rebuild-backoff",
                           rig.machine.now().value(),
                           static_cast<std::uint64_t>(sched.backoff().value()), attempt);
            rig.machine.advance(sched.backoff());
        }
        install_defense(rig, spec.defense, map);
        if (config_.audit) {
            check::MsrAuditorConfig audit_cfg;
            audit_cfg.map = &map;
            rig.auditor = std::make_unique<check::MsrAuditor>(rig.kernel, audit_cfg);
        }
        // Non-enclave attacks still run against a platform hosting an
        // enclave: that is what arms AccessControl and what the benign
        // probe's "while an enclave is loaded" clause means.  The
        // V0LTpwn campaigns create their own victim enclave.
        if (!is_v0ltpwn(spec.attack))
            rig.tenant = rig.runtime.create_enclave("tenant", profile.core_count - 1);

        std::unique_ptr<attack::Attack> atk = make_attack(rig, spec, config_.tuning, map);
        bool dead = false;
        try {
            PV_TRACE_SPAN("attack", rig.machine);
            out.attack_result = atk->run(rig.kernel);
            dead = rig.machine.crashed();
        } catch (const Error& e) {
            // A simulator error mid-campaign is the software analogue of
            // the machine dying under the attacker: rebuild and retry.
            out.attack_result = {};
            out.attack_result.attack_name = std::string(atk->name());
            out.attack_result.notes = std::string("attempt aborted: ") + e.what();
            dead = true;
        }

        out.attempts = attempt + 1;
        if (const plugvolt::PollingModule* module = rig.polling_module())
            out.polling = module->metrics();
        else
            out.polling.reset();
        if (rig.auditor) {
            out.audit_violations = rig.auditor->violations().size();
            out.audited_accesses = rig.auditor->audited_accesses();
        }
        out.machine_state_hash = rig.machine.state_hash();
        out.verdict = verdict_of(spec, out.attack_result);
        cell_end_ps = rig.machine.now().value();

        trace::MetricsRegistry reg;
        reg.counter("attempts") = out.attempts;
        reg.counter("machine_rebuilds") = out.machine_rebuilds;
        reg.counter("attack_faults") = out.attack_result.faults_observed;
        reg.counter("attack_crashes") = out.attack_result.crashes;
        reg.counter("audit_violations") = out.audit_violations;
        reg.gauge("cell_virtual_us") = rig.machine.now().microseconds();
        // Simulator traversal-work counters: deterministic per cell (and
        // across stepping modes and worker counts), so fingerprints can
        // assert the batched hot path actually engaged.
        const sim::Machine::Stats mstats = rig.machine.stats();
        reg.counter("machine.events_dispatched") = mstats.events_dispatched;
        reg.counter("machine.batched_iterations") = mstats.batched_iterations;
        reg.counter("machine.batch_windows") = mstats.batch_windows;
        reg.counter("machine.heap_peak") = mstats.heap_peak;
        out.metrics = reg.snapshot();
        if (const plugvolt::PollingModule* module = rig.polling_module())
            out.metrics.merge(module->metrics_snapshot(), "polling.");
        if (injector) out.metrics.merge(injector->metrics_snapshot(), "env.");

        if (!dead) break;
        ++out.machine_rebuilds;
        out.metrics.set_counter("machine_rebuilds", out.machine_rebuilds);
        if (sink) sink(spec, out.machine_rebuilds);
        if (attempt + 1 == config_.max_attempts) {
            out.verdict += " [machine dead after " + std::to_string(out.attempts) +
                           " attempts]";
            break;
        }
    }
    PV_TRACE_EVENT(trace::EventKind::CampaignCellEnd, "cell", cell_end_ps,
                   static_cast<std::uint64_t>(spec.attack),
                   static_cast<std::uint64_t>(spec.defense));
    return out;
}

CampaignReport CampaignEngine::run(
    const std::function<void(const CampaignCellResult&)>& progress) {
    return run_cube(nullptr, progress);
}

CampaignReport CampaignEngine::run(
    CampaignJournal& journal,
    const std::function<void(const CampaignCellResult&)>& progress) {
    return run_cube(&journal, progress);
}

CampaignReport CampaignEngine::run_cube(
    CampaignJournal* journal,
    const std::function<void(const CampaignCellResult&)>& progress) {
    const std::vector<CellSpec> specs = cells();
    run_stats_ = {};
    FlatMap<std::uint64_t, CampaignCellResult> adopted;
    AttemptSink sink;
    if (journal != nullptr) {
        resilience::require_identity(journal->identity(),
                                     {CampaignJournal::kFormat, config_hash()},
                                     "campaign journal");
        for (CampaignCellResult& cell : journal->cells()) {
            const std::uint64_t index = cell.spec.index;
            if (index >= specs.size())
                throw JournalError("journaled cell outside the cube");
            const CellSpec& expect = specs[index];
            if (cell.spec.attack != expect.attack || cell.spec.defense != expect.defense ||
                cell.spec.profile_index != expect.profile_index ||
                cell.spec.seed != expect.seed)
                throw JournalError("journaled cell " + std::to_string(index) +
                                   " does not match the cube enumeration");
            adopted[index] = std::move(cell);
        }
        sink = [journal](const CellSpec& s, unsigned failed) {
            journal->commit_attempt(s.index, failed);
        };
    }

    // Characterize every profile up front, serially: the sharded cells
    // below only ever read the cache, so no lock is needed.
    prepare_maps();
    CampaignReport report;
    report.seed = config_.seed;
    report.n_attacks = config_.attacks.size();
    report.n_defenses = config_.defenses.size();
    report.n_profiles = config_.profiles.size();
    report.cells.reserve(specs.size());

    // Write-ahead ordering: a fresh cell becomes durable BEFORE progress
    // observes it, so a crash between the two re-runs nothing and a
    // consumer never sees a cell the journal could lose.
    const auto deliver = [&](CampaignCellResult&& cell, bool fresh) {
        if (fresh && journal != nullptr) journal->commit_cell(cell);
        report.cells.push_back(std::move(cell));
        if (progress) progress(report.cells.back());
    };
    const auto adopt = [&](const CellSpec& spec) {
        const auto it = adopted.find(spec.index);
        if (it == adopted.end()) return false;
        ++run_stats_.cells_adopted;
        deliver(std::move(it->second), false);
        return true;
    };
    // A fresh cell resumes past the attempts journaled as dead.
    const auto start_attempt = [&](const CellSpec& spec) {
        const unsigned start =
            journal != nullptr ? journal->attempts_failed(spec.index) : 0;
        run_stats_.attempts_fast_forwarded += start;
        ++run_stats_.cells_executed;
        return start;
    };

    if (config_.workers <= 1) {
        // The single-thread reference execution: cells inline, in order.
        for (const CellSpec& spec : specs)
            if (!adopt(spec)) deliver(run_cell(spec, start_attempt(spec), sink), true);
        return report;
    }

    // Only the missing cells enter the pool; collection stays in
    // enumeration order, so commit order (and the journal's cell-frame
    // order) is deterministic even though attempt frames from workers
    // may interleave freely — replay keys every frame by index.
    ThreadPool pool(config_.workers);
    std::vector<std::future<CampaignCellResult>> futures(specs.size());
    for (const CellSpec& spec : specs) {
        if (adopted.contains(spec.index)) continue;
        const unsigned start = start_attempt(spec);
        futures[spec.index] =
            pool.submit([this, spec, start, &sink] { return run_cell(spec, start, sink); });
    }
    for (const CellSpec& spec : specs)  // get() rethrows worker exceptions
        if (!adopt(spec)) deliver(futures[spec.index].get(), true);
    return report;
}

}  // namespace pv::campaign
