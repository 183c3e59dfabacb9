// PlugVolt — the campaign daemon: every engine behind one crash-tolerant
// job queue (campaign-as-a-service).
//
// The repo's engines — ParallelCharacterizer (+ the src/infer adaptive
// planner), CampaignEngine, FleetOrchestrator — are libraries a caller
// drives to completion.  Production serving needs a different shape: a
// long-lived daemon that accepts characterization / campaign / fleet
// jobs, survives kill -9 at any byte boundary, keeps answering benign
// DVFS requests while re-characterization is mid-flight, and never lets
// one wedged job take the queue down.  CampaignDaemon is that layer.
//
// Durability (two tiers, both CRC-framed WALs from src/resilience):
//   - the QUEUE WAL (job_wal.hpp) records every submit / start / failed
//     attempt / terminal verdict write-ahead;
//   - each job owns an ENGINE journal in the state directory
//     (job-<id>.pvj row/cell journals), committed write-ahead by the
//     engines themselves at row / cell granularity.
// A daemon constructed on a state directory that already holds a WAL
// resumes it: terminal jobs are adopted verbatim, a job killed
// mid-execution re-runs against its engine journal (adopting every
// durable row/cell and fast-forwarding journaled retry attempts), and
// the queue fingerprint, every result fingerprint and the committed
// serving state end up bit-identical to a never-killed daemon — the
// serve kill/resume soak's contract.
//
// Fail-closed serving: request_undervolt() (the `cpupower`-shaped
// benign-DVFS endpoint) answers ONLY from the last *committed* map — a
// map whose job completed and whose hash was journaled.  While a
// re-characterization is mid-flight, requests keep serving from the
// previous committed map; with no committed map at all they are DENIED.
// A request deeper than the committed safe limit is clamped to it, never
// granted: the daemon fails toward safety, exactly like the polling
// module it feeds (DESIGN §5j).  Maps from Adaptive sweeps are widened
// first (guard_band.hpp) so interpolated rows serve from the
// conservative edge of their certified bracket.
//
// Watchdog: jobs carry a cooperative work-unit deadline
// (JobSpec::deadline_units, checked at every progress boundary — the
// repo bans wall clocks outside bench timing, so budgets are counted in
// delivered work units, not seconds).  A job over budget is cancelled,
// journaled as Quarantined, and the queue moves on.
//
// Admission control: the queue holds at most max_queue_depth Queued
// jobs; a submit beyond that is journaled and answered Rejected —
// deterministically, so a replayed submit stream reproduces the same
// rejections.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fleet/population_envelope.hpp"
#include "plugvolt/limit_table.hpp"
#include "plugvolt/safe_state.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/frames.hpp"
#include "resilience/retry.hpp"
#include "serve/job.hpp"
#include "serve/job_wal.hpp"
#include "trace/metrics.hpp"
#include "util/flat_map.hpp"
#include "util/mutex.hpp"
#include "util/units.hpp"

namespace pv::serve {

struct DaemonConfig {
    /// Directory holding the queue WAL and every job's engine journal.
    /// Created if missing; a WAL already present there is resumed.
    std::string state_dir;
    /// Admission control: Queued jobs beyond this are Rejected.
    std::size_t max_queue_depth = 8;
    /// Job-level retry (engine-level retries are the jobs' own):
    /// max_attempts executions per job, virtual backoff in between.
    resilience::RetryPolicy job_retry{};
    /// Serving guard band handed to SafeStateMap::safe_limit (finite and
    /// non-negative, ConfigError otherwise).
    Millivolts guard = plugvolt::kDefaultGuardBand;
    /// Worker threads forwarded to the engines (result-neutral).
    unsigned workers = 1;
    /// Environment fault plan forwarded to every job's engine (MSR-level
    /// faults; reseeded per cell/attempt by the engines, so injected
    /// faults replay bit-exactly across kill/resume cycles).
    std::optional<resilience::FaultPlan> fault_plan;
    /// Durability options for the WAL and the per-job engine journals.
    resilience::JournalOptions journal{};
};

enum class DvfsDecision : std::uint8_t {
    Granted,  ///< request within the committed safe limit
    Clamped,  ///< deeper than the limit: clamped to it (fail closed)
    Denied,   ///< no committed map to serve from
};

[[nodiscard]] const char* to_string(DvfsDecision decision);

struct DvfsVerdict {
    DvfsDecision decision = DvfsDecision::Denied;
    /// Offset actually applied (0 when denied).
    Millivolts applied{0.0};
    /// The completed job whose committed map answered (0 when denied).
    std::uint64_t source_job = 0;

    friend bool operator==(const DvfsVerdict&, const DvfsVerdict&) = default;
};

/// The envelope query endpoint's answer (from the last completed fleet
/// job's committed PopulationEnvelope).
struct EnvelopeView {
    std::uint64_t source_job = 0;
    std::uint64_t units = 0;
    /// fleet::state_hash of the committed envelope (the soak's equality
    /// witness).
    std::uint64_t state_hash = 0;
    /// The protect-every-unit clamp (clamp_at_yield(1.0)).
    Millivolts clamp{};
};

struct DaemonStats {
    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_rejected = 0;
    std::uint64_t jobs_completed = 0;
    std::uint64_t jobs_failed = 0;
    std::uint64_t jobs_quarantined = 0;
    /// Terminal jobs adopted from the WAL at construction.
    std::uint64_t jobs_resumed = 0;
    /// Failed executions observed (journaled + fresh).
    std::uint64_t job_attempts_failed = 0;
    /// Committed serving state dropped at resume because its journal
    /// could not reproduce the journaled fingerprint (served Denied
    /// until the next completed job).
    std::uint64_t rehydration_drops = 0;
    std::uint64_t dvfs_granted = 0;
    std::uint64_t dvfs_clamped = 0;
    std::uint64_t dvfs_denied = 0;

    friend bool operator==(const DaemonStats&, const DaemonStats&) = default;
};

class CampaignDaemon {
public:
    /// Open (or create) the state directory.  Fresh directory: write a
    /// new WAL.  Existing WAL: resume it — adopt terminal jobs, re-queue
    /// interrupted ones, rehydrate the committed serving state from the
    /// finished jobs' engine journals and verify it against the
    /// journaled fingerprints (mismatch: drop and serve fail-closed).
    /// Throws ConfigError when an existing WAL belongs to a different
    /// daemon configuration.
    explicit CampaignDaemon(DaemonConfig config);

    CampaignDaemon(const CampaignDaemon&) = delete;
    CampaignDaemon& operator=(const CampaignDaemon&) = delete;

    /// Observation hook, fired after every durable work unit of a
    /// running job (row / cell / unit committed to its engine journal).
    /// The kill/resume tests throw from it; the mid-flight serving tests
    /// issue request_undervolt() from it.  Called with no daemon lock
    /// held.  Set before step().
    using ProgressHook =
        std::function<void(const JobRecord& job, std::uint64_t units_done)>;
    void set_progress(ProgressHook hook) { hook_ = std::move(hook); }

    /// Validate and enqueue a job; the submit frame is durable before
    /// the queue changes.  Returns the job id; a submit over
    /// max_queue_depth is journaled and recorded Rejected (check
    /// job(id).state).  Throws ConfigError on an invalid spec.
    std::uint64_t submit(const JobSpec& spec);

    /// Run the oldest queued job to a terminal state (Completed /
    /// Failed / Quarantined), retrying per job_retry.  Returns false
    /// when the queue is empty.
    bool step();

    /// step() until the queue drains.
    void run_until_idle();

    /// The benign-DVFS endpoint (see the fail-closed contract above).
    [[nodiscard]] DvfsVerdict request_undervolt(Megahertz f, Millivolts requested);

    /// The committed population envelope, if a fleet job has completed.
    [[nodiscard]] std::optional<EnvelopeView> query_envelope() const;

    [[nodiscard]] std::optional<JobRecord> job(std::uint64_t id) const;
    [[nodiscard]] std::vector<JobRecord> jobs() const;
    /// Jobs currently waiting (excludes the running one).
    [[nodiscard]] std::size_t queue_depth() const;

    [[nodiscard]] DaemonStats stats() const;
    /// Daemon-level counters as a snapshot (stats() plus queue gauges).
    [[nodiscard]] trace::MetricsSnapshot metrics() const;

    /// Fingerprint of the config fields that determine job results and
    /// queue behaviour (NOT workers or journal IO options) — the WAL's
    /// header identity.
    [[nodiscard]] std::uint64_t config_hash() const { return config_hash_; }

    /// Fingerprint over every job's journaled identity (id, spec, state,
    /// result fingerprint, attempts, units, detail) in id order.  The
    /// kill/resume soak's queue-equality witness.
    [[nodiscard]] std::uint64_t queue_fingerprint() const;

    [[nodiscard]] const DaemonConfig& config() const { return config_; }

private:
    struct CommittedMap {
        std::uint64_t source_job = 0;
        std::uint64_t raw_hash = 0;  ///< state_hash of the unwidened map
        plugvolt::SafeStateMap map;  ///< widened, serving-ready
    };
    struct CommittedEnvelope {
        std::uint64_t source_job = 0;
        fleet::PopulationEnvelope envelope;
    };
    /// What one successful execution hands back to the retry loop.
    struct ExecOutcome {
        std::uint64_t fingerprint = 0;
        std::uint64_t units = 0;
        std::string detail;
        trace::MetricsSnapshot metrics;
        std::optional<CommittedMap> commit_map;
        std::optional<CommittedEnvelope> commit_envelope;
    };

    [[nodiscard]] std::string job_journal_path(std::uint64_t id, const char* ext) const;
    void resume_queue(const std::vector<JobRecord>& records);
    void rehydrate_serving_state();

    /// Deliver one durable work unit of job `id`: bump the record,
    /// enforce the deadline, fire the hook.
    void unit_delivered(std::uint64_t id, std::uint64_t units_done,
                        std::uint64_t deadline);

    [[nodiscard]] ExecOutcome execute(const JobRecord& job);
    [[nodiscard]] ExecOutcome execute_characterize(const JobRecord& job);
    [[nodiscard]] ExecOutcome execute_campaign(const JobRecord& job);
    [[nodiscard]] ExecOutcome execute_fleet(const JobRecord& job);

    DaemonConfig config_;
    std::uint64_t config_hash_ = 0;
    ProgressHook hook_;

    mutable Mutex mutex_;
    JobWal wal_ PV_GUARDED_BY(mutex_);
    FlatMap<std::uint64_t, JobRecord> jobs_ PV_GUARDED_BY(mutex_);
    std::vector<std::uint64_t> queue_ PV_GUARDED_BY(mutex_);
    std::optional<CommittedMap> committed_map_ PV_GUARDED_BY(mutex_);
    std::optional<CommittedEnvelope> committed_envelope_ PV_GUARDED_BY(mutex_);
    DaemonStats stats_ PV_GUARDED_BY(mutex_);
};

}  // namespace pv::serve
