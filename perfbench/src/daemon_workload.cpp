// daemon_serve: a CampaignDaemon serving a closed-loop operator and an
// open-loop DVFS client at the same time.  The operator submits its
// next job only after step() returns; the seeded job mix is mostly
// 10 mV Bisection characterizations, some Adaptive ones, two-unit
// fleets and 1 x 2 campaign slices across the three profiles.  The DVFS
// client issues request_undervolt on a fixed, sleep-paced schedule.
// This is the only workload that writes: the queue WAL and every job's
// engine journal, next to the DVFS read path.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "open_loop.hpp"
#include "resilience/frames.hpp"
#include "serve/daemon.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace pvbench {
namespace {

namespace fs = std::filesystem;
using pv::serve::DvfsDecision;
using pv::serve::JobKind;
using pv::serve::JobSpec;

// The DVFS rate and the job mix in nth_job() are round figures chosen
// for the benchmark; no measured deployment supplies either.
constexpr std::int64_t kDvfsPeriodNs = 1'000'000;  // 1000 requests/s
constexpr std::uint64_t kJobsPerRound = 100;
/// Nominal rounds (100 jobs) per second on the reference host.
constexpr double kRoundsPerSecond = 4.0;
constexpr std::uint64_t kTracedJobs = 4 * kJobsPerRound;
constexpr unsigned kEngineWorkers = 1;
constexpr int kResumeRepeats = 9;
constexpr int kOverheadPairs = 4;

JobSpec nth_job(std::uint64_t seed, std::uint64_t n) {
    pv::Rng rng(pv::mix_seed(pv::mix_seed(seed, 0xDAE0), n));
    JobSpec spec;
    spec.seed = rng.next_u64();
    spec.profile_index = rng.uniform_below(3);
    spec.char_step_mv = 10.0;
    const std::uint64_t roll = rng.uniform_below(100);
    if (roll < 60) {
        spec.kind = JobKind::Characterize;
        spec.sweep_mode = 1;  // Bisection
    } else if (roll < 75) {
        spec.kind = JobKind::Characterize;
        spec.sweep_mode = 2;  // Adaptive
    } else if (roll < 90) {
        spec.kind = JobKind::Fleet;
        spec.units = 2;
    } else {
        spec.kind = JobKind::Campaign;
        spec.campaign_attacks = 1;
        spec.campaign_defenses = 2;
    }
    return spec;
}

/// The job whose completion gives the daemon its first committed map.
JobSpec first_map_job(std::uint64_t seed) {
    JobSpec spec;
    spec.kind = JobKind::Characterize;
    spec.seed = pv::mix_seed(seed, 0x5E7);
    spec.char_step_mv = 10.0;
    return spec;
}

pv::serve::DaemonConfig daemon_config(const std::string& dir) {
    pv::serve::DaemonConfig cfg;
    cfg.state_dir = dir;
    cfg.max_queue_depth = 8;
    cfg.workers = kEngineWorkers;
    return cfg;
}

/// The deep probe every serving check asks: always answered Clamped
/// from a committed map, so its source job identifies the map.
pv::serve::DvfsVerdict deep_probe(pv::serve::CampaignDaemon& daemon) {
    return daemon.request_undervolt(pv::Megahertz{3000.0}, pv::Millivolts{-400.0});
}

/// The CPUs the calling thread may run on.
std::vector<int> allowed_cpus(cpu_set_t& allowed) {
    CPU_ZERO(&allowed);
    std::vector<int> out;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return out;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
    return out;
}

/// Pins the calling thread to `cpu`; threads it starts afterwards
/// inherit the pin.
void pin_to(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

struct Booted {
    std::unique_ptr<pv::serve::CampaignDaemon> daemon;
    double setup_s = 0.0;
};

/// Set-up: a fresh state directory, a daemon on it (which must deny
/// DVFS), and the first job that commits a serving map.
Booted boot(Report& report, const std::string& dir, std::uint64_t seed) {
    fs::remove_all(dir);
    Booted out;
    const std::int64_t t0 = now_ns();
    out.daemon = std::make_unique<pv::serve::CampaignDaemon>(daemon_config(dir));
    report.check(deep_probe(*out.daemon).decision == DvfsDecision::Denied,
                 "a fresh daemon denies DVFS");
    (void)out.daemon->submit(first_map_job(seed));
    (void)out.daemon->step();
    out.setup_s = seconds_between(t0, now_ns());
    report.check(deep_probe(*out.daemon).decision == DvfsDecision::Clamped,
                 "the first committed map serves");
    return out;
}

/// The open-loop DVFS client, run on its own thread until stopped.
class DvfsClient {
public:
    /// The client may run on any of `cpus`, not just the operator's.
    DvfsClient(pv::serve::CampaignDaemon& daemon, std::uint64_t seed, Tracer& tracer,
               const cpu_set_t& cpus)
        : daemon_(daemon), rng_(pv::mix_seed(seed, 0xD7F5)), tracer_(tracer), cpus_(cpus) {
        call_us_.reserve(1 << 16);
        thread_ = std::thread([this] { body(); });
    }
    DvfsClient(const DvfsClient&) = delete;
    DvfsClient& operator=(const DvfsClient&) = delete;
    ~DvfsClient() { stop(); }

    void stop() {
        stop_.store(true);
        if (thread_.joinable()) thread_.join();
    }

    // Read after stop().
    [[nodiscard]] const std::vector<double>& call_us() const { return call_us_; }
    [[nodiscard]] const LatenessLog& lateness() const { return lateness_; }
    [[nodiscard]] std::uint64_t denied() const { return denied_; }
    [[nodiscard]] bool crashed() const { return crashed_; }

private:
    void body() {
        (void)pthread_setaffinity_np(pthread_self(), sizeof cpus_, &cpus_);
        try {
            const OpenLoop schedule{now_ns(), kDvfsPeriodNs};
            run_open_loop(
                schedule, [] { return now_ns(); },
                [](std::int64_t t) {
                    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
                        std::chrono::nanoseconds(t)));
                },
                [this] { return stop_.load(); },
                [this](std::uint64_t) {
                    const pv::Megahertz f{rng_.uniform(1000.0, 4000.0)};
                    const pv::Millivolts requested{-rng_.uniform(0.0, 200.0)};
                    const Tracer::Scope span(tracer_, "serve.dvfs");
                    const std::int64_t t0 = now_ns();
                    const pv::serve::DvfsVerdict v = daemon_.request_undervolt(f, requested);
                    call_us_.push_back(static_cast<double>(now_ns() - t0) / 1e3);
                    if (v.decision == DvfsDecision::Denied) ++denied_;
                },
                lateness_);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "DVFS client: %s\n", e.what());
            crashed_ = true;
        }
    }

    pv::serve::CampaignDaemon& daemon_;
    pv::Rng rng_;
    Tracer& tracer_;
    cpu_set_t cpus_;
    LatenessLog lateness_;
    std::vector<double> call_us_;
    std::uint64_t denied_ = 0;
    bool crashed_ = false;
    std::atomic<bool> stop_{false};
    std::thread thread_;  // last: starts after every member it uses
};

std::uint64_t directory_bytes(const std::string& dir) {
    std::uint64_t bytes = 0;
    for (const auto& entry : fs::recursive_directory_iterator(dir))
        if (entry.is_regular_file()) bytes += entry.file_size();
    return bytes;
}

/// Result fingerprints of the operator's jobs (ids after the set-up
/// job), and how many of them did not complete.
std::vector<std::uint64_t> job_fingerprints(const pv::serve::CampaignDaemon& daemon,
                                            std::uint64_t first_id, std::uint64_t count,
                                            std::uint64_t& incomplete) {
    std::vector<std::uint64_t> out;
    incomplete = 0;
    for (const pv::serve::JobRecord& job : daemon.jobs()) {
        if (job.id < first_id || job.id >= first_id + count) continue;
        if (job.state != pv::serve::JobState::Completed) ++incomplete;
        out.push_back(job.result_fingerprint);
    }
    return out;
}

}  // namespace

Report run_daemon_serve(const Options& opt) {
    Report report;
    const std::string dir = opt.work_dir + "/daemon_state";
    // The operator runs pinned, so the 1-wide engine pool each job starts
    // inherits its CPU and every hand-off of rows to the pool and back is
    // a thread switch on that CPU, not a wake-up of an idle vCPU.  It
    // moves to the next CPU each round, so a run samples every vCPU the
    // host gives it rather than the speed of one.
    cpu_set_t allowed;
    const std::vector<int> cpus = allowed_cpus(allowed);
    const auto pin_for_round = [&](std::uint64_t round) {
        if (!cpus.empty()) pin_to(cpus[round % cpus.size()]);
    };
    pin_for_round(0);

    // Set-up: repetition 0 boots the daemon that is measured; the others
    // boot throwaway daemons in a directory of their own.
    Booted booted;
    const auto setup_once = [&](int rep) {
        if (rep == 0) {
            booted = boot(report, dir, opt.seed);
            return booted.setup_s;
        }
        return boot(report, opt.work_dir + "/daemon_setup", setup_seed(opt.seed, rep)).setup_s;
    };
    const std::uint64_t planned =
        std::max(rounds_for(opt.seconds, kRoundsPerSecond), kTracedJobs / kJobsPerRound);
    std::vector<double> setup_s;
    run_due_setups(setup_s, 0, planned, setup_once);
    pv::serve::CampaignDaemon& daemon = *booted.daemon;
    const std::uint64_t first_id = daemon.jobs().size() + 1;

    // ---- untraced measured phase ----------------------------------------
    Tracer off(false);
    std::vector<double> job_ms, round_s;
    std::uint64_t jobs = 0, rounds = 0;
    DvfsClient dvfs(daemon, opt.seed, off, allowed);
    while (rounds < planned) {
        pin_for_round(rounds);
        run_due_setups(setup_s, rounds, planned, setup_once);
        const std::int64_t round_start = now_ns();
        for (std::uint64_t k = 0; k < kJobsPerRound; ++k) {
            const JobSpec spec = nth_job(opt.seed, jobs);
            const std::int64_t t0 = now_ns();
            (void)daemon.submit(spec);
            (void)daemon.step();
            const std::int64_t t1 = now_ns();
            job_ms.push_back(ms_between(t0, t1));
            ++jobs;
        }
        round_s.push_back(seconds_between(round_start, now_ns()));
        ++rounds;
    }
    dvfs.stop();
    run_due_setups(setup_s, planned, planned, setup_once);
    const double phase_s = sum(round_s);

    // ---- output checks ---------------------------------------------------
    std::uint64_t incomplete = 0;
    const std::vector<std::uint64_t> untraced_fps =
        job_fingerprints(daemon, first_id, jobs, incomplete);
    report.check(untraced_fps.size() == jobs && incomplete == 0, "every job completes");
    report.check(!dvfs.crashed(), "the DVFS client ran to the end");
    report.ops(jobs + dvfs.call_us().size(), incomplete + dvfs.denied());

    // Mid-flight requests serve the previous committed map, and the new
    // map serves once its job completes.
    for (const std::uint8_t mode : {std::uint8_t{1}, std::uint8_t{2}}) {
        const std::uint64_t before = deep_probe(daemon).source_job;
        JobSpec refresh = first_map_job(opt.seed + mode);
        refresh.sweep_mode = mode;
        const std::uint64_t id = daemon.submit(refresh);
        std::uint64_t midflight = 0, stale = 0;
        daemon.set_progress([&](const pv::serve::JobRecord& job, std::uint64_t) {
            if (job.id != id) return;
            ++midflight;
            if (deep_probe(daemon).source_job != before) ++stale;
        });
        (void)daemon.step();
        daemon.set_progress({});
        report.check(midflight > 0 && stale == 0,
                     "mid-flight requests serve the previous committed map");
        report.check(deep_probe(daemon).source_job == id, "the new map serves after commit");
    }

    // Resume: reopen the final state directory (rehydration through the
    // first verdict); the queue and the verdicts must come back equal.
    const std::uint64_t queue_fp = daemon.queue_fingerprint();
    const pv::serve::DvfsVerdict served = deep_probe(daemon);
    booted = {};
    std::vector<double> resume_ms;
    for (int rep = 0; rep < kResumeRepeats; ++rep) {
        const std::int64_t t0 = now_ns();
        pv::serve::CampaignDaemon revived(daemon_config(dir));
        const pv::serve::DvfsVerdict v = deep_probe(revived);
        resume_ms.push_back(ms_between(t0, now_ns()));
        report.check(revived.queue_fingerprint() == queue_fp,
                     "the resumed queue fingerprint is equal");
        report.check(revived.stats().rehydration_drops == 0, "no rehydration drops");
        report.check(v == served, "the resumed daemon serves the same verdict");
        report.ops(1, v.decision == DvfsDecision::Denied ? 1 : 0);
    }

    report.end_to_end("setup_s", median(setup_s), "s", setup_note(setup_s));
    report.end_to_end("wall_s", median(round_s), "s",
                      "median round (100 jobs) of " + std::to_string(rounds));
    report.end_to_end("peak_rss_mb", peak_rss_mb(), "MiB");
    report.end_to_end("ops_per_s", static_cast<double>(jobs) / phase_s, "1/s",
                      std::to_string(jobs) + " jobs");
    report.layer("serve.job_ms_p50", median(job_ms), "ms", "n=" + std::to_string(jobs));
    report.layer_tail("serve.job_ms_p99", tail(job_ms, 990), "ms");
    report.layer("serve.dvfs_us_p50", median(dvfs.call_us()), "us",
                 "n=" + std::to_string(dvfs.call_us().size()));
    report.layer("serve.resume_ms", median(resume_ms), "ms");
    report.layer_tail("serve.dvfs_us_p99", tail(dvfs.call_us(), 990), "us");
    report.layer_tail("serve.client_late_us_p99", tail(dvfs.lateness().late_us(), 990), "us");
    if (!opt.trace) return report;

    // ---- traced phase: kTracedJobs jobs on a fresh daemon, run
    // kOverheadPairs times, each paired with an untraced twin (a fresh
    // daemon, the same jobs), the twin first in even pairs and second in
    // odd ones; pass 0's spans and counts are the ones reported -----------
    struct JobTimes {
        std::uint64_t hooks = 0;
        std::vector<double> start_ms, commit_ms;
    };
    struct Pass {
        double seconds = 0.0;
        std::vector<std::uint64_t> fingerprints;
    };
    const auto run_pass = [&](const std::string& pass_dir, Tracer& tracer, JobTimes* times) {
        Booted booted_pass = boot(report, pass_dir, opt.seed);
        pv::serve::CampaignDaemon& d = *booted_pass.daemon;
        std::int64_t step_start = 0, last_hook = 0;
        if (times != nullptr)
            d.set_progress([&](const pv::serve::JobRecord&, std::uint64_t) {
                const std::int64_t t = now_ns();
                if (last_hook == 0) times->start_ms.push_back(ms_between(step_start, t));
                last_hook = t;
                ++times->hooks;
            });
        DvfsClient client(d, opt.seed, tracer, allowed);
        Pass out;
        const std::int64_t t0 = now_ns();
        for (std::uint64_t n = 0; n < kTracedJobs; ++n) {
            const JobSpec spec = nth_job(opt.seed, n);
            const Tracer::Scope job(tracer, "serve.job", n + 1);
            {
                const Tracer::Scope submit(tracer, "resilience.submit");
                (void)d.submit(spec);
            }
            const Tracer::Scope step(tracer, "serve.step");
            step_start = now_ns();
            last_hook = 0;
            (void)d.step();
            if (times != nullptr && last_hook != 0)
                times->commit_ms.push_back(ms_between(last_hook, now_ns()));
        }
        out.seconds = seconds_between(t0, now_ns());
        client.stop();
        d.set_progress({});
        std::uint64_t pass_incomplete = 0;
        out.fingerprints = job_fingerprints(d, first_id, kTracedJobs, pass_incomplete);
        report.ops(kTracedJobs + client.call_us().size(), pass_incomplete + client.denied());
        return out;
    };

    const std::string traced_dir = opt.work_dir + "/daemon_traced";
    const std::vector<std::uint64_t> expected(untraced_fps.begin(),
                                              untraced_fps.begin() + kTracedJobs);
    Tracer tracer(true);
    JobTimes times;
    std::vector<double> traced_s, twin_s;
    for (int k = 0; k < kOverheadPairs; ++k) {
        Tracer spare_tracer(true);
        JobTimes spare_times;
        for (const bool traced : {k % 2 != 0, k % 2 == 0}) {
            const Pass pass =
                !traced  ? run_pass(opt.work_dir + "/daemon_twin", off, nullptr)
                : k == 0 ? run_pass(traced_dir, tracer, &times)
                         : run_pass(opt.work_dir + "/daemon_traced_spare", spare_tracer,
                                    &spare_times);
            (traced ? traced_s : twin_s).push_back(pass.seconds);
            report.check(pass.fingerprints == expected,
                         "traced and untraced job fingerprints match");
        }
    }
    const std::uint64_t frames =
        pv::resilience::FrameLog::resume(traced_dir + "/daemon.wal", {}).frames().size();

    const std::vector<Span> spans = tracer.spans();
    report.layer("resilience.submit_us_p50",
                 median(durations_ms(spans, "resilience.submit")) * 1e3, "us");
    report.layer("resilience.unit_commits", static_cast<double>(times.hooks), "count");
    report.layer("resilience.state_bytes", static_cast<double>(directory_bytes(traced_dir)),
                 "bytes");
    report.layer("serve.start_ms_p50", median(times.start_ms), "ms");
    report.layer("serve.commit_ms_p50", median(times.commit_ms), "ms");
    report.layer("serve.resume_frames", static_cast<double>(frames), "count");
    report.layer("bench.trace_overhead_pct", overhead_pct(median(traced_s), median(twin_s)),
                 "%", "median of " + std::to_string(kOverheadPairs) +
                          " traced passes vs untraced twins");
    report.check(tracer.write_json(opt.work_dir + "/spans_daemon_serve.json"),
                 "span dump written");
    return report;
}

}  // namespace pvbench
