// Campaign-daemon serving bench: jobs/sec, turnaround percentiles, and
// the daemon's serving-path throughput — plus the contracts a serving
// tier must never trade for speed, enforced as exit gates:
//
//   job_stream  — a mixed characterize/campaign/fleet job stream
//                 through submit()/run_until_idle(): jobs/sec and
//                 per-job turnaround p50/p99 (measured per step());
//   dvfs_serve  — request_undervolt() throughput against a committed
//                 map (the benign-DVFS fast path);
//   resume      — a second daemon on the same state directory: full
//                 rehydration cost, gated on bit-identical queue
//                 fingerprints (resume identity);
//
// Exit gates (exit 1 on violation, CI-enforced):
//   - fail-closed serving: a fresh daemon DENIES, and every request
//     issued mid-re-characterization answers from the previous
//     committed map (pinned source job);
//   - resume identity: the rehydrated daemon's queue fingerprint and
//     served verdicts equal the original's;
//   - admission control: submits beyond max_queue_depth are Rejected,
//     the stream's accepted jobs all reach a terminal state.
//
// Emits BENCH_daemon.json (jobs_stream wall + p50/p99 rows, DVFS
// throughput, resume wall).  --quick shrinks the stream for the tier-1
// CI smoke step; gates are enforced in both modes.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/daemon.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace pv;

namespace {

serve::JobSpec nth_job(std::uint64_t n) {
    serve::JobSpec spec;
    spec.seed = mix_seed(0xBE4C'0DAC, n);
    switch (n % 4) {
        case 0:
        case 1:
            spec.kind = serve::JobKind::Characterize;
            spec.sweep_mode = (n % 4 == 1) ? 2 : 1;  // alternate Adaptive
            break;
        case 2:
            spec.kind = serve::JobKind::Fleet;
            spec.units = 2;
            break;
        default:
            spec.kind = serve::JobKind::Campaign;
            spec.campaign_attacks = 2;
            spec.campaign_defenses = 2;
            break;
    }
    return spec;
}

int gate_failures = 0;

void gate(bool ok, const char* claim) {
    if (ok) return;
    ++gate_failures;
    std::printf("GATE FAIL: %s\n", claim);
}

}  // namespace

int main(int argc, char** argv) {
    set_log_level(LogLevel::Error);
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) quick = true;
        else {
            std::fprintf(stderr, "usage: bench_daemon [--quick]\n");
            return 2;
        }
    }
    const std::uint64_t n_jobs = quick ? 12 : 48;
    const std::uint64_t n_dvfs = quick ? 20'000 : 200'000;

    const std::string state_dir =
        std::filesystem::temp_directory_path().string() + "/pv_bench_daemon";
    std::filesystem::remove_all(state_dir);

    serve::DaemonConfig config;
    config.state_dir = state_dir;
    config.max_queue_depth = n_jobs;  // admission probed separately below
    serve::CampaignDaemon daemon(config);

    // Gate: fail closed before anything is committed.
    gate(daemon.request_undervolt(Megahertz{3000.0}, Millivolts{-50.0}).decision ==
             serve::DvfsDecision::Denied,
         "fresh daemon must DENY benign DVFS");

    // --- job_stream: mixed jobs, per-job turnaround via step() -------
    std::vector<double> turnaround_ms;
    turnaround_ms.reserve(n_jobs);
    const bench::Stopwatch stream_watch;
    for (std::uint64_t n = 0; n < n_jobs; ++n) (void)daemon.submit(nth_job(n));
    while (true) {
        const bench::Stopwatch job_watch;
        if (!daemon.step()) break;
        turnaround_ms.push_back(job_watch.elapsed_ms());
    }
    const double stream_ms = stream_watch.elapsed_ms();
    const double jobs_per_sec =
        stream_ms > 0.0 ? 1000.0 * static_cast<double>(n_jobs) / stream_ms : 0.0;
    const double p50 = percentile(turnaround_ms, 50.0);
    const double p99 = percentile(turnaround_ms, 99.0);
    std::printf("job_stream: %llu jobs in %.1f ms (%.1f jobs/sec), turnaround "
                "p50 %.2f ms, p99 %.2f ms\n",
                static_cast<unsigned long long>(n_jobs), stream_ms, jobs_per_sec, p50,
                p99);
    const serve::DaemonStats stats = daemon.stats();
    gate(stats.jobs_completed == n_jobs, "every accepted job must complete");
    gate(stats.jobs_rejected == 0, "sized queue must reject nothing");

    // Gate: mid-flight serving pins the previous committed map.
    const serve::DvfsVerdict committed =
        daemon.request_undervolt(Megahertz{3000.0}, Millivolts{-400.0});
    gate(committed.decision == serve::DvfsDecision::Clamped,
         "deep request against a committed map must clamp");
    serve::JobSpec refresh = nth_job(0);
    refresh.seed = 0xF00D;
    const std::uint64_t refresh_id = daemon.submit(refresh);
    std::uint64_t midflight_checked = 0;
    bool midflight_ok = true;
    daemon.set_progress([&](const serve::JobRecord& job, std::uint64_t) {
        if (job.id != refresh_id) return;
        const serve::DvfsVerdict v =
            daemon.request_undervolt(Megahertz{3000.0}, Millivolts{-400.0});
        ++midflight_checked;
        midflight_ok = midflight_ok && v == committed;
    });
    daemon.run_until_idle();
    daemon.set_progress({});
    gate(midflight_checked > 0 && midflight_ok,
         "mid-characterization requests must serve the previous committed map");

    // --- dvfs_serve: the benign-DVFS fast path -----------------------
    const bench::Stopwatch dvfs_watch;
    std::uint64_t granted = 0;
    for (std::uint64_t n = 0; n < n_dvfs; ++n) {
        const double depth = -static_cast<double>(n % 400);
        const serve::DvfsVerdict v =
            daemon.request_undervolt(Megahertz{3000.0}, Millivolts{depth});
        if (v.decision == serve::DvfsDecision::Granted) ++granted;
    }
    const double dvfs_ms = dvfs_watch.elapsed_ms();
    const double dvfs_per_sec =
        dvfs_ms > 0.0 ? 1000.0 * static_cast<double>(n_dvfs) / dvfs_ms : 0.0;
    std::printf("dvfs_serve: %llu requests in %.1f ms (%.0f req/sec, %llu granted)\n",
                static_cast<unsigned long long>(n_dvfs), dvfs_ms, dvfs_per_sec,
                static_cast<unsigned long long>(granted));
    gate(granted > 0 && granted < n_dvfs,
         "serving sweep must both grant (shallow) and clamp (deep)");

    // --- resume: rehydration cost + identity gate --------------------
    const std::uint64_t queue_fp = daemon.queue_fingerprint();
    const bench::Stopwatch resume_watch;
    serve::CampaignDaemon revived(config);
    const double resume_ms = resume_watch.elapsed_ms();
    std::printf("resume: %llu jobs rehydrated in %.1f ms\n",
                static_cast<unsigned long long>(revived.jobs().size()), resume_ms);
    gate(revived.queue_fingerprint() == queue_fp,
         "rehydrated queue fingerprint must equal the original");
    gate(revived.stats().rehydration_drops == 0,
         "rehydration must verify every committed fingerprint");
    gate(revived.request_undervolt(Megahertz{3000.0}, Millivolts{-400.0}) ==
             daemon.request_undervolt(Megahertz{3000.0}, Millivolts{-400.0}),
         "rehydrated daemon must serve identical verdicts");

    // --- admission control gate --------------------------------------
    serve::DaemonConfig tiny = config;
    tiny.state_dir = state_dir + "_admission";
    tiny.max_queue_depth = 1;
    std::filesystem::remove_all(tiny.state_dir);
    serve::CampaignDaemon bouncer(tiny);
    (void)bouncer.submit(nth_job(0));
    const std::uint64_t overflow = bouncer.submit(nth_job(1));
    gate(bouncer.job(overflow)->state == serve::JobState::Rejected,
         "submit beyond max_queue_depth must be Rejected");

    bench::write_bench_json(
        "daemon",
        {{"jobs_stream", stream_ms, n_jobs, 1.0},
         {"job_turnaround_p50", p50, 1, 1.0},
         {"job_turnaround_p99", p99, 1, 1.0},
         {"dvfs_serve", dvfs_ms, n_dvfs, 1.0},
         {"daemon_resume", resume_ms, revived.jobs().size(), 1.0}});
    std::printf("-> BENCH_daemon.json\n");

    std::filesystem::remove_all(state_dir);
    std::filesystem::remove_all(tiny.state_dir);
    if (gate_failures != 0) {
        std::printf("%d gate(s) FAILED\n", gate_failures);
        return 1;
    }
    std::printf("all gates green\n");
    return 0;
}
