// Campaign demo / driver: the full {attack} x {defense} x {profile}
// cube as one sharded, replayable workload (ISSUE: adversarial campaign
// engine).
//
// Default run:
//   1. execute the full cube sharded across the thread pool;
//   2. execute it again single-threaded and compare every cell
//      fingerprint (the engine's order-independence contract);
//   3. check the paper's efficacy claims hold in every profile's matrix
//      (Sec. 4.3 / Sec. 6): the maximal-safe polling deployment and the
//      vendor deployments block every software attack, access control
//      denies benign DVFS, Minefield loses to SGX-Step zero-stepping;
//   4. render the per-profile matrices and write CAMPAIGN_report.json /
//      CAMPAIGN_report.csv + BENCH_campaign.json.
// Exit code 0 = all green.
//
// Replay any cell bit-exactly:
//   campaign_demo --replay <seed>:<cell>     (seed decimal or 0x-hex)
// prints the cell's full record; running it twice prints identical
// fingerprints, and the fingerprint equals the same cell's entry in a
// full run with that campaign seed.
//
// Crash-tolerant runs:
//   campaign_demo --journal run.pvcj          (cell-granular WAL)
//   campaign_demo --journal run.pvcj --resume (adopt journaled cells)
// Every completed cell (and every dead retry attempt) is committed to
// the journal write-ahead; a killed run resumed on the same journal
// adopts the durable cells bit-for-bit, fast-forwards journaled retry
// attempts, and ends with the SAME report fingerprint as an
// uninterrupted run.  --resume on a missing journal is an error (it
// exists to catch typos in recovery scripts; a fresh --journal run
// resumes an existing file automatically).
//
// Other flags: --seed N, --workers N, --quick (coarse tuning for smoke
// runs), --no-serial-check (skip step 2), --trace out.json (write a
// Chrome trace-event file — load it in chrome://tracing or Perfetto —
// plus a compact CSV next to it; virtual-clock timestamps, so the file
// is byte-identical whatever the worker count).
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/report.hpp"
#include "trace/recorder.hpp"
#include "util/fsio.hpp"
#include "util/log.hpp"

using namespace pv;

namespace {

campaign::AttackTuning quick_tuning() {
    campaign::AttackTuning tuning;
    tuning.scan_step = Millivolts{8.0};
    tuning.probe_ops = 20'000;
    tuning.runs_per_offset = 8;
    return tuning;
}

void print_cell(const campaign::CampaignCellResult& cell) {
    const attack::AttackResult& r = cell.attack_result;
    std::printf("cell %zu: %s vs %s on %s\n", cell.spec.index,
                campaign::to_string(cell.spec.attack),
                campaign::to_string(cell.spec.defense), cell.profile_name.c_str());
    std::printf("  cell seed      0x%016" PRIx64 "\n", cell.spec.seed);
    std::printf("  verdict        %s\n", cell.verdict.c_str());
    std::printf("  faults         %" PRIu64 "  weaponized: %s%s%s\n", r.faults_observed,
                r.weaponized ? "yes" : "no", r.weaponization.empty() ? "" : " - ",
                r.weaponization.c_str());
    std::printf("  crashes        %u (in-attack)  attempts %u  rebuilds %u\n", r.crashes,
                cell.attempts, cell.machine_rebuilds);
    std::printf("  OCM writes     %" PRIu64 " attempted, %" PRIu64 " effective\n",
                r.writes_attempted, r.writes_effective);
    if (cell.polling)
        std::printf("  polling        %" PRIu64 " polls, %" PRIu64 " detections, %" PRIu64
                    " restores, %" PRIu64 " freq drops, %" PRIu64 " rail-watch hits\n",
                    cell.polling->polls, cell.polling->detections,
                    cell.polling->restore_writes, cell.polling->freq_drops,
                    cell.polling->rail_watch_detections);
    std::printf("  audit          %" PRIu64 " violations over %" PRIu64 " accesses\n",
                cell.audit_violations, cell.audited_accesses);
    std::printf("  machine hash   0x%016" PRIx64 "\n", cell.machine_state_hash);
    std::printf("  fingerprint    0x%016" PRIx64 "\n", campaign::fingerprint(cell));
}

void print_matrices(const campaign::CampaignConfig& config,
                    const campaign::CampaignReport& report) {
    for (std::size_t p = 0; p < config.profiles.size(); ++p) {
        std::printf("\n=== Campaign matrix: %s (%s) ===\n",
                    config.profiles[p].codename.c_str(), config.profiles[p].name.c_str());
        std::vector<std::string> header = {"defense"};
        for (const auto attack : config.attacks)
            header.emplace_back(campaign::to_string(attack));
        Table table(header);
        for (std::size_t d = 0; d < config.defenses.size(); ++d) {
            std::vector<std::string> row = {campaign::to_string(config.defenses[d])};
            for (std::size_t a = 0; a < config.attacks.size(); ++a) {
                const std::size_t index =
                    (p * config.defenses.size() + d) * config.attacks.size() + a;
                row.push_back(report.cells[index].verdict);
            }
            table.add_row(row);
        }
        std::printf("%s", table.render().c_str());
    }
    std::printf("\n");
}

/// The efficacy claims the demo holds the whole cube to, on EVERY
/// profile (campaign_demo is "green" iff these all pass).  `full_tuning`
/// is false under --quick, which skips the one probabilistic claim that
/// needs the full per-offset run budget.
int check_efficacy(const campaign::CampaignReport& report, bool full_tuning) {
    using campaign::AttackKind;
    using campaign::DefenseKind;
    int failures = 0;
    auto fail = [&](const campaign::CampaignCellResult& cell, const char* claim) {
        ++failures;
        std::printf("EFFICACY FAIL [%s vs %s on %s]: %s (verdict: %s)\n",
                    campaign::to_string(cell.spec.attack),
                    campaign::to_string(cell.spec.defense), cell.profile_name.c_str(),
                    claim, cell.verdict.c_str());
    };

    for (const auto& cell : report.cells) {
        const AttackKind atk = cell.spec.attack;
        const DefenseKind def = cell.spec.defense;
        const attack::AttackResult& r = cell.attack_result;
        const bool software_attack =
            atk != AttackKind::VoltPillager && atk != AttackKind::BenignUndervolt;

        // Sec. 4.3: an undefended machine falls to Plundervolt.
        if (def == DefenseKind::None && atk == AttackKind::Plundervolt && !r.weaponized)
            fail(cell, "plundervolt must weaponize with no defense");

        // Sec. 5: the maximal-safe polling restore and both vendor
        // deployments enforce safety at the WRITE, closing every
        // software attack including the transition races.
        if ((def == DefenseKind::PollingMaximalSafe || def == DefenseKind::Microcode ||
             def == DefenseKind::MsrClamp) &&
            software_attack && (r.faults_observed > 0 || r.weaponized))
            fail(cell, "write-enforcing deployments must block every software attack");

        // Sec. 4.3: the paper's kernel module blocks the published
        // attack families (the precise/descending transition races are
        // the residual Sec. 5 motivates — not asserted here).
        if (def == DefenseKind::PollingSafeLimit &&
            (atk == AttackKind::Plundervolt || atk == AttackKind::VoltJockey ||
             atk == AttackKind::V0ltpwn || atk == AttackKind::V0ltpwnSgxStep) &&
            (r.faults_observed > 0 || r.weaponized))
            fail(cell, "polling module must block the published attack families");

        // The rail watchdog compares measured (0x198) against commanded
        // rail state, so hardware SVID injection is always *detected*
        // and answered with the frequency lever.  Whether the clamp
        // lands before the injected sag faults is part-specific (on the
        // Sky Lake part the fault band reaches below the clamped
        // frequency's floor), so the invariant is detection + response,
        // not prevention.
        if ((def == DefenseKind::PollingSafeLimit || def == DefenseKind::PollingMaximalSafe ||
             def == DefenseKind::PollingRestoreZero) &&
            atk == AttackKind::VoltPillager &&
            (!cell.polling || cell.polling->rail_watch_detections == 0))
            fail(cell, "rail watchdog must detect VoltPillager injection");

        // Sec. 4.1: SA-00289 denies benign DVFS outright...
        if (def == DefenseKind::AccessControl && atk == AttackKind::BenignUndervolt &&
            cell.verdict != "DENIED")
            fail(cell, "access control must deny benign undervolting");
        // ...while the paper's deployments keep it alive.
        if ((def == DefenseKind::PollingSafeLimit || def == DefenseKind::PollingNoRailWatch) &&
            atk == AttackKind::BenignUndervolt && cell.verdict != "full")
            fail(cell, "safe-limit polling must keep full benign undervolting");
        if ((def == DefenseKind::PollingMaximalSafe || def == DefenseKind::Microcode ||
             def == DefenseKind::MsrClamp) &&
            atk == AttackKind::BenignUndervolt && cell.verdict != "clamped" &&
            cell.verdict != "full")
            fail(cell, "maximal-safe deployments clamp but never deny benign undervolts");
        if (def == DefenseKind::None && atk == AttackKind::BenignUndervolt &&
            cell.verdict != "full")
            fail(cell, "benign undervolting must work on an undefended machine");

        // Sec. 4.1: Minefield deflects the un-stepped fault but loses to
        // SGX-Step zero-stepping.
        if (def == DefenseKind::Minefield && atk == AttackKind::V0ltpwn && r.weaponized)
            fail(cell, "minefield must deflect the un-stepped V0LTpwn fault");
        // Only a fault on the LAST mul of the window escapes the trap
        // instrumentation (~1/32 of faulty runs), so the bypass needs
        // the full runs_per_offset budget — --quick's 8 runs per offset
        // cannot land it and the claim is skipped there.
        if (full_tuning && def == DefenseKind::Minefield &&
            atk == AttackKind::V0ltpwnSgxStep && !r.weaponized)
            fail(cell, "zero-stepping must bypass minefield");

        // Engine health: no cell may end permanently dead.
        if (cell.verdict.find("machine dead") != std::string::npos)
            fail(cell, "cell exhausted its retries with a dead machine");
    }
    return failures;
}

std::string trace_csv_path(const std::string& json_path) {
    const std::string suffix = ".json";
    if (json_path.size() > suffix.size() &&
        json_path.compare(json_path.size() - suffix.size(), suffix.size(), suffix) == 0)
        return json_path.substr(0, json_path.size() - suffix.size()) + ".csv";
    return json_path + ".csv";
}

constexpr const char* kUsage =
    "campaign_demo [--seed N] [--workers N] [--quick]\n"
    "                     [--no-serial-check] [--replay seed:cell]\n"
    "                     [--trace out.json]\n"
    "                     [--journal run.pvcj] [--resume]";

/// A --replay argument, `<seed>:<cell>`, each part parsed strictly.
struct ReplaySpec {
    std::uint64_t seed = 0;
    std::uint64_t cell = 0;
};

ReplaySpec parse_replay(const char* text) {
    const std::string spec(text);
    const std::size_t colon = spec.find(':');
    if (colon == std::string::npos) {
        std::fprintf(stderr, "--replay wants <seed>:<cell>, got '%s'\nusage: %s\n", text,
                     kUsage);
        std::exit(2);
    }
    return {bench::parse_u64(spec.substr(0, colon).c_str(), "replay seed", kUsage),
            bench::parse_u64(spec.substr(colon + 1).c_str(), "replay cell", kUsage)};
}

}  // namespace

int main(int argc, char** argv) {
    // Audit findings are tallied per cell; the per-access warn lines
    // would swamp the matrix output.
    set_log_level(LogLevel::Error);

    campaign::CampaignConfig config;
    bool serial_check = true;
    bool quick = false;
    std::optional<ReplaySpec> replay;
    const char* trace_path = nullptr;
    const char* journal_path = nullptr;
    bool resume = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--seed") config.seed = bench::parse_u64(next(), "seed", kUsage);
        else if (arg == "--workers")
            config.workers =
                bench::parse_workers(next(), 0, "campaign_demo --workers N (0 = default)");
        else if (arg == "--quick") {
            quick = true;
            config.tuning = quick_tuning();
            config.char_step = Millivolts{5.0};
        }
        else if (arg == "--no-serial-check") serial_check = false;
        else if (arg == "--replay") replay = parse_replay(next());
        else if (arg == "--trace") trace_path = next();
        else if (arg == "--journal") journal_path = next();
        else if (arg == "--resume") resume = true;
        else {
            std::fprintf(stderr, "usage: %s\n", kUsage);
            return 2;
        }
    }
    if (resume && journal_path == nullptr) {
        std::fprintf(stderr, "--resume needs --journal <path>\n");
        return 2;
    }
    if (resume && !file_exists(journal_path)) {
        std::fprintf(stderr, "--resume: no journal at %s\n", journal_path);
        return 2;
    }

    // Per-cell ring capacity: the cube has hundreds of cells, so each
    // track keeps its most recent 4096 events (the coarse stream fits;
    // the fine stream keeps its tail, which is the interesting part).
    trace::TraceSession trace_session(4096);
    if (trace_path) config.trace = &trace_session;

    if (replay) {
        const std::uint64_t seed = replay->seed;
        const std::size_t index = replay->cell;
        config.seed = seed;
        campaign::CampaignEngine engine(config);
        const std::vector<campaign::CellSpec> specs = engine.cells();
        if (index >= specs.size()) {
            std::fprintf(stderr, "cell %zu outside the cube (%zu cells)\n", index,
                         specs.size());
            return 2;
        }
        std::printf("=== Replaying cell %zu of campaign seed 0x%016" PRIx64 " ===\n",
                    index, seed);
        print_cell(engine.run_cell(specs[index]));
        if (trace_path) {
            trace_session.write_chrome_json(trace_path);
            trace_session.write_csv(trace_csv_path(trace_path));
            std::printf("trace: %" PRIu64 " events on %zu track(s) -> %s\n",
                        trace_session.event_count(), trace_session.track_count(),
                        trace_path);
        }
        return 0;
    }

    campaign::CampaignEngine engine(config);
    const std::size_t n_cells =
        config.attacks.size() * config.defenses.size() * config.profiles.size();
    std::printf("=== Adversarial campaign: %zu attacks x %zu defenses x %zu profiles "
                "= %zu cells (seed 0x%016" PRIx64 ", %u workers) ===\n",
                config.attacks.size(), config.defenses.size(), config.profiles.size(),
                n_cells, config.seed, engine.config().workers);

    bench::Stopwatch sharded_watch;
    campaign::CampaignReport report;
    if (journal_path != nullptr) {
        campaign::CampaignJournal journal =
            campaign::CampaignJournal::open(journal_path, engine.config_hash());
        report = engine.run(journal);
        const campaign::CampaignRunStats& stats = engine.run_stats();
        std::printf("journal %s: %" PRIu64 " cell(s) adopted, %" PRIu64
                    " executed, %" PRIu64 " retry attempt(s) fast-forwarded\n",
                    journal_path, stats.cells_adopted, stats.cells_executed,
                    stats.attempts_fast_forwarded);
    } else {
        report = engine.run();
    }
    const double sharded_ms = sharded_watch.elapsed_ms();
    std::printf("sharded run: %.0f ms, %zu cells, %zu weaponized\n", sharded_ms,
                report.cells.size(), report.weaponized_count());

    if (trace_path) {
        trace_session.write_chrome_json(trace_path);
        trace_session.write_csv(trace_csv_path(trace_path));
        std::printf("trace: %" PRIu64 " events on %zu tracks -> %s + %s\n",
                    trace_session.event_count(), trace_session.track_count(), trace_path,
                    trace_csv_path(trace_path).c_str());
    }

    int failures = 0;
    double serial_ms = 0.0;
    if (serial_check) {
        campaign::CampaignConfig serial_config = config;
        serial_config.workers = 1;
        serial_config.trace = nullptr;  // the sharded run already owns the trace
        campaign::CampaignEngine serial_engine(serial_config);
        bench::Stopwatch serial_watch;
        const campaign::CampaignReport serial_report = serial_engine.run();
        serial_ms = serial_watch.elapsed_ms();
        std::printf("single-thread run: %.0f ms\n", serial_ms);
        for (std::size_t i = 0; i < report.cells.size(); ++i) {
            const std::uint64_t sharded_fp = campaign::fingerprint(report.cells[i]);
            const std::uint64_t serial_fp = campaign::fingerprint(serial_report.cells[i]);
            if (sharded_fp != serial_fp) {
                ++failures;
                std::printf("FINGERPRINT MISMATCH cell %zu: sharded 0x%016" PRIx64
                            " vs single-thread 0x%016" PRIx64 "\n",
                            i, sharded_fp, serial_fp);
            }
        }
        if (report.fingerprint() != serial_report.fingerprint()) ++failures;
        std::printf("replay determinism: every cell re-executable bit-exactly via "
                    "`campaign_demo --replay 0x%" PRIx64 ":<cell>` — sharded vs "
                    "single-thread fingerprints %s\n",
                    config.seed, failures == 0 ? "IDENTICAL" : "DIVERGED");
    }

    print_matrices(config, report);
    failures += check_efficacy(report, /*full_tuning=*/!quick);

    report.write_json("CAMPAIGN_report.json");
    report.write_csv("CAMPAIGN_report.csv");
    std::printf("report fingerprint 0x%016" PRIx64 " -> CAMPAIGN_report.{json,csv}\n",
                report.fingerprint());
    bench::write_bench_json(
        "campaign",
        {{"sharded_full_cube", sharded_ms, n_cells,
          serial_ms > 0.0 ? serial_ms / sharded_ms : 1.0},
         {"single_thread_full_cube", serial_ms, serial_check ? n_cells : 0, 1.0}});

    if (failures != 0) {
        std::printf("\n%d check(s) FAILED\n", failures);
        return 1;
    }
    std::printf("\nall checks green\n");
    return 0;
}
