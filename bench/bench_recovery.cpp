// Crash-recovery economics of the write-ahead sweep journal.
//
// A journaled sweep buys crash-resilience with two currencies: commit
// overhead on the uninterrupted path, and bytes written to disk (write
// amplification, for the AtomicRewrite mode that keeps every on-disk
// state a complete journal).  This bench prices both, and then measures
// the payoff: a sweep killed half-way and resumed from its journal
// recomputes only the missing rows, at a fraction of the fresh cost,
// while reproducing the fresh map state_hash-bit-identically.
//
// Variants (Comet Lake, 1 mV cells, bisection, 4 workers):
//   fresh              — no journal (the baseline everything is judged by)
//   journal-append     — journaled, one write(2) per completed row
//   journal-rewrite    — journaled, full atomic rewrite per commit
//   resume@50%         — killed after half the rows, then resumed
//
// Emits BENCH_recovery.json: wall-clock per variant, cells probed, and
// speedup vs fresh (resume > 1 means recovery is cheaper than redoing).
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "resilience/journal.hpp"

using namespace pv;

namespace {

struct KillSignal {};

plugvolt::ParallelCharacterizerConfig bench_config(unsigned workers) {
    plugvolt::ParallelCharacterizerConfig config;
    config.workers = workers;
    config.mode = plugvolt::SweepMode::Bisection;
    return config;
}

}  // namespace

int main(int argc, char** argv) {
    const unsigned workers =
        argc > 1 ? bench::parse_workers(argv[1], 1, "bench_recovery [workers]") : 4u;
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();
    const std::string path = "bench_recovery.pvj";
    std::vector<bench::BenchRecord> records;

    std::printf("=== Sweep journal recovery economics (%s, %zu frequencies, "
                "bisection, %u workers) ===\n\n",
                profile.codename.c_str(), profile.frequency_table().size(), workers);

    // Baseline: the uninterrupted, unjournaled sweep.
    plugvolt::ParallelCharacterizer engine(profile, bench_config(workers));
    const bench::Stopwatch fresh_watch;
    const plugvolt::SafeStateMap fresh_map = engine.characterize();
    const double fresh_ms = fresh_watch.elapsed_ms();
    const std::uint64_t fresh_cells = engine.stats().cells_evaluated;
    const std::uint64_t fresh_hash = plugvolt::state_hash(fresh_map);
    records.push_back({"fresh", fresh_ms, fresh_cells, 1.0});
    std::printf("%-16s %8.1f ms  %6llu cells\n", "fresh", fresh_ms,
                static_cast<unsigned long long>(fresh_cells));

    // Journaled variants: same sweep, commit overhead included.
    for (const auto mode :
         {resilience::CommitMode::Append, resilience::CommitMode::AtomicRewrite}) {
        resilience::JournalOptions options;
        options.mode = mode;
        std::remove(path.c_str());
        resilience::SweepJournal journal =
            resilience::SweepJournal::open(path, engine.config_hash(), options);
        const bench::Stopwatch watch;
        const plugvolt::SafeStateMap map = engine.characterize(journal);
        const double ms = watch.elapsed_ms();
        if (plugvolt::state_hash(map) != fresh_hash) {
            std::fprintf(stderr, "FATAL: journaled map diverged from fresh map\n");
            return 1;
        }
        const std::string name =
            std::string("journal-") +
            (mode == resilience::CommitMode::Append ? "append" : "rewrite");
        records.push_back({name, ms, engine.stats().cells_evaluated, fresh_ms / ms});
        const double amplification =
            static_cast<double>(journal.bytes_written()) /
            static_cast<double>(journal.logical_bytes());
        std::printf("%-16s %8.1f ms  %6llu cells  %5llu B logical, %llu B written "
                    "(x%.1f write amplification)\n",
                    name.c_str(), ms,
                    static_cast<unsigned long long>(engine.stats().cells_evaluated),
                    static_cast<unsigned long long>(journal.logical_bytes()),
                    static_cast<unsigned long long>(journal.bytes_written()),
                    amplification);
    }

    // The payoff: kill the sweep after half its rows, then resume.
    {
        std::remove(path.c_str());
        resilience::SweepJournal journal =
            resilience::SweepJournal::open(path, engine.config_hash());
        const std::uint64_t kill_after = profile.frequency_table().size() / 2;
        std::uint64_t delivered = 0;
        try {
            (void)engine.characterize(journal,
                                      [&](const plugvolt::FreqCharacterization&) {
                                          if (++delivered == kill_after) throw KillSignal{};
                                      });
            std::fprintf(stderr, "FATAL: kill signal never fired\n");
            return 1;
        } catch (const KillSignal&) {
        }

        resilience::SweepJournal recovered =
            resilience::SweepJournal::open(path, engine.config_hash());
        const bench::Stopwatch watch;
        const plugvolt::SafeStateMap map = engine.characterize(recovered);
        const double ms = watch.elapsed_ms();
        if (plugvolt::state_hash(map) != fresh_hash) {
            std::fprintf(stderr, "FATAL: resumed map diverged from fresh map\n");
            return 1;
        }
        records.push_back({"resume@50%", ms, engine.stats().cells_evaluated, fresh_ms / ms});
        std::printf("%-16s %8.1f ms  %6llu cells  (%llu rows adopted from journal, "
                    "x%.1f vs fresh)\n",
                    "resume@50%", ms,
                    static_cast<unsigned long long>(engine.stats().cells_evaluated),
                    static_cast<unsigned long long>(engine.stats().rows_resumed),
                    fresh_ms / ms);
    }

    std::remove(path.c_str());
    const std::string out = bench::write_bench_json("recovery", records);
    std::printf("\nall variants reproduce state_hash %016llx bit-identically\n",
                static_cast<unsigned long long>(fresh_hash));
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
