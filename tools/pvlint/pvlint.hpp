// pv-lint — domain-contract static analyzer for the PlugVolt tree.
//
// Generic tooling (clang-tidy, -Wthread-safety, sanitizers) cannot see
// the contracts this repo's guarantees rest on: bit-exact replay
// fingerprints, the subsystem layering DAG, the audited-MSR-driver
// story, the annotated concurrency wrappers, and the no-throw error
// paths of the resilience layer.  pv-lint enforces those five contract
// families with a token-level scanner and an include-graph walker — no
// libclang, no compiler, so it runs anywhere the repo checks out
// (including the clang-free 1-CPU container the PR 2 sanitizer matrix
// cannot cover).
//
// Rule families (ids are what waivers and the baseline reference):
//   determinism-rng        std::random_device / rand() / srand() anywhere
//   determinism-clock      wall/monotonic clocks outside the sanctioned
//                          bench-timer allowlist (bench/bench_common.hpp)
//   determinism-unordered  unordered containers in fingerprint-bearing
//                          subsystems (src/sim, src/plugvolt,
//                          src/campaign, src/trace)
//   layering               cross-subsystem #include that climbs or ties
//                          the subsystem DAG; internal trace headers
//                          included from outside src/trace
//   layering-cycle         a cycle in the file-level include graph
//   msr-constant           a raw MSR register number (0x150, 0x198, ...)
//                          outside the central registry src/os/msr_regs.hpp
//   msr-raw-access         .write_msr()/.read_msr() machine-level access
//                          outside src/sim + src/os (must go through the
//                          audited MsrDriver)
//   concurrency-primitive  std::mutex / std::condition_variable & friends
//                          instead of the annotated pv::Mutex/CondVar
//   concurrency-guard      a Mutex declaration in a file with no
//                          PV_GUARDED_BY field (a lock that guards
//                          nothing the analysis can see)
//   error-path-throw       the throwing driver API (.ioctl_wrmsr(); the
//                          deleted .rdmsr(), .wrmsr(), .ioctl_rdmsr() stay
//                          listed) in src/resilience or the
//                          polling/degradation paths, where domain
//                          outcomes must be values (try_*), not exceptions
//   waiver                 a malformed pv-lint waiver comment (missing
//                          reason, unknown rule); never waivable itself
//
// Waiver syntax, reason mandatory:
//   code();  // pv-lint: allow(rule-id[,rule-id...]) why this is sound
// A waiver on a comment-only line applies to the next line instead.
//
// The --unused-public report: each public function or type declared in
// src/**/*.hpp whose name no file outside the header's own .hpp/.cpp
// pair and tests/ mentions; a member function counts as mentioned only
// as `.name`, `->name` or `Type::name`.  It matches tokens, not symbols,
// so a common name used anywhere hides a dead declaration, and a name
// reached only through a macro shows up.  Its baseline,
// tools/pvlint/unused_public.txt, holds the names kept on purpose, each
// with its reason.  New names are info-only; a stale baseline entry (a
// kept name now used, or gone) fails the run.
//
// Baseline: a committed file of "file:line:rule" keys (see
// tools/pvlint/baseline.txt) accepted without inline waivers — the
// escape hatch for adopting the linter on a tree with legacy findings.
// This tree ships lint-clean, so the committed baseline is empty.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace pvlint {

enum class Rule {
    DeterminismRng,
    DeterminismClock,
    DeterminismUnordered,
    Layering,
    LayeringCycle,
    MsrConstant,
    MsrRawAccess,
    ConcurrencyPrimitive,
    ConcurrencyGuard,
    ErrorPathThrow,
    Waiver,
};

/// Kebab-case rule id, e.g. "determinism-rng".
[[nodiscard]] const char* rule_name(Rule rule);
[[nodiscard]] std::optional<Rule> rule_from_name(std::string_view name);
/// Every real rule id (excludes nothing; includes "waiver").
[[nodiscard]] const std::vector<Rule>& all_rules();

struct Finding {
    std::string file;  ///< root-relative, '/'-separated
    int line = 0;      ///< 1-based
    Rule rule = Rule::Waiver;
    std::string message;
    bool waived = false;     ///< suppressed by a well-formed inline waiver
    bool baselined = false;  ///< suppressed by the committed baseline
};

/// One inline waiver comment, keyed by the line it targets.
struct Waiver {
    std::set<Rule> rules;
    bool has_reason = false;
    int comment_line = 0;  ///< where the comment itself sits
};

/// A loaded source file: raw lines for waiver parsing, code lines with
/// comments and string/char literals blanked (spaces, line structure
/// preserved) for token rules.
struct SourceFile {
    std::string rel;
    std::vector<std::string> raw;
    std::vector<std::string> code;
    std::map<int, Waiver> waivers;          ///< target line -> waiver
    std::vector<Finding> waiver_findings;   ///< malformed waiver comments
};

struct Config {
    std::filesystem::path root;
    /// Directories under root to scan (first path component, e.g. "src").
    std::vector<std::string> scan_dirs = {"src", "bench", "tests", "examples"};
    /// Root-relative path prefixes never scanned (fixtures, build trees).
    std::vector<std::string> excludes = {"tests/lint_fixtures", "build"};
    /// Files where monotonic-clock use is sanctioned (the bench timer).
    std::vector<std::string> clock_allowlist = {"bench/bench_common.hpp"};
};

struct Report {
    std::vector<Finding> findings;  ///< sorted by (file, line, rule)
    int files_scanned = 0;
    [[nodiscard]] int unwaived() const;
};

/// Load + blank + waiver-parse one file (exposed for tests).
[[nodiscard]] SourceFile load_source(const std::filesystem::path& path, std::string rel);
/// Blank comments and string/char literals, preserving line structure.
[[nodiscard]] std::string strip_comments_and_strings(std::string_view text);

/// Run every rule over the tree under config.root.
[[nodiscard]] Report run(const Config& config);

/// Baseline keys are "file:line:rule".
[[nodiscard]] std::string baseline_key(const Finding& finding);
[[nodiscard]] std::set<std::string> load_baseline(const std::filesystem::path& path);
/// Mark findings whose key appears in the baseline ("waiver" findings are
/// never baselinable).
void apply_baseline(Report& report, const std::set<std::string>& baseline);

/// One --unused-public entry.
struct UnusedName {
    std::string file;  ///< the declaring header, root-relative
    int line = 0;      ///< its first declaration
    std::string name;
    bool tests = false;  ///< some test names it (else only its own pair)
};

/// The --unused-public report over the tree under `root`, sorted by
/// (file, line, name).
[[nodiscard]] std::vector<UnusedName> find_unused_public(const std::filesystem::path& root);
/// Baseline lines are "<header>:<name> <reason>"; '#' starts a comment.
/// Throws std::runtime_error on an entry without a reason.
[[nodiscard]] std::map<std::string, std::string> load_unused_public_baseline(
    const std::filesystem::path& path);
/// Every listed name (tagged [tests] when a test names it, with its
/// reason when kept), every baseline entry that no longer lists, and a
/// summary line.  Returns the number of stale baseline entries.
int write_unused_public(const std::vector<UnusedName>& names,
                        const std::map<std::string, std::string>& baseline, std::ostream& out);
/// The whole --unused-public run: the report over `root` against
/// ROOT/tools/pvlint/unused_public.txt (unless `no_baseline`).  Returns
/// the exit status: 1 when a baseline entry is stale, else 0.  Throws
/// std::runtime_error on a baseline entry without a reason.
[[nodiscard]] int run_unused_public(const std::filesystem::path& root, bool no_baseline,
                                    std::ostream& out);

void write_text(const Report& report, std::ostream& out, bool show_suppressed = false);
void write_json(const Report& report, std::ostream& out);
void write_baseline(const Report& report, std::ostream& out);

}  // namespace pvlint
