// Self-test for pv-lint (tools/pvlint): the fixture tree under
// tests/lint_fixtures seeds >=2 violations of every rule family at pinned
// line numbers, and this suite asserts the analyzer reports exactly that
// set — a missed detection AND a false positive both fail.  It also locks
// the waiver/baseline semantics and that the real tree ships lint-clean.
//
// If you edit a fixture file, re-run pvlint --root tests/lint_fixtures and
// update kExpected below (the fixture README points back here).
#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "pvlint/pvlint.hpp"

namespace {

namespace fs = std::filesystem;
using pvlint::Rule;

pvlint::Config fixture_config() {
    pvlint::Config config;
    config.root = fs::path(PV_LINT_FIXTURE_DIR);
    return config;
}

const pvlint::Report& fixture_report() {
    static const pvlint::Report report = pvlint::run(fixture_config());
    return report;
}

using Key = std::tuple<std::string, int, Rule>;

std::vector<Key> keys(const pvlint::Report& report) {
    std::vector<Key> out;
    for (const pvlint::Finding& f : report.findings) out.emplace_back(f.file, f.line, f.rule);
    return out;
}

std::string describe(const Key& k) {
    return std::get<0>(k) + ":" + std::to_string(std::get<1>(k)) + ":" +
           pvlint::rule_name(std::get<2>(k));
}

const pvlint::Finding* find_at(const pvlint::Report& report, const std::string& file, int line,
                               Rule rule) {
    for (const pvlint::Finding& f : report.findings)
        if (f.file == file && f.line == line && f.rule == rule) return &f;
    return nullptr;
}

// Every seeded violation, in the analyzer's (file, line, rule) sort order.
// >= 2 findings per rule family: determinism (rng x2, clock x5, unordered
// x8), layering (x5 + cycle), MSR (constant x2, raw-access x2),
// concurrency (primitive x2, guard x2), error paths (x2), plus the
// waiver-hygiene rule.
const std::vector<Key> kExpected = {
    {"src/campaign/bad_clock.cpp", 7, Rule::DeterminismClock},
    {"src/campaign/bad_clock.cpp", 8, Rule::DeterminismClock},
    {"src/campaign/bad_clock.cpp", 10, Rule::DeterminismClock},
    {"src/defenses/bad_mutex.cpp", 7, Rule::ConcurrencyPrimitive},
    {"src/defenses/bad_mutex.cpp", 8, Rule::ConcurrencyPrimitive},
    {"src/defenses/bad_mutex.cpp", 9, Rule::ConcurrencyGuard},
    {"src/infer/bad_infer.cpp", 4, Rule::Layering},
    {"src/infer/bad_infer.cpp", 5, Rule::DeterminismUnordered},
    {"src/infer/bad_infer.cpp", 8, Rule::DeterminismUnordered},
    {"src/plugvolt/bad_adaptive.cpp", 5, Rule::Layering},
    {"src/plugvolt/bad_msr.cpp", 12, Rule::MsrConstant},
    {"src/plugvolt/bad_msr.cpp", 12, Rule::MsrRawAccess},
    {"src/plugvolt/bad_msr.cpp", 13, Rule::MsrConstant},
    {"src/plugvolt/bad_msr.cpp", 13, Rule::MsrRawAccess},
    {"src/resilience/bad_errors.cpp", 13, Rule::ErrorPathThrow},
    {"src/resilience/bad_errors.cpp", 14, Rule::ErrorPathThrow},
    {"src/serve/bad_daemon.cpp", 5, Rule::Layering},
    {"src/serve/bad_daemon.cpp", 6, Rule::DeterminismUnordered},
    {"src/serve/bad_daemon.cpp", 9, Rule::DeterminismUnordered},
    {"src/serve/bad_queue.cpp", 4, Rule::DeterminismUnordered},
    {"src/serve/bad_queue.cpp", 7, Rule::DeterminismUnordered},
    {"src/sim/bad_determinism.cpp", 4, Rule::DeterminismUnordered},
    {"src/sim/bad_determinism.cpp", 7, Rule::DeterminismRng},
    {"src/sim/bad_determinism.cpp", 8, Rule::DeterminismRng},
    {"src/sim/bad_determinism.cpp", 12, Rule::DeterminismUnordered},
    {"src/sim/cycle_b.hpp", 3, Rule::LayeringCycle},
    {"src/sim/waived_ok.cpp", 7, Rule::DeterminismClock},
    {"src/sim/waiver_missing_reason.cpp", 6, Rule::Waiver},
    {"src/sim/waiver_missing_reason.cpp", 7, Rule::DeterminismClock},
    {"src/trace/bad_guard.hpp", 6, Rule::ConcurrencyGuard},
    {"src/util/bad_layering.cpp", 4, Rule::Layering},
    {"src/util/bad_layering.cpp", 5, Rule::Layering},
};

TEST(PvLint, FixtureFindingsExact) {
    const pvlint::Report& report = fixture_report();
    const std::vector<Key> actual = keys(report);
    for (const Key& k : kExpected)
        EXPECT_TRUE(std::count(actual.begin(), actual.end(), k) == 1)
            << "missing or duplicated: " << describe(k);
    for (const Key& k : actual)
        EXPECT_TRUE(std::count(kExpected.begin(), kExpected.end(), k) == 1)
            << "unexpected finding (false positive?): " << describe(k);
    EXPECT_EQ(actual, kExpected);  // also pins the (file, line, rule) sort order
}

TEST(PvLint, EveryRuleCoveredByFixtures) {
    std::set<Rule> seen;
    for (const pvlint::Finding& f : fixture_report().findings) seen.insert(f.rule);
    for (const Rule rule : pvlint::all_rules())
        EXPECT_TRUE(seen.count(rule) == 1)
            << "no fixture exercises rule " << pvlint::rule_name(rule);
}

TEST(PvLint, WaiverSuppresses) {
    const pvlint::Report& report = fixture_report();
    const pvlint::Finding* waived =
        find_at(report, "src/sim/waived_ok.cpp", 7, Rule::DeterminismClock);
    ASSERT_NE(waived, nullptr);
    EXPECT_TRUE(waived->waived) << "well-formed waiver must suppress its finding";
    EXPECT_EQ(report.unwaived(), static_cast<int>(kExpected.size()) - 1);
}

TEST(PvLint, MalformedWaiverReportedAndDoesNotSuppress) {
    const pvlint::Report& report = fixture_report();
    const pvlint::Finding* hygiene =
        find_at(report, "src/sim/waiver_missing_reason.cpp", 6, Rule::Waiver);
    ASSERT_NE(hygiene, nullptr);
    EXPECT_FALSE(hygiene->waived);
    const pvlint::Finding* original =
        find_at(report, "src/sim/waiver_missing_reason.cpp", 7, Rule::DeterminismClock);
    ASSERT_NE(original, nullptr);
    EXPECT_FALSE(original->waived) << "a reason-less waiver must not suppress anything";
}

TEST(PvLint, BaselineSuppressesEverythingExceptWaiverFindings) {
    pvlint::Report report = pvlint::run(fixture_config());
    std::set<std::string> baseline;
    for (const pvlint::Finding& f : report.findings) baseline.insert(pvlint::baseline_key(f));
    pvlint::apply_baseline(report, baseline);
    for (const pvlint::Finding& f : report.findings) {
        if (f.rule == Rule::Waiver) {
            EXPECT_FALSE(f.baselined) << "waiver-hygiene findings are never baselinable";
        }
    }
    // Everything else is suppressed; only the waiver finding still blocks.
    EXPECT_EQ(report.unwaived(), 1);
}

TEST(PvLint, WriteBaselineRoundTrip) {
    pvlint::Report report = pvlint::run(fixture_config());
    const fs::path path = fs::temp_directory_path() / "pvlint_test_baseline.txt";
    {
        std::ofstream out(path);
        ASSERT_TRUE(out.good());
        pvlint::write_baseline(report, out);
    }
    const std::set<std::string> baseline = pvlint::load_baseline(path);
    // write_baseline skips waived findings and waiver-hygiene findings.
    EXPECT_EQ(baseline.size(), kExpected.size() - 2);
    pvlint::apply_baseline(report, baseline);
    EXPECT_EQ(report.unwaived(), 1);  // the waiver-hygiene finding
    fs::remove(path);
}

TEST(PvLint, TreeIsClean) {
    pvlint::Config config;
    config.root = fs::path(PV_LINT_REPO_ROOT);
    const pvlint::Report report = pvlint::run(config);
    std::ostringstream details;
    for (const pvlint::Finding& f : report.findings)
        if (!f.waived && !f.baselined)
            details << "  " << f.file << ":" << f.line << ": [" << pvlint::rule_name(f.rule)
                    << "] " << f.message << "\n";
    EXPECT_EQ(report.unwaived(), 0)
        << "the real tree must ship lint-clean; blocking findings:\n" << details.str();
    EXPECT_GT(report.files_scanned, 100) << "scanner missed most of the tree";
}

TEST(PvLint, PlantedViolationDetected) {
    const fs::path root = fs::temp_directory_path() / "pvlint_test_planted";
    fs::remove_all(root);
    fs::create_directories(root / "src" / "sim");
    {
        std::ofstream out(root / "src" / "sim" / "planted.cpp");
        out << "int fixture_planted() { return rand(); }\n";
    }
    pvlint::Config config;
    config.root = root;
    const pvlint::Report report = pvlint::run(config);
    EXPECT_EQ(report.unwaived(), 1);
    const pvlint::Finding* planted =
        find_at(report, "src/sim/planted.cpp", 1, Rule::DeterminismRng);
    EXPECT_NE(planted, nullptr);
    fs::remove_all(root);
}

TEST(PvLint, StripCommentsAndStringsBlanksButKeepsLineStructure) {
    const std::string text =
        "int a = rand();  // rand() in a comment\n"
        "/* rand()\n"
        "   rand() */ int b;\n"
        "const char* s = \"rand()\";\n"
        "const char* r = R\"(rand())\";\n"
        "char c = 'x';\n";
    const std::string code = pvlint::strip_comments_and_strings(text);
    EXPECT_EQ(std::count(code.begin(), code.end(), '\n'),
              std::count(text.begin(), text.end(), '\n'));
    // Only the one real call survives blanking.
    std::size_t hits = 0;
    for (std::size_t pos = 0; (pos = code.find("rand", pos)) != std::string::npos;
         pos += 4)
        ++hits;
    EXPECT_EQ(hits, 1u);
    EXPECT_NE(code.find("int a = rand();"), std::string::npos);
    EXPECT_NE(code.find("int b;"), std::string::npos);
}

TEST(PvLint, DigitSeparatorsDoNotOpenCharLiterals) {
    // The quote in 0x5E12'2026 or 20'000 separates digits.  Read as a
    // character literal, it blanked the code up to the next quote, and
    // every rule missed what stood there.
    const std::string code = pvlint::strip_comments_and_strings(
        "auto s = mix_seed(0x5E12'2026, 1);\nint r = rand();\nchar c = u8'q';\n");
    EXPECT_NE(code.find("int r = rand();"), std::string::npos);
    EXPECT_NE(code.find("mix_seed(0x5E12'2026, 1);"), std::string::npos);
    EXPECT_EQ(code.find('q'), std::string::npos) << "u8'q' is still a character literal";
}

TEST(PvLint, RuleNamesRoundTrip) {
    for (const Rule rule : pvlint::all_rules()) {
        const auto back = pvlint::rule_from_name(pvlint::rule_name(rule));
        ASSERT_TRUE(back.has_value()) << pvlint::rule_name(rule);
        EXPECT_EQ(*back, rule);
    }
    EXPECT_FALSE(pvlint::rule_from_name("no-such-rule").has_value());
}

// --unused-public over its own fixture tree (tests/lint_fixtures/
// unused_public): private, detail-namespace and used names drop out;
// pair-only, test-only, comment- and string-only names list; the fixture
// baseline keeps one name and names one stale entry.
TEST(PvLint, UnusedPublicReportExact) {
    // tally is listed although bench/ declares a local of that name: a
    // member counts as used only as .tally, ->tally or X::tally.
    // after_trailing is read past the body of a trailing-return function.
    const fs::path root = fs::path(PV_LINT_FIXTURE_DIR) / "unused_public";
    std::ostringstream out;
    const int status = pvlint::run_unused_public(root, /*no_baseline=*/false, out);
    EXPECT_EQ(out.str(),
              "src/sim/api.hpp:8: only_tests [tests] (kept: the tests drive the widget "
              "through it)\n"
              "src/sim/api.hpp:9: only_pair\n"
              "src/sim/api.hpp:10: tally\n"
              "src/sim/api.hpp:11: trailing\n"
              "src/sim/api.hpp:12: after_trailing\n"
              "src/sim/api.hpp:18: Gadget [tests]\n"
              "src/sim/api.hpp:22: make [tests]\n"
              "src/sim/api.hpp:27: Alias\n"
              "src/sim/api.hpp:31: named_in_comment\n"
              "src/sim/api.hpp:33: inline_body\n"
              "src/sim/api.hpp:retired: stale baseline entry (now used, or gone)\n"
              "pv-lint --unused-public: 10 names (1 kept, 9 new, 1 stale baseline entries)\n");
    // The stale entry fails the run; new names alone never do.
    EXPECT_EQ(status, 1);
    std::ostringstream unkept;
    EXPECT_EQ(pvlint::run_unused_public(root, /*no_baseline=*/true, unkept), 0);
}

TEST(PvLint, UnusedPublicBaselineNeedsAReason) {
    const fs::path path = fs::temp_directory_path() / "pvlint_test_unused_public.txt";
    {
        std::ofstream out(path);
        out << "# comment\nsrc/a.hpp:kept  a reason\nsrc/a.hpp:bare\n";
    }
    EXPECT_THROW((void)pvlint::load_unused_public_baseline(path), std::runtime_error);
    fs::remove(path);
}

TEST(PvLint, JsonReportWellFormed) {
    std::ostringstream out;
    pvlint::write_json(fixture_report(), out);
    const std::string json = out.str();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.substr(json.size() - 2), "}\n");
    EXPECT_NE(json.find("\"files_scanned\": 17"), std::string::npos);
    EXPECT_NE(json.find("\"blocking\": 31"), std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"layering-cycle\""), std::string::npos);
    EXPECT_NE(json.find("\"waived\": true"), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

}  // namespace
