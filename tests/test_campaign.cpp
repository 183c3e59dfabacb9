// Campaign engine unit tests: cube enumeration, bit-exact replay,
// defense wiring, retry accounting, report serialization, and the
// cell-granular campaign journal.  The full
// sharded-vs-serial differential lives in test_determinism.cpp (the
// concurrency suite); these stay small and fast.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/report.hpp"
#include "plugvolt/safe_state.hpp"
#include "sim/cpu_profile.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"

namespace pv {
namespace {

campaign::AttackTuning quick_tuning() {
    campaign::AttackTuning tuning;
    tuning.scan_step = Millivolts{8.0};
    tuning.probe_ops = 20'000;
    tuning.runs_per_offset = 8;
    return tuning;
}

campaign::CampaignConfig small_config() {
    campaign::CampaignConfig config;
    config.profiles = {sim::cometlake_i7_10510u()};
    config.attacks = {campaign::AttackKind::Plundervolt, campaign::AttackKind::BenignUndervolt};
    config.defenses = {campaign::DefenseKind::None, campaign::DefenseKind::PollingMaximalSafe};
    config.tuning = quick_tuning();
    config.char_step = Millivolts{10.0};
    config.workers = 1;
    return config;
}

TEST(Campaign, CellEnumerationCoversTheCubeInOrder) {
    campaign::CampaignConfig config = small_config();
    config.profiles = {sim::skylake_i5_6500(), sim::cometlake_i7_10510u()};
    campaign::CampaignEngine engine(config);
    const std::vector<campaign::CellSpec> specs = engine.cells();
    ASSERT_EQ(specs.size(), 2u * 2u * 2u);

    std::size_t index = 0;
    for (std::size_t p = 0; p < 2; ++p)
        for (std::size_t d = 0; d < 2; ++d)
            for (std::size_t a = 0; a < 2; ++a) {
                EXPECT_EQ(specs[index].index, index);
                EXPECT_EQ(specs[index].profile_index, p);
                EXPECT_EQ(specs[index].defense, config.defenses[d]);
                EXPECT_EQ(specs[index].attack, config.attacks[a]);
                EXPECT_EQ(specs[index].seed, mix_seed(config.seed, index));
                ++index;
            }
}

TEST(Campaign, ConfigValidation) {
    campaign::CampaignConfig empty = small_config();
    empty.attacks.clear();
    EXPECT_THROW(campaign::CampaignEngine{empty}, ConfigError);

    campaign::CampaignConfig no_attempts = small_config();
    no_attempts.max_attempts = 0;
    EXPECT_THROW(campaign::CampaignEngine{no_attempts}, ConfigError);
}

TEST(Campaign, RunCellReplaysBitExactly) {
    campaign::CampaignConfig config = small_config();
    campaign::CampaignEngine engine(config);
    const std::vector<campaign::CellSpec> specs = engine.cells();
    for (const campaign::CellSpec& spec : specs) {
        const campaign::CampaignCellResult first = engine.run_cell(spec);
        const campaign::CampaignCellResult second = engine.run_cell(spec);
        EXPECT_EQ(campaign::fingerprint(first), campaign::fingerprint(second))
            << "cell " << spec.index << " did not replay bit-exactly";
        EXPECT_EQ(first.machine_state_hash, second.machine_state_hash);
    }
    // A fresh engine (same config) replays the same cells identically:
    // nothing about a cell depends on engine instance state.
    campaign::CampaignEngine other(config);
    EXPECT_EQ(campaign::fingerprint(engine.run_cell(specs[0])),
              campaign::fingerprint(other.run_cell(specs[0])));
}

TEST(Campaign, UndefendedPlundervoltBreaksAndMaximalSafeBlocks) {
    campaign::CampaignConfig config = small_config();
    campaign::CampaignEngine engine(config);
    const campaign::CampaignReport report = engine.run();
    ASSERT_EQ(report.cells.size(), 4u);

    const campaign::CampaignCellResult& undefended = report.cells[0];
    ASSERT_EQ(undefended.spec.attack, campaign::AttackKind::Plundervolt);
    ASSERT_EQ(undefended.spec.defense, campaign::DefenseKind::None);
    EXPECT_TRUE(undefended.attack_result.weaponized);
    EXPECT_EQ(undefended.verdict.rfind("BROKEN", 0), 0u) << undefended.verdict;
    EXPECT_FALSE(undefended.polling.has_value());

    const campaign::CampaignCellResult& defended = report.cells[2];
    ASSERT_EQ(defended.spec.defense, campaign::DefenseKind::PollingMaximalSafe);
    EXPECT_FALSE(defended.attack_result.weaponized);
    EXPECT_EQ(defended.verdict, "blocked");
    ASSERT_TRUE(defended.polling.has_value());
    EXPECT_GT(defended.polling->polls, 0u);

    // The benign probe reports usability verdicts, not attack verdicts.
    EXPECT_EQ(report.cells[1].verdict, "full");
    const std::string& benign_defended = report.cells[3].verdict;
    EXPECT_TRUE(benign_defended == "clamped" || benign_defended == "full")
        << benign_defended;
}

TEST(Campaign, AuditCountersRecordWhenEnabled) {
    campaign::CampaignConfig config = small_config();
    config.audit = true;
    campaign::CampaignEngine engine(config);
    const campaign::CampaignCellResult cell = engine.run_cell(engine.cells()[0]);
    EXPECT_GT(cell.audited_accesses, 0u);

    config.audit = false;
    campaign::CampaignEngine no_audit(config);
    const campaign::CampaignCellResult quiet = no_audit.run_cell(no_audit.cells()[0]);
    EXPECT_EQ(quiet.audited_accesses, 0u);
    EXPECT_EQ(quiet.audit_violations, 0u);
}

TEST(Campaign, MapForIsDeterministicAcrossEngines) {
    campaign::CampaignConfig config = small_config();
    campaign::CampaignEngine a(config);
    campaign::CampaignEngine b(config);
    EXPECT_EQ(plugvolt::state_hash(a.map_for(0)), plugvolt::state_hash(b.map_for(0)));
}

TEST(Campaign, ReportSerializesEveryCell) {
    campaign::CampaignConfig config = small_config();
    campaign::CampaignEngine engine(config);
    campaign::CampaignReport report = engine.run();

    const std::string csv = report.to_csv();
    std::size_t lines = 0;
    for (const char c : csv)
        if (c == '\n') ++lines;
    EXPECT_EQ(lines, report.cells.size() + 1);  // header + one row per cell
    EXPECT_NE(csv.find("index,profile,attack,defense"), std::string::npos);
    EXPECT_NE(csv.find("plundervolt"), std::string::npos);
    EXPECT_NE(csv.find("polling-maximal-safe"), std::string::npos);

    const std::string json = report.to_json();
    EXPECT_NE(json.find("\"cells\""), std::string::npos);
    EXPECT_NE(json.find("\"fingerprint\""), std::string::npos);

    // The combined fingerprint is order-sensitive and reproducible.
    campaign::CampaignEngine again(config);
    EXPECT_EQ(report.fingerprint(), again.run().fingerprint());

    // File writers emit exactly the in-memory serializations.
    const std::string dir = ::testing::TempDir();
    report.write_csv(dir + "pv_campaign_report.csv");
    report.write_json(dir + "pv_campaign_report.json");
    std::ifstream csv_in(dir + "pv_campaign_report.csv");
    std::stringstream csv_back;
    csv_back << csv_in.rdbuf();
    EXPECT_EQ(csv_back.str(), csv);
    std::ifstream json_in(dir + "pv_campaign_report.json");
    std::stringstream json_back;
    json_back << json_in.rdbuf();
    EXPECT_EQ(json_back.str(), json);
}

TEST(Campaign, AttemptSeedsAreDerivedNotShared) {
    // Two different cells never see the same machine seed, and a cell's
    // retry seeds differ from its first-attempt seed.
    campaign::CampaignConfig config = small_config();
    campaign::CampaignEngine engine(config);
    const std::vector<campaign::CellSpec> specs = engine.cells();
    for (std::size_t i = 0; i < specs.size(); ++i)
        for (std::size_t j = i + 1; j < specs.size(); ++j)
            EXPECT_NE(specs[i].seed, specs[j].seed);
    EXPECT_NE(mix_seed(specs[0].seed, 0), mix_seed(specs[0].seed, 1));
}

// ----------------------------------------------------- campaign journal

/// The small cube's cells, run once for every journal test.
const std::vector<campaign::CampaignCellResult>& small_cube_cells() {
    static const std::vector<campaign::CampaignCellResult> cells = [] {
        campaign::CampaignEngine engine(small_config());
        return engine.run().cells;
    }();
    return cells;
}

std::string fresh_journal_path(const std::string& name) {
    const std::string path = ::testing::TempDir() + "pv_campaign_" + name + ".pvcj";
    std::remove(path.c_str());
    return path;
}

TEST(CampaignJournal, EveryCellOfARealCubeRoundTrips) {
    const std::vector<campaign::CampaignCellResult>& cells = small_cube_cells();
    bool polled = false;
    bool histogram = false;
    for (const campaign::CampaignCellResult& cell : cells) {
        campaign::CampaignCellResult decoded;
        ASSERT_TRUE(
            campaign::decode_cell_payload(campaign::encode_cell_payload(cell), decoded));
        EXPECT_EQ(campaign::fingerprint(decoded), campaign::fingerprint(cell));
        polled |= cell.polling.has_value();
        for (const auto& [name, value] : cell.metrics.values())
            histogram |= !value.buckets.empty();
    }
    // The cube covers the optional fields: polling metrics and the
    // snapshot's histogram buckets.
    EXPECT_TRUE(polled);
    EXPECT_TRUE(histogram);

    // Through the file as well: a reopened journal holds the same cells.
    const std::string path = fresh_journal_path("round_trip");
    {
        campaign::CampaignJournal journal = campaign::CampaignJournal::open(path, 1);
        for (const campaign::CampaignCellResult& cell : cells) journal.commit_cell(cell);
    }
    const std::vector<campaign::CampaignCellResult> replayed =
        campaign::CampaignJournal::open(path, 1).cells();
    ASSERT_EQ(replayed.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(campaign::fingerprint(replayed[i]), campaign::fingerprint(cells[i]));
    std::remove(path.c_str());
}

TEST(CampaignJournal, TornTailIsScrubbed) {
    const std::vector<campaign::CampaignCellResult>& cells = small_cube_cells();
    ASSERT_GE(cells.size(), 3u);
    const std::string path = fresh_journal_path("torn_tail");
    std::string two_cells;
    {
        campaign::CampaignJournal journal = campaign::CampaignJournal::open(path, 1);
        journal.commit_cell(cells[0]);
        journal.commit_cell(cells[1]);
        two_cells = read_file(path);
        journal.commit_cell(cells[2]);
    }
    // Killed mid-commit: the third cell frame lost its last bytes.
    const std::string three_cells = read_file(path);
    atomic_write_file(path, three_cells.substr(0, three_cells.size() - 5));
    {
        campaign::CampaignJournal recovered = campaign::CampaignJournal::open(path, 1);
        ASSERT_EQ(recovered.cells().size(), 2u);
        EXPECT_EQ(read_file(path), two_cells);  // scrubbed to the intact prefix
        recovered.commit_cell(cells[2]);
    }
    EXPECT_EQ(read_file(path), three_cells);
    EXPECT_EQ(campaign::CampaignJournal::open(path, 1).cells().size(), 3u);
    std::remove(path.c_str());
}

TEST(CampaignJournal, AttemptFramesReplayMaxWins) {
    const std::string path = fresh_journal_path("attempts");
    {
        campaign::CampaignJournal journal = campaign::CampaignJournal::open(path, 1);
        journal.commit_attempt(3, 2);
        journal.commit_attempt(3, 1);  // a smaller count never lowers the slot
        journal.commit_attempt(1, 1);
        EXPECT_EQ(journal.attempts_failed(3), 2u);
    }
    const campaign::CampaignJournal replayed = campaign::CampaignJournal::open(path, 1);
    EXPECT_EQ(replayed.attempts_failed(3), 2u);
    EXPECT_EQ(replayed.attempts_failed(1), 1u);
    EXPECT_EQ(replayed.attempts_failed(0), 0u);
    EXPECT_TRUE(replayed.cells().empty());
    std::remove(path.c_str());
}

TEST(CampaignJournal, ConfigMismatchThrowsConfigError) {
    campaign::CampaignConfig reseeded = small_config();
    reseeded.seed += 1;
    const campaign::CampaignEngine engine(small_config());
    campaign::CampaignEngine other(reseeded);
    ASSERT_NE(engine.config_hash(), other.config_hash());
    const std::string path = fresh_journal_path("mismatch");
    {
        campaign::CampaignJournal journal =
            campaign::CampaignJournal::open(path, engine.config_hash());
        journal.commit_cell(small_cube_cells()[0]);
        // The engine refuses a journal of another configuration.
        EXPECT_THROW((void)other.run(journal), ConfigError);
    }
    // So does open, before a byte of the file moves.
    const std::string before = read_file(path);
    EXPECT_THROW((void)campaign::CampaignJournal::open(path, other.config_hash()),
                 ConfigError);
    EXPECT_EQ(read_file(path), before);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace pv
