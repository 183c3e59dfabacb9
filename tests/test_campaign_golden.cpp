// Golden-file regression for campaign cell fingerprints.
//
// The determinism tests compare serial against sharded runs of ONE
// build; nothing else pins what a campaign cell computes across
// commits.  This file does, with one fingerprint per cell:
//   - campaign_quick_cube: the full 216-cell cube at the quick tuning
//     the determinism tests use (8 mV scans, 20 k probe ops, 8 enclave
//     entries per offset, 5 mV maps);
//   - campaign_paper_v0ltpwn_cometlake: the 18 V0LTpwn and
//     V0LTpwn+SGX-Step cells on Comet Lake at the paper's AttackTuning,
//     each executed through run_cell().
// A simulator optimization that is meant to be invisible must leave
// every line unchanged.
//
// Regoldening (after an INTENDED change to cell results):
// `PV_REGOLDEN=1 ctest -R Golden`; commit the diff alongside the change
// that explains it.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"

#ifndef PV_GOLDEN_DIR
#error "PV_GOLDEN_DIR must point at tests/golden (set in tests/CMakeLists.txt)"
#endif

namespace pv::campaign {
namespace {

std::string golden_path(const char* slug) {
    return std::string(PV_GOLDEN_DIR) + "/" + slug + ".golden";
}

bool regolden_requested() {
    const char* env = std::getenv("PV_REGOLDEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// One golden line per cell: where it sits in the cube and its
/// fingerprint.
std::string cell_line(const CampaignCellResult& cell) {
    char fp[32];
    std::snprintf(fp, sizeof fp, "0x%016" PRIx64, fingerprint(cell));
    return std::to_string(cell.spec.index) + " " + to_string(cell.spec.attack) + " " +
           to_string(cell.spec.defense) + " p" + std::to_string(cell.spec.profile_index) +
           " " + fp;
}

/// The committed cell lines; '#' lines are comments.
std::vector<std::string> read_golden(const std::string& path) {
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty() && line[0] != '#') lines.push_back(line);
    return lines;
}

void check_golden(const char* slug, const char* what, const std::vector<std::string>& lines) {
    const std::string path = golden_path(slug);
    if (regolden_requested()) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << "# Campaign cell fingerprints: " << what << ".\n"
            << "# Regolden after intended changes: PV_REGOLDEN=1 ctest -R Golden\n"
            << "# index attack defense profile fingerprint\n";
        for (const std::string& l : lines) out << l << "\n";
        return;
    }
    const std::vector<std::string> committed = read_golden(path);
    ASSERT_FALSE(committed.empty()) << "missing golden file " << path
                                    << " — generate with: PV_REGOLDEN=1 ctest -R Golden";
    ASSERT_EQ(lines.size(), committed.size()) << slug << ": cell count changed";
    for (std::size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(lines[i], committed[i])
            << slug << ": cell drifted from the committed golden; if the change is "
            << "intended, regolden with PV_REGOLDEN=1 ctest -R Golden";
}

TEST(CampaignGolden, QuickCubeCellsReproduceCommittedFingerprints) {
    CampaignConfig config;
    config.tuning.scan_step = Millivolts{8.0};
    config.tuning.probe_ops = 20'000;
    config.tuning.runs_per_offset = 8;
    config.char_step = Millivolts{5.0};
    config.workers = 4;
    CampaignEngine engine(config);
    const CampaignReport report = engine.run();
    ASSERT_EQ(report.cells.size(), 216u);

    std::vector<std::string> lines;
    for (const CampaignCellResult& cell : report.cells) lines.push_back(cell_line(cell));
    check_golden("campaign_quick_cube", "216-cell cube, quick tuning", lines);
}

TEST(CampaignGolden, PaperTunedV0ltpwnCometLakeCellsReproduceCommittedFingerprints) {
    CampaignEngine engine(CampaignConfig{});  // paper AttackTuning, 2 mV maps
    const std::vector<sim::CpuProfile>& profiles = engine.config().profiles;
    std::size_t comet = profiles.size();
    for (std::size_t p = 0; p < profiles.size(); ++p)
        if (profiles[p].codename == "Comet Lake") comet = p;
    ASSERT_LT(comet, profiles.size());

    std::vector<std::string> lines;
    for (const CellSpec& spec : engine.cells()) {
        if (spec.profile_index != comet) continue;
        if (spec.attack != AttackKind::V0ltpwn && spec.attack != AttackKind::V0ltpwnSgxStep)
            continue;
        lines.push_back(cell_line(engine.run_cell(spec)));
    }
    ASSERT_EQ(lines.size(), 18u);
    check_golden("campaign_paper_v0ltpwn_cometlake",
                 "V0LTpwn and V0LTpwn+SGX-Step on Comet Lake, paper tuning, run_cell", lines);
}

}  // namespace
}  // namespace pv::campaign
