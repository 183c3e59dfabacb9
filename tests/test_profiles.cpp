#include <gtest/gtest.h>

#include "sim/cpu_profile.hpp"
#include "sim/machine.hpp"
#include "sim/vf_curve.hpp"
#include "util/error.hpp"

namespace pv::sim {
namespace {

TEST(VfCurve, InterpolatesLinearly) {
    const VfCurve curve({{from_ghz(1.0), Millivolts{700.0}},
                         {from_ghz(3.0), Millivolts{900.0}}});
    EXPECT_DOUBLE_EQ(curve.nominal(from_ghz(1.0)).value(), 700.0);
    EXPECT_DOUBLE_EQ(curve.nominal(from_ghz(2.0)).value(), 800.0);
    EXPECT_DOUBLE_EQ(curve.nominal(from_ghz(3.0)).value(), 900.0);
}

TEST(VfCurve, ClampsOutsideTable) {
    const VfCurve curve({{from_ghz(1.0), Millivolts{700.0}},
                         {from_ghz(3.0), Millivolts{900.0}}});
    EXPECT_DOUBLE_EQ(curve.nominal(from_ghz(0.5)).value(), 700.0);
    EXPECT_DOUBLE_EQ(curve.nominal(from_ghz(5.0)).value(), 900.0);
}

TEST(VfCurveInverse, MaxSupportedInvertsNominal) {
    const VfCurve curve = cometlake_i7_10510u().vf_curve();
    for (double ghz = 0.4; ghz <= 4.9 + 1e-9; ghz += 0.3) {
        const Megahertz f = from_ghz(ghz);
        EXPECT_NEAR(curve.max_supported(curve.nominal(f)).value(), f.value(), 1.0);
    }
    EXPECT_DOUBLE_EQ(curve.max_supported(Millivolts{2000.0}).value(),
                     curve.max_freq().value());
    EXPECT_DOUBLE_EQ(curve.max_supported(Millivolts{100.0}).value(),
                     curve.min_freq().value());
}

TEST(VfCurve, MultiSegment) {
    const VfCurve curve({{from_ghz(1.0), Millivolts{700.0}},
                         {from_ghz(2.0), Millivolts{750.0}},
                         {from_ghz(4.0), Millivolts{950.0}}});
    EXPECT_DOUBLE_EQ(curve.nominal(from_ghz(1.5)).value(), 725.0);
    EXPECT_DOUBLE_EQ(curve.nominal(from_ghz(3.0)).value(), 850.0);
}

TEST(VfCurve, RejectsBadTables) {
    EXPECT_THROW(VfCurve({{from_ghz(1.0), Millivolts{700.0}}}), ConfigError);
    EXPECT_THROW(VfCurve({{from_ghz(2.0), Millivolts{700.0}},
                          {from_ghz(1.0), Millivolts{800.0}}}),
                 ConfigError);
    EXPECT_THROW(VfCurve({{from_ghz(1.0), Millivolts{700.0}},
                          {from_ghz(1.0), Millivolts{800.0}}}),
                 ConfigError);
}

class PaperProfile : public ::testing::TestWithParam<int> {
protected:
    [[nodiscard]] CpuProfile profile() const {
        return paper_profiles()[static_cast<std::size_t>(GetParam())];
    }
};

TEST_P(PaperProfile, MetadataMatchesPaperSetup) {
    const CpuProfile p = profile();
    EXPECT_FALSE(p.name.empty());
    EXPECT_FALSE(p.codename.empty());
    EXPECT_TRUE(p.microcode == "0xf0" || p.microcode == "0xf4");
    EXPECT_EQ(p.core_count, 4u);
}

TEST_P(PaperProfile, FrequencyTableHasPaperResolution) {
    const CpuProfile p = profile();
    const auto table = p.frequency_table();
    ASSERT_GE(table.size(), 2u);
    EXPECT_DOUBLE_EQ(table.front().value(), p.freq_min.value());
    EXPECT_DOUBLE_EQ(table.back().value(), p.freq_max.value());
    for (std::size_t i = 1; i < table.size(); ++i)
        EXPECT_NEAR(table[i].value() - table[i - 1].value(), 100.0, 1e-9)
            << "0.1 GHz resolution, as in Algo. 2";
    // Base frequency is in the table.
    bool found = false;
    for (const Megahertz f : table) found |= (f.value() == p.freq_base.value());
    EXPECT_TRUE(found);
}

TEST_P(PaperProfile, VfCurveIsMonotone) {
    const CpuProfile p = profile();
    const VfCurve curve = p.vf_curve();
    double prev = 0.0;
    for (const Megahertz f : p.frequency_table()) {
        const double v = curve.nominal(f).value();
        EXPECT_GE(v, prev);
        EXPECT_GT(v, 400.0);
        EXPECT_LT(v, 1300.0);
        prev = v;
    }
}

TEST_P(PaperProfile, MachineConstructible) {
    // Machine's constructor validates the nominal operating points.
    EXPECT_NO_THROW(Machine(profile(), 1));
}

INSTANTIATE_TEST_SUITE_P(AllThree, PaperProfile, ::testing::Values(0, 1, 2));

TEST(PaperProfiles, DistinctFrequencyRanges) {
    const auto profiles = paper_profiles();
    ASSERT_EQ(profiles.size(), 3u);
    EXPECT_EQ(profiles[0].codename, "Sky Lake");
    EXPECT_EQ(profiles[1].codename, "Kaby Lake R");
    EXPECT_EQ(profiles[2].codename, "Comet Lake");
    EXPECT_DOUBLE_EQ(profiles[0].freq_max.value(), 3600.0);
    EXPECT_DOUBLE_EQ(profiles[1].freq_max.value(), 3400.0);
    EXPECT_DOUBLE_EQ(profiles[2].freq_max.value(), 4900.0);
    EXPECT_DOUBLE_EQ(profiles[0].freq_base.value(), 3200.0);  // i5-6500 @ 3.2 GHz
    EXPECT_DOUBLE_EQ(profiles[1].freq_base.value(), 1600.0);  // i5-8250U @ 1.6 GHz
    EXPECT_DOUBLE_EQ(profiles[2].freq_base.value(), 1800.0);  // i7-10510U @ 1.8 GHz
}

}  // namespace
}  // namespace pv::sim
