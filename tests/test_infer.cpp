// Boundary posterior, cost-aware acquisition (plugvolt's row search), and
// the adaptive sweep's determinism contracts.
//
// The load-bearing properties, each pinned here:
//   - hard evidence only ever SHRINKS the certified bracket (the
//     stopping rule's soundness reduces to this monotonicity);
//   - priors never move the bracket;
//   - with a uniform posterior and free reboots the acquisition is the
//     bisection median — the scheme degenerates to the mode it replaces;
//   - the probe sequence of an adaptive sweep is a pure function of the
//     sweep seed: bit-identical between a serial inline run and a
//     5-worker run, probe for probe.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "infer/adaptive_planner.hpp"
#include "plugvolt/acquisition.hpp"
#include "plugvolt/boundary_posterior.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "plugvolt/safe_state.hpp"
#include "sim/cpu_profile.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pv::infer {
namespace {

using plugvolt::AcquisitionConfig;
using plugvolt::BoundaryPosterior;
using plugvolt::CrashScore;
using plugvolt::select_crash_probe;

/// P(b <= s): 0 below the bracket, 1 from its top, otherwise the in-order
/// sum weight(hard_lo) + .. + weight(s).
double p_leq(const BoundaryPosterior& posterior, std::uint64_t s) {
    if (s < posterior.hard_lo()) return 0.0;
    if (s >= posterior.hard_hi()) return 1.0;
    double p = 0.0;
    for (std::uint64_t b = posterior.hard_lo(); b <= s; ++b) p += posterior.weight(b);
    return p;
}

/// The crash score of probing step s, as first written: expected
/// information gain per expected cost, H2(p) / (1 + reboot_cost * p) with
/// p = P(b <= s).  select_crash_probe must pick its argmax, bit for bit.
double crash_probe_score(const BoundaryPosterior& posterior, std::uint64_t s,
                         double reboot_cost) {
    const double p = p_leq(posterior, s);
    const double h2 =
        p <= 0.0 || p >= 1.0 ? 0.0 : -(p * std::log(p) + (1.0 - p) * std::log(1.0 - p));
    return h2 / (1.0 + reboot_cost * p);
}

TEST(BoundaryPosterior, UniformPriorCoversTheFullSupport) {
    const BoundaryPosterior posterior(12);
    EXPECT_EQ(posterior.hard_lo(), 1u);
    EXPECT_EQ(posterior.hard_hi(), 12u);
    EXPECT_FALSE(posterior.certified());
    EXPECT_DOUBLE_EQ(p_leq(posterior, 6), 0.5);
    EXPECT_DOUBLE_EQ(p_leq(posterior, 12), 1.0);
    EXPECT_THROW(BoundaryPosterior(0), ConfigError);
}

TEST(BoundaryPosterior, HardEvidenceCertifiesTheBisectionInvariant) {
    // Hidden truth b = 7 on support {1..20}; answer bisection queries
    // truthfully and the bracket must collapse to exactly {7}.
    BoundaryPosterior posterior(20);
    constexpr std::uint64_t kTruth = 7;
    while (!posterior.certified()) {
        const std::uint64_t s = (posterior.hard_lo() + posterior.hard_hi() - 1) / 2;
        if (kTruth <= s)
            posterior.restrict_leq(s);
        else
            posterior.restrict_geq(s + 1);
    }
    EXPECT_EQ(posterior.hard_lo(), kTruth);
    EXPECT_EQ(posterior.median(), kTruth);
    EXPECT_DOUBLE_EQ(p_leq(posterior, kTruth), 1.0);
}

TEST(BoundaryPosterior, MedianSplitsTheMassInHalf) {
    BoundaryPosterior posterior(8);
    EXPECT_EQ(posterior.median(), 4u);  // P(b <= 4) = 1/2 exactly
    posterior.restrict_geq(5);          // {5 .. 8}
    EXPECT_EQ(posterior.median(), 6u);
    posterior.restrict_leq(7);          // {5, 6, 7}: 5 and 6 tie, take 5
    EXPECT_EQ(posterior.median(), 5u);
    posterior.restrict_leq(5);
    EXPECT_EQ(posterior.median(), 5u);  // certified: the one step left

    // Around a recentred prior P(b <= c - 1) ~ 0.31 and P(b <= c) ~ 0.69:
    // the lower median sits one step shallow of the centre, and once the
    // mass below the centre is excluded, on it.
    BoundaryPosterior peaked(40);
    peaked.recenter(23, 0.45, 1e-9);
    EXPECT_EQ(peaked.median(), 22u);
    peaked.restrict_geq(23);
    EXPECT_EQ(peaked.median(), 23u);
}

TEST(BoundaryPosterior, SoftEvidenceAndPriorsNeverMoveTheBracket) {
    BoundaryPosterior posterior(15);
    posterior.restrict_geq(3);
    posterior.restrict_leq(11);
    const std::uint64_t lo = posterior.hard_lo();
    const std::uint64_t hi = posterior.hard_hi();
    posterior.recenter(5, 0.45, 1e-9);
    EXPECT_EQ(posterior.hard_lo(), lo);
    EXPECT_EQ(posterior.hard_hi(), hi);
    // A prior must not starve still-possible steps: the floor keeps
    // every bracket step reachable by hard evidence.
    posterior.restrict_geq(10);
    EXPECT_EQ(posterior.hard_lo(), 10u);
    EXPECT_EQ(posterior.hard_hi(), 11u);
    EXPECT_THROW(posterior.recenter(5, 1.5, 1e-9), ConfigError);
    EXPECT_THROW(posterior.recenter(5, 0.5, 0.0), ConfigError);
}

TEST(BoundaryPosterior, ResetAroundAPriorEqualsResetThenRecenter) {
    // The row search resets its reused posteriors straight to a prior;
    // that must be bit-equal to the uniform reset it skips plus
    // recenter(), whatever the posterior held before, larger or smaller.
    const std::vector<double> powers = BoundaryPosterior::decay_powers(0.45, 64);
    BoundaryPosterior reused(50);
    reused.restrict_geq(20);
    for (const std::uint64_t support : {1u, 7u, 33u, 64u, 12u}) {
        for (const std::uint64_t center : {std::uint64_t{1}, (support + 1) / 2, support}) {
            BoundaryPosterior expected(support);
            expected.recenter(center, powers, 1e-9);
            reused.reset(support, center, powers, 1e-9);
            ASSERT_EQ(reused.hard_lo(), 1u);
            ASSERT_EQ(reused.hard_hi(), support);
            for (std::uint64_t b = 1; b <= support; ++b)
                ASSERT_EQ(std::bit_cast<std::uint64_t>(reused.weight(b)),
                          std::bit_cast<std::uint64_t>(expected.weight(b)))
                    << "support " << support << ", center " << center << ", step " << b;
            reused.restrict_leq(center);
        }
    }
    EXPECT_THROW(reused.reset(0, 1, powers, 1e-9), ConfigError);
}

// PROP: for ANY consistent observation sequence (hard evidence derived
// from a hidden truth, arbitrary re-priors mixed in),
// the certified bracket never widens, always contains the truth, and
// certification is permanent.
TEST(PropPosterior, ObservationsNeverWidenTheCertifiedBracket) {
    constexpr std::uint64_t kSeedRoot = 0xB0'04DA'2026;
    for (std::uint64_t trial = 0; trial < 200; ++trial) {
        Rng rng(mix_seed(kSeedRoot, trial));
        SCOPED_TRACE("trial " + std::to_string(trial));
        const std::uint64_t support = 2 + rng.uniform_below(40);
        const std::uint64_t truth = 1 + rng.uniform_below(support);
        BoundaryPosterior posterior(support);
        std::uint64_t lo = posterior.hard_lo();
        std::uint64_t hi = posterior.hard_hi();
        for (int op = 0; op < 60; ++op) {
            const std::uint64_t s = 1 + rng.uniform_below(support);
            if (rng.uniform_below(2) == 0) {  // truthful hard evidence about step s
                if (truth <= s)
                    posterior.restrict_leq(s);
                else
                    posterior.restrict_geq(s + 1);
            } else {
                posterior.recenter(s, 0.45, 1e-9);
            }
            ASSERT_GE(posterior.hard_lo(), lo);
            ASSERT_LE(posterior.hard_hi(), hi);
            ASSERT_LE(posterior.hard_lo(), posterior.hard_hi());
            ASSERT_GE(truth, posterior.hard_lo());
            ASSERT_LE(truth, posterior.hard_hi());
            lo = posterior.hard_lo();
            hi = posterior.hard_hi();
        }
    }
}

TEST(Acquisition, UniformPosteriorDegeneratesToBisection) {
    // Support {1..16}, free reboots: H2(P(b <= s)) peaks uniquely at the
    // median split s = 8, so the acquisition IS bisection's first query.
    const BoundaryPosterior posterior(16);
    Rng rng(0xACC'2026);
    EXPECT_EQ(select_crash_probe(posterior, CrashScore(0.0), 16, rng), 8u);
    // Scores are symmetric around the median and fall off it.
    EXPECT_GT(crash_probe_score(posterior, 8, 0.0), crash_probe_score(posterior, 4, 0.0));
    EXPECT_DOUBLE_EQ(crash_probe_score(posterior, 4, 0.0),
                     crash_probe_score(posterior, 12, 0.0));
}

TEST(Acquisition, RebootSurchargeDriftsProbesShallow) {
    const BoundaryPosterior posterior(16);
    Rng rng(0xACC'2027);
    const CrashScore score(10.0);
    const std::uint64_t probe = select_crash_probe(posterior, score, 16, rng);
    EXPECT_LT(probe, 8u);  // crash-risky deep probes price themselves out
    EXPECT_GE(probe, 1u);
    // max_step caps candidates (the onset channel probes under the crash).
    EXPECT_LE(select_crash_probe(posterior, score, 3, rng), 3u);
}

/// The acquisition as first written: every informative candidate scored
/// through crash_probe_score (an O(W) p_leq each), no early exit.  The
/// fast path must return the same step and consume the same draws.
/// `plateau_size` receives the size of the tie plateau drawn from.
std::uint64_t reference_crash_probe(const BoundaryPosterior& posterior, double reboot_cost,
                                    std::uint64_t max_step, Rng& rng,
                                    std::size_t* plateau_size = nullptr) {
    const std::uint64_t lo = posterior.hard_lo();
    const std::uint64_t hi = std::min(posterior.hard_hi() - 1, max_step);
    constexpr double kTieTolerance = 1e-12;
    double best = -1.0;
    std::vector<std::uint64_t> plateau;
    for (std::uint64_t s = lo; s <= hi; ++s) {
        const double score = crash_probe_score(posterior, s, reboot_cost);
        if (score > best + kTieTolerance) {
            best = score;
            plateau.assign(1, s);
        } else if (score >= best - kTieTolerance) {
            plateau.push_back(s);
        }
    }
    if (plateau_size != nullptr) *plateau_size = plateau.size();
    return plateau[rng.uniform_below(plateau.size())];
}

/// recenter() as first written: one std::pow per bracket step, then the
/// in-order renormalization.  Returns the weights of steps 1 .. support.
std::vector<double> reference_recenter(const BoundaryPosterior& posterior,
                                       std::uint64_t support, std::uint64_t center,
                                       double decay, double floor) {
    std::vector<double> w(support, 0.0);
    double total = 0.0;
    for (std::uint64_t b = posterior.hard_lo(); b <= posterior.hard_hi(); ++b) {
        const double dist =
            b > center ? static_cast<double>(b - center) : static_cast<double>(center - b);
        w[b - 1] = floor + std::pow(decay, dist);
        total += w[b - 1];
    }
    for (std::uint64_t b = posterior.hard_lo(); b <= posterior.hard_hi(); ++b)
        w[b - 1] /= total;
    return w;
}

/// One selection, fast path against the reference: same step, same Rng
/// state afterwards.  Returns the reference's plateau size.
std::size_t expect_same_selection(const BoundaryPosterior& posterior, double reboot_cost,
                                  std::uint64_t max_step, std::uint64_t draw_seed) {
    Rng fast_rng(draw_seed);
    Rng reference_rng(draw_seed);
    std::size_t plateau = 0;
    EXPECT_EQ(select_crash_probe(posterior, CrashScore(reboot_cost), max_step, fast_rng),
              reference_crash_probe(posterior, reboot_cost, max_step, reference_rng, &plateau))
        << "bracket [" << posterior.hard_lo() << ", " << posterior.hard_hi() << "] max_step "
        << max_step << " cost " << reboot_cost;
    EXPECT_EQ(fast_rng.state_fingerprint(), reference_rng.state_fingerprint());
    return plateau;
}

// PROP: the acquisition (an addition-only run up to the score's peak, a
// short walk back to a rising step, then one scoring pass with an early
// exit) selects exactly the probe the all-candidates reference selects
// and leaves the Rng in exactly the same state; and the table-driven
// recenter is bit-equal to one std::pow per step.  Four families of
// posteriors:
//   - seeded posteriors reshaped by random priors and truthful hard
//     evidence;
//   - floor-1e-9 priors whose peak sits 200 or more steps above hard_lo,
//     the shape lot-neighbour and interpolation priors give at 1 mV;
//   - uniform posteriors at zero reboot cost with an odd bracket, whose
//     two middle steps tie: the plateau straddles the score's peak, so
//     the walk back has to step over a tie;
//   - extreme reboot costs with tiny floors, where the score is so flat
//     around its peak that the walk back finds no rising step near it
//     and the scan starts at hard_lo.
TEST(PropAcquisition, LinearScanMatchesTheFullReference) {
    constexpr std::uint64_t kSeedRoot = 0xACC'5CA7'2026;
    constexpr double kRebootCosts[] = {0.0, 0.5, 4.0, 10.0};
    std::uint64_t selections = 0;
    for (std::uint64_t trial = 0; trial < 2000; ++trial) {
        Rng rng(mix_seed(kSeedRoot, trial));
        SCOPED_TRACE("trial " + std::to_string(trial));
        const std::uint64_t support = 2 + rng.uniform_below(301);
        const std::uint64_t truth = 1 + rng.uniform_below(support);
        BoundaryPosterior posterior(support);
        const int ops = 1 + static_cast<int>(rng.uniform_below(8));
        for (int op = 0; op < ops && !posterior.certified(); ++op) {
            const std::uint64_t s = 1 + rng.uniform_below(support);
            switch (rng.uniform_below(3)) {
                case 0: {
                    const double decay = rng.uniform(0.05, 0.95);
                    const double floor = rng.uniform_below(2) == 0 ? 1e-9 : rng.uniform(1e-6, 0.1);
                    const std::vector<double> expected =
                        reference_recenter(posterior, support, s, decay, floor);
                    posterior.recenter(s, BoundaryPosterior::decay_powers(decay, support), floor);
                    for (std::uint64_t b = 1; b <= support; ++b)
                        ASSERT_EQ(std::bit_cast<std::uint64_t>(posterior.weight(b)),
                                  std::bit_cast<std::uint64_t>(expected[b - 1]))
                            << "step " << b << " center " << s;
                    break;
                }
                case 1:
                    if (truth <= s) posterior.restrict_leq(s);
                    break;
                case 2:
                    if (truth >= s) posterior.restrict_geq(s);
                    break;
            }
            if (posterior.certified()) break;
            const std::uint64_t max_step =
                posterior.hard_lo() + rng.uniform_below(support - posterior.hard_lo() + 1);
            (void)expect_same_selection(posterior, kRebootCosts[rng.uniform_below(4)],
                                        max_step, rng.next_u64());
            ASSERT_FALSE(HasFailure());
            ++selections;
        }
    }
    EXPECT_GT(selections, 2000u);

    constexpr std::uint64_t kFarPeakRoot = 0xFA2'BEA7'2026;
    for (std::uint64_t trial = 0; trial < 300; ++trial) {
        Rng rng(mix_seed(kFarPeakRoot, trial));
        SCOPED_TRACE("far-peak trial " + std::to_string(trial));
        const std::uint64_t support = 250 + rng.uniform_below(172);
        BoundaryPosterior posterior(support);
        posterior.restrict_geq(1 + rng.uniform_below(40));
        const std::uint64_t lo = posterior.hard_lo();
        const std::uint64_t center = lo + 200 + rng.uniform_below(support - lo - 199);
        const double decay = rng.uniform(0.05, 0.95);
        posterior.recenter(center, BoundaryPosterior::decay_powers(decay, support), 1e-9);
        if (rng.uniform_below(2) == 0)
            posterior.restrict_leq(center + rng.uniform_below(support - center + 1));
        const std::uint64_t max_step = rng.uniform_below(4) == 0
                                           ? center - rng.uniform_below(3)
                                           : support;
        (void)expect_same_selection(posterior, kRebootCosts[rng.uniform_below(4)], max_step,
                                    rng.next_u64());
        ASSERT_FALSE(HasFailure());
    }

    constexpr std::uint64_t kTieRoot = 0x71E'5CA7'2026;
    std::uint64_t ties = 0;
    for (std::uint64_t trial = 0; trial < 300; ++trial) {
        Rng rng(mix_seed(kTieRoot, trial));
        SCOPED_TRACE("tie trial " + std::to_string(trial));
        const std::uint64_t support = 3 + 2 * rng.uniform_below(300);
        BoundaryPosterior posterior(support);
        // Truthful evidence about a boundary at the support's top keeps the
        // posterior uniform; an even shift keeps the bracket width odd.
        posterior.restrict_geq(1 + 2 * rng.uniform_below(support / 4 + 1));
        if (expect_same_selection(posterior, 0.0, support, rng.next_u64()) >= 2) ++ties;
        ASSERT_FALSE(HasFailure());
    }
    EXPECT_GT(ties, 200u);

    constexpr std::uint64_t kFlatRoot = 0xF1A7'5CA7'2026;
    constexpr double kExtremeCosts[] = {1e10, 1e11, 1e12, 1e13};
    constexpr double kTinyFloors[] = {1e-11, 1e-12, 1e-13};
    for (std::uint64_t trial = 0; trial < 200; ++trial) {
        Rng rng(mix_seed(kFlatRoot, trial));
        SCOPED_TRACE("flat trial " + std::to_string(trial));
        const std::uint64_t support = 100 + rng.uniform_below(322);
        BoundaryPosterior posterior(support);
        const std::uint64_t center = support - 1 - rng.uniform_below(4);
        const double decay = rng.uniform(0.3, 0.6);
        posterior.recenter(center, BoundaryPosterior::decay_powers(decay, support),
                           kTinyFloors[rng.uniform_below(3)]);
        (void)expect_same_selection(posterior, kExtremeCosts[rng.uniform_below(4)], support,
                                    rng.next_u64());
        ASSERT_FALSE(HasFailure());
    }
}

TEST(AdaptivePlanner, RejectsInvalidConfigurationsEagerly) {
    AcquisitionConfig bad;
    bad.reboot_cost = -1.0;
    EXPECT_THROW((void)adaptive_planner(bad), ConfigError);
    bad = {};
    bad.prior_decay = 1.0;
    EXPECT_THROW((void)adaptive_planner(bad), ConfigError);
    bad = {};
    bad.prior_floor = 0.0;
    EXPECT_THROW((void)adaptive_planner(bad), ConfigError);
}

TEST(AdaptivePlanner, EngineRequiresAndRejectsThePlannerByMode) {
    const sim::CpuProfile profile = sim::skylake_i5_6500();
    plugvolt::ParallelCharacterizerConfig config;
    config.cell.offset_step = Millivolts{10.0};
    config.mode = plugvolt::SweepMode::Adaptive;
    EXPECT_THROW(plugvolt::ParallelCharacterizer(profile, config), ConfigError);
    config.planner = adaptive_planner();
    EXPECT_NO_THROW(plugvolt::ParallelCharacterizer(profile, config));
    config.mode = plugvolt::SweepMode::Bisection;
    EXPECT_THROW(plugvolt::ParallelCharacterizer(profile, config), ConfigError);
}

// PROP: the probe sequence and the resulting map of an adaptive sweep
// are pure functions of the sweep seed — independent of worker count
// (one worker on the calling thread vs five).
TEST(PropAdaptive, ProbeSequenceIsWorkerCountInvariant) {
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();
    for (std::uint64_t trial = 0; trial < 3; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        const std::uint64_t seed = mix_seed(0xADA'2026, trial);
        const auto sweep = [&](unsigned workers) {
            plugvolt::ParallelCharacterizerConfig config;
            config.cell.offset_step = Millivolts{10.0};
            config.mode = plugvolt::SweepMode::Adaptive;
            config.refine_window = 2;
            config.seed = seed;
            config.workers = workers;
            config.planner = adaptive_planner();
            return plugvolt::ParallelCharacterizer(profile, config);
        };
        auto serial = sweep(1);
        auto pooled = sweep(5);
        const std::uint64_t serial_hash = state_hash(serial.characterize());
        const std::uint64_t pooled_hash = state_hash(pooled.characterize());
        EXPECT_EQ(serial_hash, pooled_hash);
        const auto& a = serial.adaptive_probe_log();
        const auto& b = pooled.adaptive_probe_log();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].row, b[i].row) << "probe " << i;
            ASSERT_EQ(a[i].step, b[i].step) << "probe " << i;
            ASSERT_EQ(a[i].faults, b[i].faults) << "probe " << i;
            ASSERT_EQ(a[i].crashed, b[i].crashed) << "probe " << i;
        }
        EXPECT_EQ(serial.config_hash(), pooled.config_hash());
    }
}

}  // namespace
}  // namespace pv::infer
