// The checking layer: PV_ASSERT/PV_DCHECK semantics (death + handler),
// InvariantRegistry cadence, Machine's built-in invariants, StateHasher.
#include "check/assert.hpp"

#include <gtest/gtest.h>

#include <string>

#include "check/invariant_registry.hpp"
#include "check/state_hasher.hpp"
#include "sim/cpu_profile.hpp"
#include "sim/machine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pv::check {
namespace {

#if PV_CHECK_LEVEL >= 1

TEST(CheckDeathTest, FailedAssertAbortsWithContext) {
    const int offset = -412;
    EXPECT_DEATH(PV_ASSERT(offset >= -300, "offset " << offset << " mV out of range"),
                 "PV_ASSERT\\(offset >= -300\\) failed: offset -412 mV out of range");
}

TEST(CheckDeathTest, FailedAssertWithoutContextNamesTheCondition) {
    EXPECT_DEATH(PV_ASSERT(1 + 1 == 3), "PV_ASSERT\\(1 \\+ 1 == 3\\) failed");
}

TEST(Check, PassingAssertIsSilent) {
    PV_ASSERT(2 + 2 == 4);
    PV_ASSERT(true, "never " << "formatted");
    SUCCEED();
}

TEST(Check, ContextIsOnlyFormattedOnFailure) {
    int formatted = 0;
    const auto count = [&formatted] { return ++formatted; };
    PV_ASSERT(true, "calls=" << count());
    EXPECT_EQ(formatted, 0);
}

// A throwing handler lets non-death tests observe the failure payload.
class HandlerGuard {
public:
    explicit HandlerGuard(FailureHandler h) : previous_(set_check_failure_handler(std::move(h))) {}
    ~HandlerGuard() { set_check_failure_handler(std::move(previous_)); }

private:
    FailureHandler previous_;
};

TEST(Check, HandlerReceivesExpressionAndContext) {
    CheckFailure seen{"", "", 0, ""};
    const HandlerGuard guard([&seen](const CheckFailure& f) {
        seen = f;
        throw Error("handled");
    });
    const double rail_mv = -1700.0;
    EXPECT_THROW(PV_ASSERT(rail_mv > -1500.0, "rail at " << rail_mv << " mV"), Error);
    EXPECT_STREQ(seen.expression, "rail_mv > -1500.0");
    EXPECT_EQ(seen.context, "rail at -1700 mV");
    EXPECT_GT(seen.line, 0);
}

#endif  // PV_CHECK_LEVEL >= 1

#if PV_CHECK_LEVEL >= 2

TEST(CheckDeathTest, DcheckIsFatalAtLevel2) {
    EXPECT_DEATH(PV_DCHECK(false, "debug-only"), "PV_ASSERT\\(false\\) failed: debug-only");
}

#else

TEST(Check, DcheckElidedConditionNeverEvaluates) {
    int evaluated = 0;
    PV_DCHECK(++evaluated > 0);
    EXPECT_EQ(evaluated, 0);
}

#endif  // PV_CHECK_LEVEL >= 2

TEST(InvariantRegistry, EvaluatesAtTheConfiguredCadence) {
    InvariantRegistry registry;
    registry.set_fatal(false);
    int evaluations = 0;
    registry.add("counter", [&evaluations](std::string&) {
        ++evaluations;
        return true;
    });
    registry.set_cadence(4);
    for (int i = 0; i < 12; ++i) registry.tick();
    EXPECT_EQ(registry.ticks(), 12u);
    EXPECT_EQ(registry.evaluations(), 3u);
    EXPECT_EQ(evaluations, 3);
}

TEST(InvariantRegistry, TickMatchesTheModuloRuleAcrossCadenceChanges) {
    // Reference model: tick number n (counted from 1) evaluates when the
    // cadence c is nonzero and n % c == 0; check_now() always evaluates.
    InvariantRegistry registry;
    registry.set_fatal(false);
    registry.add("holds", [](std::string&) { return true; });
    std::uint64_t ticks = 0;
    std::uint64_t evaluations = 0;
    std::uint64_t cadence = 0;
    Rng rng(0xCADE);
    for (int step = 0; step < 50'000; ++step) {
        const std::uint64_t action = rng.uniform_below(100);
        if (action < 2) {
            // Mostly small cadences (0 disables), now and then a large one.
            cadence = action == 0 ? rng.uniform_below(9) : 1 + rng.uniform_below(500);
            registry.set_cadence(cadence);
        } else if (action < 3) {
            ++evaluations;
            registry.check_now();
        } else {
            ++ticks;
            if (cadence != 0 && ticks % cadence == 0) ++evaluations;
            registry.tick();
        }
        ASSERT_EQ(registry.ticks(), ticks) << "step " << step;
        ASSERT_EQ(registry.evaluations(), evaluations)
            << "step " << step << ", cadence " << cadence;
    }
    EXPECT_GT(evaluations, 1000u);
}

TEST(InvariantRegistry, CadenceZeroDisablesTicksButNotCheckNow) {
    InvariantRegistry registry;
    registry.set_fatal(false);
    int evaluations = 0;
    registry.add("counter", [&evaluations](std::string&) {
        ++evaluations;
        return true;
    });
    for (int i = 0; i < 100; ++i) registry.tick();
    EXPECT_EQ(evaluations, 0);
    EXPECT_EQ(registry.check_now(), 0u);
    EXPECT_EQ(evaluations, 1);
}

TEST(InvariantRegistry, RecordsViolationsWithDiagnosis) {
    InvariantRegistry registry;
    registry.set_fatal(false);
    registry.add("always-fine", [](std::string&) { return true; });
    registry.add("rail-check", [](std::string& why) {
        why = "rail at -9999 mV";
        return false;
    });
    EXPECT_EQ(registry.check_now(), 1u);
    ASSERT_EQ(registry.violations().size(), 1u);
    EXPECT_EQ(registry.violations()[0].name, "rail-check");
    EXPECT_EQ(registry.violations()[0].why, "rail at -9999 mV");
    registry.clear_violations();
    EXPECT_TRUE(registry.violations().empty());
}

TEST(InvariantRegistry, RemoveByToken) {
    InvariantRegistry registry;
    registry.set_fatal(false);
    const std::size_t token =
        registry.add("doomed", [](std::string& why) {
            why = "always fails";
            return false;
        });
    EXPECT_EQ(registry.check_now(), 1u);
    registry.remove(token);
    EXPECT_EQ(registry.size(), 0u);
    EXPECT_EQ(registry.check_now(), 0u);
}

#if PV_CHECK_LEVEL >= 1

TEST(InvariantRegistryDeathTest, FatalModeAbortsOnViolation) {
    InvariantRegistry registry;  // fatal by default
    registry.add("broken", [](std::string& why) {
        why = "state corrupted";
        return false;
    });
    EXPECT_DEATH(registry.check_now(), "invariant 'broken' violated: state corrupted");
}

#endif

TEST(MachineInvariants, FreshMachinePassesItsBuiltInSet) {
    sim::Machine machine(sim::skylake_i5_6500(), /*seed=*/7);
    EXPECT_GE(machine.invariants().size(), 4u);
    machine.invariants().set_fatal(false);
    EXPECT_EQ(machine.invariants().check_now(), 0u);
}

TEST(MachineInvariants, TickedFromTheEventLoopAtCadence) {
    sim::Machine machine(sim::skylake_i5_6500(), /*seed=*/7);
#if PV_CHECK_LEVEL >= 2
    EXPECT_EQ(machine.invariants().cadence(), 64u);
#endif
    machine.invariants().set_fatal(false);
    machine.invariants().set_cadence(1);  // evaluate on every tick
    const std::uint64_t before = machine.invariants().evaluations();
    (void)machine.run_batch(0, sim::InstrClass::Imul, 100'000);
    EXPECT_GT(machine.invariants().evaluations(), before);
    EXPECT_TRUE(machine.invariants().violations().empty());
}

TEST(MachineInvariants, ComponentRegisteredPredicateSeesViolations) {
    sim::Machine machine(sim::skylake_i5_6500(), /*seed=*/7);
    machine.invariants().set_fatal(false);
    machine.invariants().add("no-retired-work", [&machine](std::string& why) {
        const std::uint64_t n = machine.core(0).instructions_retired();
        why = "core 0 retired " + std::to_string(n) + " ops";
        return n == 0;
    });
    EXPECT_EQ(machine.invariants().check_now(), 0u);
    (void)machine.run_batch(0, sim::InstrClass::Imul, 1'000);
    machine.invariants().clear_violations();
    EXPECT_EQ(machine.invariants().check_now(), 1u);
    EXPECT_EQ(machine.invariants().violations()[0].name, "no-retired-work");
}

TEST(StateHasher, SameFieldsSameDigest) {
    StateHasher a;
    a.mix(std::uint64_t{42}).mix(3.25).mix(std::string_view{"core"}).mix(true);
    StateHasher b;
    b.mix(std::uint64_t{42}).mix(3.25).mix(std::string_view{"core"}).mix(true);
    EXPECT_EQ(a.digest(), b.digest());
}

TEST(StateHasher, OrderAndBitPatternSensitive) {
    StateHasher ab;
    ab.mix(std::uint64_t{1}).mix(std::uint64_t{2});
    StateHasher ba;
    ba.mix(std::uint64_t{2}).mix(std::uint64_t{1});
    EXPECT_NE(ab.digest(), ba.digest());

    StateHasher pos, neg;
    pos.mix(0.0);
    neg.mix(-0.0);
    EXPECT_NE(pos.digest(), neg.digest());  // bit-identical, not numerically-equal
}

TEST(StateHasher, StringsAreLengthPrefixed) {
    StateHasher joined, split;
    joined.mix(std::string_view{"ab"}).mix(std::string_view{""});
    split.mix(std::string_view{"a"}).mix(std::string_view{"b"});
    EXPECT_NE(joined.digest(), split.digest());
}

TEST(MachineStateHash, EqualSeedsEqualHistoriesHashEqual) {
    const sim::CpuProfile profile = sim::skylake_i5_6500();
    sim::Machine a(profile, /*seed=*/0xAB);
    sim::Machine b(profile, /*seed=*/0xAB);
    EXPECT_EQ(a.state_hash(), b.state_hash());
    (void)a.run_batch(0, sim::InstrClass::Imul, 50'000);
    (void)b.run_batch(0, sim::InstrClass::Imul, 50'000);
    EXPECT_EQ(a.state_hash(), b.state_hash());
}

TEST(MachineStateHash, DivergentHistoryChangesTheHash) {
    const sim::CpuProfile profile = sim::skylake_i5_6500();
    sim::Machine a(profile, /*seed=*/0xAB);
    sim::Machine b(profile, /*seed=*/0xAB);
    b.set_core_frequency(1, Megahertz{1200.0});
    EXPECT_NE(a.state_hash(), b.state_hash());
}

TEST(MachineStateHash, ResetRestoresTheBootFingerprint) {
    const sim::CpuProfile profile = sim::skylake_i5_6500();
    sim::Machine machine(profile, /*seed=*/0xCD);
    const std::uint64_t boot = machine.state_hash();
    (void)machine.run_batch(0, sim::InstrClass::Imul, 10'000);
    EXPECT_NE(machine.state_hash(), boot);
    machine.reset(/*seed=*/0xCD);
    EXPECT_EQ(machine.state_hash(), boot);
}

}  // namespace
}  // namespace pv::check
