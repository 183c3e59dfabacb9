// Perf-path differential suite (ctest label: perfpath).
//
// run_batch()'s batched stepping collapses settled stretches into one
// closed-form window.  SteppingMode::Sliced performs the IDENTICAL
// physics and RNG operations but re-validates every window at the
// legacy 50 us granularity with read-only queries — so running whole
// sweeps and campaign cubes under both modes and comparing state hashes
// fingerprint-for-fingerprint is a machine-checked proof that the
// closed-form step never skipped anything the fine-grained walk would
// have seen.  Sliced machines also run every execute_op through the
// general advance_to path, so the V0LTpwn cells check the settled-rail
// op step the same way.  See DESIGN.md 5f for the soundness argument.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "plugvolt/safe_state.hpp"
#include "sim/cpu_profile.hpp"
#include "sim/machine.hpp"
#include "sim/ocm.hpp"

namespace pv {
namespace {

/// Restores the process-wide default stepping mode on scope exit.
struct DefaultModeGuard {
    sim::SteppingMode saved = sim::Machine::default_stepping_mode();
    DefaultModeGuard() = default;
    DefaultModeGuard(const DefaultModeGuard&) = delete;
    DefaultModeGuard& operator=(const DefaultModeGuard&) = delete;
    ~DefaultModeGuard() { sim::Machine::set_default_stepping_mode(saved); }
};

/// A scripted machine history exercising every run_batch regime: rail
/// ramps (fine slices), settled stretches (closed-form windows), an
/// op straddling an event boundary is implicitly covered by the OCM
/// completion events, stolen time, and a fault-active undervolt band.
/// Returns the state hash after every phase.
std::vector<std::uint64_t> scripted_history(sim::SteppingMode mode) {
    sim::Machine m(sim::skylake_i5_6500(), /*seed=*/42);
    m.set_stepping_mode(mode);
    std::vector<std::uint64_t> hashes;

    m.set_all_frequencies(from_ghz(2.0));
    m.advance(milliseconds(2.0));
    hashes.push_back(m.state_hash());

    // Undervolt into the fault band and start the batch while the rail
    // is still ramping: the fine-slice regime hands over to windows.
    const Millivolts onset =
        m.fault_model().onset_offset(from_ghz(2.0), sim::InstrClass::Imul);
    m.write_msr(0, sim::kMsrOcMailbox,
                sim::encode_offset(onset - Millivolts{5.0}, sim::VoltagePlane::Core));
    m.run_batch(1, sim::InstrClass::Imul, 300'000);
    hashes.push_back(m.state_hash());

    // Stolen kernel time interleaves with the workload windows.
    m.add_steal(1, Cycles{50'000});
    m.run_batch(1, sim::InstrClass::Load, 100'000);
    hashes.push_back(m.state_hash());

    // Back to nominal, then a long settled batch.
    m.write_msr(0, sim::kMsrOcMailbox,
                sim::encode_offset(Millivolts{0.0}, sim::VoltagePlane::Core));
    m.advance(milliseconds(1.0));
    m.run_batch(0, sim::InstrClass::Imul, 500'000);
    hashes.push_back(m.state_hash());

    // Single-stepped ops of every class (settled-rail op steps under
    // Batched, the general path under Sliced): loads fault on an
    // undervolted cache plane, kthread-like events steal time at
    // instants that fall inside ops, and a mid-stream core-plane write
    // puts ops across its command latency and ramp.
    const Millivolts load_onset =
        m.fault_model().onset_offset(from_ghz(2.0), sim::InstrClass::Load, 100);
    const Millivolts imul_onset =
        m.fault_model().onset_offset(from_ghz(2.0), sim::InstrClass::Imul, 100);
    m.write_msr(0, sim::kMsrOcMailbox,
                sim::encode_offset(load_onset, sim::VoltagePlane::Cache));
    m.advance(milliseconds(1.0));
    for (std::int64_t k = 1; k <= 40; ++k)
        m.events().schedule(m.now() + Picoseconds{k * 373'737},
                            [&m] { m.add_steal(1, Cycles{100}); });
    std::uint64_t faults = 0;
    for (std::uint64_t i = 0; i < 30'000; ++i) {
        if (i == 10'000) m.add_steal(1, Cycles{20'000});
        if (i == 20'000)
            m.write_msr(0, sim::kMsrOcMailbox,
                        sim::encode_offset(imul_onset, sim::VoltagePlane::Core));
        faults += m.execute_op(1, sim::kAllInstrClasses[i % sim::kAllInstrClasses.size()]);
    }
    hashes.push_back(m.state_hash());
    hashes.push_back(faults);
    hashes.push_back(m.crashed());
    return hashes;
}

TEST(PerfPath, BatchedAndSlicedMachineHistoriesBitIdentical) {
    const std::vector<std::uint64_t> batched = scripted_history(sim::SteppingMode::Batched);
    const std::vector<std::uint64_t> sliced = scripted_history(sim::SteppingMode::Sliced);
    ASSERT_EQ(batched.size(), sliced.size());
    for (std::size_t i = 0; i < batched.size(); ++i)
        EXPECT_EQ(batched[i], sliced[i]) << "histories diverged at phase " << i;
}

std::uint64_t sweep_hash(sim::CpuProfile (*profile)(), double step_mv) {
    plugvolt::ParallelCharacterizerConfig config;
    config.cell.offset_step = Millivolts{step_mv};
    config.workers = 2;
    plugvolt::ParallelCharacterizer characterizer(profile(), config);
    return plugvolt::state_hash(characterizer.characterize());
}

TEST(PerfPath, GoldenSweepsBitIdenticalAcrossSteppingModes) {
    struct Case {
        sim::CpuProfile (*profile)();
        double step_mv;
    };
    const std::vector<Case> cases = {
        {sim::skylake_i5_6500, 5.0},      {sim::skylake_i5_6500, 10.0},
        {sim::kabylake_r_i5_8250u, 5.0},  {sim::kabylake_r_i5_8250u, 10.0},
        {sim::cometlake_i7_10510u, 5.0},  {sim::cometlake_i7_10510u, 10.0},
    };
    DefaultModeGuard guard;
    for (const Case& c : cases) {
        sim::Machine::set_default_stepping_mode(sim::SteppingMode::Batched);
        const std::uint64_t batched = sweep_hash(c.profile, c.step_mv);
        sim::Machine::set_default_stepping_mode(sim::SteppingMode::Sliced);
        const std::uint64_t sliced = sweep_hash(c.profile, c.step_mv);
        EXPECT_EQ(batched, sliced)
            << c.profile().name << " @ " << c.step_mv << " mV: sweep diverged";
    }
}

campaign::CampaignConfig cube_config() {
    campaign::CampaignConfig config;
    config.profiles = {sim::skylake_i5_6500(), sim::cometlake_i7_10510u()};
    config.attacks = {campaign::AttackKind::Plundervolt,
                      campaign::AttackKind::BenignUndervolt};
    config.defenses = {campaign::DefenseKind::None,
                       campaign::DefenseKind::PollingMaximalSafe};
    config.tuning.scan_step = Millivolts{8.0};
    config.tuning.probe_ops = 20'000;
    config.tuning.runs_per_offset = 8;
    config.char_step = Millivolts{10.0};
    return config;
}

TEST(PerfPath, CampaignCubeBitIdenticalAcrossSteppingModesAndWorkerCounts) {
    DefaultModeGuard guard;
    campaign::CampaignConfig config = cube_config();
    // The V0LTpwn rows single-step enclave ops: settled-rail op steps
    // under Batched, the general path under Sliced.
    config.attacks.push_back(campaign::AttackKind::V0ltpwn);
    config.attacks.push_back(campaign::AttackKind::V0ltpwnSgxStep);

    sim::Machine::set_default_stepping_mode(sim::SteppingMode::Batched);
    config.workers = 1;
    const campaign::CampaignReport serial = campaign::CampaignEngine(config).run();

    sim::Machine::set_default_stepping_mode(sim::SteppingMode::Sliced);
    config.workers = 5;
    const campaign::CampaignReport sharded = campaign::CampaignEngine(config).run();

    ASSERT_EQ(serial.cells.size(), sharded.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i)
        EXPECT_EQ(campaign::fingerprint(serial.cells[i]),
                  campaign::fingerprint(sharded.cells[i]))
            << "cell " << i << " diverged between serial-batched and 5-worker-sliced";
    EXPECT_EQ(serial.fingerprint(), sharded.fingerprint());
}

TEST(PerfPath, BatchingEngagesAndCutsEventLoopSteps) {
    sim::Machine m(sim::skylake_i5_6500(), /*seed=*/7);
    m.set_all_frequencies(from_ghz(2.0));
    m.advance(milliseconds(2.0));  // rails settled, nothing pending
    const sim::Machine::Stats before = m.stats();
    const sim::BatchResult r = m.run_batch(0, sim::InstrClass::Imul, 1'000'000);
    EXPECT_EQ(r.ops_done, 1'000'000u);
    const sim::Machine::Stats after = m.stats();
    EXPECT_EQ(after.batched_iterations - before.batched_iterations, 1'000'000u);
    // The legacy path took ceil(500 us / 50 us) = 10 loop steps for this
    // batch; the acceptance bar is at least 5x fewer.
    EXPECT_LE(after.batch_windows - before.batch_windows, 2u);

    // reset(seed) rewinds the traversal counters with the machine.
    m.reset(7);
    const sim::Machine::Stats fresh = m.stats();
    EXPECT_EQ(fresh.batched_iterations, 0u);
    EXPECT_EQ(fresh.batch_windows, 0u);
    EXPECT_EQ(fresh.events_dispatched, 0u);
}

TEST(PerfPath, CampaignCellMetricsExposeMachineCounters) {
    campaign::CampaignConfig config = cube_config();
    config.profiles = {sim::skylake_i5_6500()};
    config.attacks = {campaign::AttackKind::Plundervolt};
    config.defenses = {campaign::DefenseKind::None};
    campaign::CampaignEngine engine(config);
    const campaign::CampaignCellResult cell = engine.run_cell(engine.cells()[0]);

    const auto& values = cell.metrics.values();
    const auto batched = values.find("machine.batched_iterations");
    ASSERT_NE(batched, values.end());
    EXPECT_GT(batched->second.count, 0u) << "batched stepping never engaged in the cell";
    EXPECT_TRUE(values.contains("machine.events_dispatched"));
    EXPECT_TRUE(values.contains("machine.batch_windows"));
    EXPECT_TRUE(values.contains("machine.heap_peak"));
}

}  // namespace
}  // namespace pv
