// Perf-path differential suite (ctest label: perfpath).
//
// run_batch()'s batched stepping collapses settled stretches into one
// closed-form window.  SteppingMode::Sliced performs the IDENTICAL
// physics and RNG operations but re-validates every window at the
// legacy 50 us granularity with read-only queries — so running whole
// sweeps and campaign cubes under both modes and comparing state hashes
// fingerprint-for-fingerprint is a machine-checked proof that the
// closed-form step never skipped anything the fine-grained walk would
// have seen.  Sliced machines also run every single-stepped op through
// the general advance_to path, so the V0LTpwn cells check the settled-op
// runs the same way, and re-derive every settled-op stretch the
// generation calls current (throwing if it went stale).  See DESIGN.md
// 5f for the soundness argument.
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "defenses/minefield.hpp"
#include "os/kernel.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "plugvolt/safe_state.hpp"
#include "sgx/enclave.hpp"
#include "sgx/program.hpp"
#include "sgx/runtime.hpp"
#include "sgx/sgx_step.hpp"
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

/// The smallest delay scale at which the machine's crash check fires for
/// a core-plane voltage `v` at `f` (bisection on doubles to adjacency).
double crash_scale(const sim::FaultModel& fm, Megahertz f, Millivolts v) {
    double lo = 1.0;  // no crash
    double hi = 2.0;  // crash
    while (std::nextafter(lo, hi) < hi) {
        const double mid = lo + (hi - lo) / 2;  // strictly inside: hi - lo is exact
        if (fm.would_crash(f, v, mid))
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

/// The die temperature whose thermal delay scale is `scale`.
double temperature_for_scale(const sim::CpuProfile& p, double scale) {
    return 25.0 + (scale - 1.0) / p.thermal.delay_per_c;
}

/// Single-stepped ops at the edges of the settled-op certificate
/// (DESIGN 5f): every class interleaved with each fault-reachable class
/// parked at its onset (draws on both sides of the skip threshold), a
/// core plane past the slack (no threshold at all), die heating by
/// set_die_temperature across the certificate's delay-scale bound,
/// frequency changes of the op core and of another core, a crash on a
/// heat jump and a crash the die's own heating drives inside a settled
/// stretch.
/// Returns the state hash and fault count after every phase.
std::vector<std::uint64_t> certificate_edges_history(sim::SteppingMode mode) {
    // A die with a 1 ms thermal time constant: its own heating crosses
    // certificate bounds within a few thousand ops.
    sim::CpuProfile profile = sim::skylake_i5_6500();
    profile.thermal.tau_ms = 1.0;
    sim::Machine m(profile, /*seed=*/2024);
    m.set_stepping_mode(mode);
    const sim::FaultModel& fm = m.fault_model();
    const Megahertz f = from_ghz(3.0);
    std::vector<std::uint64_t> out;
    const auto pin = [&] {
        m.set_all_frequencies(f);
        m.advance_to(m.rail_settle_time());
    };
    const auto run_ops = [&](std::uint64_t n) {  // returns the ops run
        std::uint64_t faults = 0;
        std::uint64_t i = 0;
        for (; i < n && !m.crashed(); ++i)
            faults += m.execute_op(1, sim::kAllInstrClasses[i % sim::kAllInstrClasses.size()]);
        out.push_back(m.state_hash());
        out.push_back(faults);
        return i;
    };
    pin();

    // Imul on the core plane and Load on the cache plane at their
    // 100-op onsets (p ~ 0.03); the other classes' onsets lie past the
    // crash edge, so they draw far below it.  Halfway, the die jumps
    // 10 K hotter: every certificate is past its scale bound.
    m.regulator().force(sim::VoltagePlane::Core, fm.onset_offset(f, sim::InstrClass::Imul, 100));
    m.regulator().force(sim::VoltagePlane::Cache,
                        fm.onset_offset(f, sim::InstrClass::Load, 100));
    run_ops(6'000);
    m.set_die_temperature(m.thermal().temperature_c() + 10.0);
    run_ops(6'000);

    // Frequency changes: the op core's lowered through PERF_CTL (the op's
    // duration moves), then the other cores' set directly on the Core
    // (max_active_frequency falls, the rail stays).
    m.set_core_frequency(1, from_ghz(2.4));
    run_ops(3'000);
    for (const unsigned id : {0u, 2u, 3u}) m.core(id).set_frequency(from_ghz(2.6));
    run_ops(3'000);

    // The core plane at the crash edge of a die 0.5 K warmer than the one
    // the reboot leaves, a temperature the load's own heating passes:
    // Imul's class delay is past the slack there, so it draws exactly on
    // every op.  A jump to 40 C crashes the next op.
    m.reboot();
    pin();
    m.regulator().force(sim::VoltagePlane::Cache, Millivolts{0.0});
    const Millivolts edge =
        fm.crash_offset(f, m.thermal().delay_scale() + 0.5 * profile.thermal.delay_per_c);
    m.regulator().force(sim::VoltagePlane::Core, edge);
    m.advance(Picoseconds{0});
    run_ops(3'000);
    m.set_die_temperature(40.0);
    run_ops(100);
    out.push_back(m.crashed());

    // The same edge, with the die set 1.2e-6 of delay scale short of the
    // crash: it heats across its certificates' bounds, op by op, until
    // the crash check fires inside the settled stretch.
    m.reboot();
    pin();
    m.regulator().force(sim::VoltagePlane::Core, edge);
    const double s_crash =
        crash_scale(fm, m.max_active_frequency(), m.plane_voltage(sim::VoltagePlane::Core));
    m.set_die_temperature(temperature_for_scale(profile, s_crash - 1.2e-6));
    m.advance(Picoseconds{0});
    const bool survived_setup = !m.crashed();
    const std::uint64_t ops_to_crash = run_ops(200'000);
    out.push_back(survived_setup && m.crashed() ? ops_to_crash : 0);
    return out;
}

TEST(PerfPath, CertifiedOpStepMatchesGeneralPathAtTheEdges) {
    const std::vector<std::uint64_t> batched =
        certificate_edges_history(sim::SteppingMode::Batched);
    const std::vector<std::uint64_t> sliced = certificate_edges_history(sim::SteppingMode::Sliced);
    ASSERT_EQ(batched.size(), sliced.size());
    for (std::size_t i = 0; i < batched.size(); ++i)
        EXPECT_EQ(batched[i], sliced[i]) << "histories diverged at entry " << i;
    // The script must reach what it is about: faults in the onset
    // phases, the heat-jump crash and the crash the die's heating drives.
    EXPECT_GT(sliced[1], 0u);
    EXPECT_GT(sliced[3], sliced[1]) << "the hotter die must fault more";
    const std::size_t n = sliced.size();
    EXPECT_EQ(sliced[n - 4], 1u) << "the heat jump must crash the machine";
    EXPECT_GT(sliced[n - 1], 1'000u) << "the die's own heating must crash the machine, "
                                        "well inside the settled stretch";
}

/// Single-stepped ops against each way the machine state can change under
/// a settled-op stretch (DESIGN 5f).  A Skylake machine is pinned at
/// 3 GHz with its core plane at the 100-op Imul onset and its cache plane
/// at the Load one; `script(m, ops)` interleaves its writes with calls
/// of ops(n, core, cpi), which runs n ops of every class in turn (on core
/// 1 at cpi 300, 100 ns an op, by default) and records the state hash
/// after each op.
template <class Script>
std::vector<std::uint64_t> stretch_history(sim::SteppingMode mode, Script script) {
    sim::Machine m(sim::skylake_i5_6500(), /*seed=*/77);
    m.set_stepping_mode(mode);
    const Megahertz f = from_ghz(3.0);
    m.set_all_frequencies(f);
    m.advance_to(m.rail_settle_time());
    const sim::FaultModel& fm = m.fault_model();
    m.write_msr(0, sim::kMsrOcMailbox,
                sim::encode_offset(fm.onset_offset(f, sim::InstrClass::Imul, 100),
                                   sim::VoltagePlane::Core));
    m.write_msr(0, sim::kMsrOcMailbox,
                sim::encode_offset(fm.onset_offset(f, sim::InstrClass::Load, 100),
                                   sim::VoltagePlane::Cache));
    m.advance_to(m.rail_settle_time());
    std::vector<std::uint64_t> hashes;
    const auto ops = [&](std::uint64_t n, unsigned core = 1, double cpi = 300.0) {
        for (std::uint64_t i = 0; i < n; ++i) {
            (void)m.execute_op(core, sim::kAllInstrClasses[i % sim::kAllInstrClasses.size()], cpi);
            hashes.push_back(m.state_hash());
        }
    };
    script(m, ops);
    return hashes;
}

/// Batched against Sliced, op by op.
template <class Script>
void expect_stretch_histories_equal(Script script) {
    const std::vector<std::uint64_t> batched =
        stretch_history(sim::SteppingMode::Batched, script);
    const std::vector<std::uint64_t> sliced = stretch_history(sim::SteppingMode::Sliced, script);
    ASSERT_EQ(batched.size(), sliced.size());
    ASSERT_FALSE(sliced.empty());
    std::size_t i = 0;
    while (i < batched.size() && batched[i] == sliced[i]) ++i;
    EXPECT_EQ(i, batched.size()) << "histories diverged at op " << i << " of " << batched.size();
}

TEST(PerfPath, StretchWaitsOutAKthreadWakeInsideTheOpsStealWindow) {
    // Every third wake the kthread, pinned to the op core, steals 3 us:
    // the next op's own advance(steal) then runs into the following wake
    // 2 us on, which leaves stolen time for the op after it to drain.
    expect_stretch_histories_equal([](sim::Machine& m, auto& ops) {
        os::Kernel kernel(m);
        unsigned wakes = 0;
        kernel.start_kthread({.name = "stealer", .cpu = 1, .period = microseconds(2.0)},
                             [&wakes](os::Kernel& k) {
                                 if (++wakes % 3 == 0) k.machine().add_steal(1, Cycles{9'000});
                             });
        ops(3'000);
        EXPECT_GE(wakes, 20u);
    });
}

TEST(PerfPath, StretchEndsOnDirectRegulatorWrites) {
    // VoltPillager's SVID writes: regulator().write between ops (150 us
    // of command latency, then a 1 mV/us ramp), and regulator().force.
    expect_stretch_histories_equal([](sim::Machine& m, auto& ops) {
        ops(300);
        const Millivolts parked = m.regulator().target(sim::VoltagePlane::Core);
        for (const double step_mv : {-3.0, 3.0}) {
            m.regulator().write(sim::VoltagePlane::Core, parked + Millivolts{step_mv}, m.now());
            ops(1'600);
        }
        m.regulator().force(sim::VoltagePlane::Cache, Millivolts{0.0});
        ops(300);
        m.regulator().force(sim::VoltagePlane::Core, parked - Millivolts{2.0});
        ops(300);
    });
}

TEST(PerfPath, StretchEndsOnDirectCoreWrites) {
    // Core setters bypass Machine: another core's frequency
    // (max_active_frequency), the op core's frequency (the op's duration)
    // and stolen time.  Ops also move to another core and to another cpi.
    expect_stretch_histories_equal([](sim::Machine& m, auto& ops) {
        ops(300);
        m.core(1).set_frequency(from_ghz(2.4));
        ops(300);
        for (const unsigned id : {0u, 2u, 3u}) m.core(id).set_frequency(from_ghz(2.6));
        ops(300);
        m.core(1).add_steal(microseconds(1.0));
        ops(300);
        ops(300, /*core=*/3);
        ops(300, /*core=*/1, /*cpi=*/1.0);
        ops(300);
    });
}

TEST(PerfPath, StretchHonoursEventsScheduledBetweenOps) {
    // events().schedule between ops, due inside the next op (halfway, and
    // exactly at its end), and due 20 us on, inside a stretch that begins
    // after the schedule.  The regulator callbacks write through a
    // reference taken before any op: only the dispatch marks their writes.
    expect_stretch_histories_equal([](sim::Machine& m, auto& ops) {
        sim::VoltageRegulator& reg = m.regulator();
        const Millivolts parked = reg.target(sim::VoltagePlane::Core);
        const auto force_core = [&reg](Millivolts v) {
            return [&reg, v] { reg.force(sim::VoltagePlane::Core, v); };
        };
        ops(300);
        m.events().schedule(m.now() + Picoseconds{50'000}, [&m] { m.add_steal(1, Cycles{3'000}); });
        ops(300);
        m.events().schedule(m.now() + Picoseconds{100'000}, force_core(parked - Millivolts{2.0}));
        ops(300);
        m.events().schedule(m.now() + Picoseconds{1}, force_core(parked));
        ops(300);
        m.events().schedule(m.now() + microseconds(20.0), force_core(parked - Millivolts{2.0}));
        ops(400);
    });
}

TEST(PerfPath, StretchEndsOnARebootAfterACrashMidStretch) {
    // The core plane at the crash edge of a die 0.5 K warmer than the one
    // the boot leaves; a 40 C jump crashes the machine inside a settled
    // stretch, ops on the crashed machine do nothing, and the reboot
    // starts afresh.
    expect_stretch_histories_equal([](sim::Machine& m, auto& ops) {
        const sim::CpuProfile& p = m.profile();
        const Megahertz f = m.core(1).frequency();
        m.regulator().force(sim::VoltagePlane::Cache, Millivolts{0.0});
        m.regulator().force(sim::VoltagePlane::Core,
                            m.fault_model().crash_offset(
                                f, m.thermal().delay_scale() + 0.5 * p.thermal.delay_per_c));
        ops(300);
        m.set_die_temperature(40.0);
        ops(300);
        EXPECT_TRUE(m.crashed());
        m.reboot();
        m.set_all_frequencies(f);
        m.advance_to(m.rail_settle_time());
        ops(300);
        EXPECT_FALSE(m.crashed());
    });
}

/// What one op-run history saw: the state hash, the ops done, the fault
/// and the crash flag after every run, and the state hash at every
/// invariant evaluation; and counts of what the runs went through.
struct OpRunHistory {
    std::vector<std::uint64_t> values;
    std::size_t mid_run_faults = 0;   // a run cut short by a fault
    std::size_t mid_run_crashes = 0;  // a run cut short by a crash
    std::size_t dispatching_runs = 0; // a run with an event dispatched inside
    std::size_t evaluations = 0;      // invariant evaluations
};

/// The classes of one V0LTpwn victim entry: two loads, then 32
/// imul/xor pairs.
std::vector<sim::InstrClass> entry_classes() {
    std::vector<sim::InstrClass> ops{sim::InstrClass::Load, sim::InstrClass::Load};
    for (int i = 0; i < 32; ++i) {
        ops.push_back(sim::InstrClass::Imul);
        ops.push_back(sim::InstrClass::Alu);
    }
    return ops;
}

/// Single-stepped op runs on a Skylake machine pinned at 3 GHz with its
/// core plane at the 100-op Imul onset and its cache plane at the Load
/// one.  `script(m, run)` interleaves its writes with calls of
/// run(ops, core = 1, cpi = 1), which retires `ops` through execute_ops,
/// or with `per_op` as the loop execute_ops stands for: one execute_op
/// per op, stopping after the first that faults or leaves the machine
/// crashed (none on a machine that is already crashed).  An invariant
/// records the state hash at every evaluation.
template <class Script>
OpRunHistory op_run_history(sim::SteppingMode mode, bool per_op, double tau_ms, Script script) {
    sim::CpuProfile profile = sim::skylake_i5_6500();
    profile.thermal.tau_ms = tau_ms;
    sim::Machine m(profile, /*seed=*/99);
    m.set_stepping_mode(mode);
    const Megahertz f = from_ghz(3.0);
    m.set_all_frequencies(f);
    m.advance_to(m.rail_settle_time());
    const sim::FaultModel& fm = m.fault_model();
    m.regulator().force(sim::VoltagePlane::Core, fm.onset_offset(f, sim::InstrClass::Imul, 100));
    m.regulator().force(sim::VoltagePlane::Cache, fm.onset_offset(f, sim::InstrClass::Load, 100));
    m.advance(Picoseconds{0});

    OpRunHistory h;
    std::vector<std::uint64_t> seen;
    m.invariants().add("records-state", [&m, &seen](std::string&) {
        seen.push_back(m.state_hash());
        return true;
    });
    const auto run = [&](std::span<const sim::InstrClass> ops, unsigned core = 1,
                         double cpi = 1.0) {
        const bool was_crashed = m.crashed();
        const std::uint64_t dispatched = m.stats().events_dispatched;
        sim::OpRunResult r;
        if (!per_op) {
            r = m.execute_ops(core, ops, cpi);
        } else if (!m.crashed()) {
            for (const sim::InstrClass c : ops) {
                ++r.ops_done;
                r.faulted = m.execute_op(core, c, cpi);
                if (r.faulted || m.crashed()) break;
            }
        }
        h.values.insert(h.values.end(),
                        {m.state_hash(), r.ops_done, r.faulted, m.crashed()});
        h.mid_run_faults += r.faulted && r.ops_done < ops.size();
        h.mid_run_crashes += !was_crashed && m.crashed() && r.ops_done < ops.size();
        h.dispatching_runs += m.stats().events_dispatched > dispatched;
        return r;
    };
    script(m, run);
    h.evaluations = seen.size();
    h.values.insert(h.values.end(), seen.begin(), seen.end());
    return h;
}

/// The runs on a Batched machine, against the per-op loop on a
/// same-seed Batched machine and the runs on a Sliced one, run for run.
template <class Script>
OpRunHistory expect_op_runs_match_per_op_path(Script script, double tau_ms = 20.0) {
    const OpRunHistory runs = op_run_history(sim::SteppingMode::Batched, false, tau_ms, script);
    const OpRunHistory per_op = op_run_history(sim::SteppingMode::Batched, true, tau_ms, script);
    const OpRunHistory sliced = op_run_history(sim::SteppingMode::Sliced, false, tau_ms, script);
    EXPECT_FALSE(runs.values.empty());
    for (const OpRunHistory* other : {&per_op, &sliced}) {
        EXPECT_EQ(runs.values.size(), other->values.size());
        std::size_t i = 0;
        while (i < runs.values.size() && i < other->values.size() &&
               runs.values[i] == other->values[i])
            ++i;
        EXPECT_EQ(i, runs.values.size())
            << (other == &per_op ? "per-op" : "Sliced") << " history diverged at value " << i;
    }
    return runs;
}

TEST(PerfPath, OpRunMatchesPerOpPath) {
    const std::vector<sim::InstrClass> entry = entry_classes();
    std::vector<sim::InstrClass> mixed;
    for (std::size_t i = 0; i < 50; ++i)
        mixed.push_back(sim::kAllInstrClasses[i % sim::kAllInstrClasses.size()]);
    {
        SCOPED_TRACE("faults mid-run near the onset, on two cores and at two cpis");
        const OpRunHistory h = expect_op_runs_match_per_op_path([&](sim::Machine&, auto& run) {
            for (int k = 0; k < 300; ++k) run(k % 3 == 0 ? mixed : entry);
            for (int k = 0; k < 50; ++k) run(entry, /*core=*/2);
            for (int k = 0; k < 50; ++k) run(entry, /*core=*/1, /*cpi=*/7.5);
        });
        EXPECT_GT(h.mid_run_faults, 20u);
    }
    {
        SCOPED_TRACE("events due inside runs");
        const OpRunHistory h = expect_op_runs_match_per_op_path([&](sim::Machine& m, auto& run) {
            const Millivolts parked = m.regulator().target(sim::VoltagePlane::Core);
            for (int k = 0; k < 40; ++k) {
                // Due in this run (an op takes 334 ps, a run 22 ns), at an
                // op's end, and in a run ten runs on.
                m.events().schedule(m.now() + Picoseconds{5'000 + 37 * k},
                                    [&m] { m.add_steal(1, Cycles{30}); });
                m.events().schedule(m.now() + Picoseconds{10 * 334}, [] {});
                m.events().schedule(m.now() + Picoseconds{220'000 + 1'000 * k}, [&m, parked, k] {
                    m.regulator().force(sim::VoltagePlane::Core,
                                        parked - Millivolts{k % 2 == 0 ? 1.0 : 0.0});
                });
                for (int j = 0; j < 12; ++j) run(entry);
            }
        });
        EXPECT_GE(h.dispatching_runs, 40u);
    }
    {
        SCOPED_TRACE("invariant evaluations inside runs");
        const OpRunHistory h = expect_op_runs_match_per_op_path([&](sim::Machine& m, auto& run) {
            for (const std::uint64_t cadence : {7u, 1u, 64u, 0u}) {
                m.invariants().set_cadence(cadence);
                for (int k = 0; k < 40; ++k) run(entry);
            }
        });
        // At the onset a run faults about once (32 imuls at p ~ 0.03),
        // so 40 runs at cadence 1 evaluate ~1 300 times.
        EXPECT_GT(h.evaluations, 1'000u);
    }
    {
        SCOPED_TRACE("certificate rebuilds as a 1 ms die heats, and a heat jump");
        const OpRunHistory h = expect_op_runs_match_per_op_path(
            [&](sim::Machine& m, auto& run) {
                for (int k = 0; k < 600; ++k) run(k % 2 == 0 ? entry : mixed);
                m.set_die_temperature(m.thermal().temperature_c() + 10.0);
                for (int k = 0; k < 300; ++k) run(entry);
            },
            /*tau_ms=*/1.0);
        EXPECT_GT(h.mid_run_faults, 50u);
    }
    {
        SCOPED_TRACE("a crash mid-run as the die heats, runs on the crashed machine, a reboot");
        const std::vector<sim::InstrClass> alu(66, sim::InstrClass::Alu);
        const OpRunHistory h = expect_op_runs_match_per_op_path(
            [&](sim::Machine& m, auto& run) {
                // The core plane at the crash edge of a die 1.2e-6 of delay
                // scale short of it: the runs' own heating crashes it.  ALU
                // ops, whose shorter path does not fault there, fill whole
                // runs up to the crash.
                m.regulator().force(sim::VoltagePlane::Cache, Millivolts{0.0});
                const Megahertz f = m.core(1).frequency();
                const sim::FaultModel& fm = m.fault_model();
                m.regulator().force(
                    sim::VoltagePlane::Core,
                    fm.crash_offset(f, m.thermal().delay_scale() +
                                           0.5 * m.profile().thermal.delay_per_c));
                const double s_crash = crash_scale(fm, m.max_active_frequency(),
                                                   m.plane_voltage(sim::VoltagePlane::Core));
                m.set_die_temperature(temperature_for_scale(m.profile(), s_crash - 1.2e-6));
                m.advance(Picoseconds{0});
                for (int k = 0; k < 5'000 && !m.crashed(); ++k) run(alu);
                EXPECT_TRUE(m.crashed());
                run(alu);
                // Right after the reboot the rails are settled but the die's
                // last thermal update lies before the boot delay.
                m.reboot();
                run(entry);
                run(entry);
                m.set_all_frequencies(f);
                m.advance_to(m.rail_settle_time());
                for (int k = 0; k < 20; ++k) run(entry);
                // A crash inside the first op's own steal window.
                m.add_steal(1, Cycles{30'000});
                m.events().schedule(m.now() + Picoseconds{1'000},
                                    [&m] { m.crash("crash inside a steal window"); });
                run(entry);
                EXPECT_TRUE(m.crashed());
                m.reboot();
                for (int k = 0; k < 5; ++k) run(entry);
            },
            /*tau_ms=*/1.0);
        EXPECT_EQ(h.mid_run_crashes, 2u);
    }
    {
        SCOPED_TRACE("a kthread pinned to the op core steals time inside runs");
        const OpRunHistory h = expect_op_runs_match_per_op_path([&](sim::Machine& m, auto& run) {
            os::Kernel kernel(m);
            unsigned wakes = 0;
            kernel.start_kthread({.name = "stealer", .cpu = 1, .period = microseconds(2.0)},
                                 [&wakes](os::Kernel& k) {
                                     if (++wakes % 3 == 0) k.machine().add_steal(1, Cycles{9'000});
                                 });
            for (int k = 0; k < 400; ++k) run(entry, /*core=*/1, /*cpi=*/30.0);
            EXPECT_GE(wakes, 100u);
        });
        EXPECT_GT(h.dispatching_runs, 100u);
    }
}

/// One enclave entry as Enclave::run stepped it before its runs were
/// fused: one execute_op per instruction, each followed by its corruption
/// draw, its trap check and the AEX.
sgx::EnclaveRunResult per_instruction_entry(sim::Machine& m, unsigned core,
                                            const sgx::Program& program,
                                            const sgx::SgxStep* stepper) {
    sgx::EnclaveRunResult result;
    for (std::size_t i = 0; i < program.size(); ++i) {
        const sgx::VictimInstr& instr = program[i];
        const bool faulted = m.execute_op(core, instr.cls);
        if (m.crashed()) {
            result.machine_crashed = true;
            break;
        }
        if (instr.is_trap()) {
            if (faulted || sgx::trap_fires(instr, result.regs)) {
                result.trap_detected = true;
                break;
            }
            continue;
        }
        sgx::execute(instr, result.regs, faulted, &m);
        if (stepper != nullptr && stepper->capabilities().single_step) {
            ++result.aex_count;
            const std::optional<std::size_t> at = stepper->suppression_point();
            if (at && i >= *at) {
                result.suppressed = true;
                break;
            }
        }
    }
    result.completed = !result.trap_detected && !result.suppressed && !result.machine_crashed;
    return result;
}

TEST(PerfPath, FusedEnclaveEntriesMatchPerInstructionLoop) {
    // The V0LTpwn victim, plain, Minefield-instrumented and with a trap
    // that fires without a fault (its check reads a register nothing
    // wrote), each also stepped (zero-step after the last multiply), on a
    // Comet Lake machine at fmax with its core plane near the 100-op Imul
    // onset; odd seeds add a kthread on the victim core whose wakes fall
    // inside entries.  Fused entries against the per-instruction loop,
    // entry for entry.
    const sgx::Program chain = sgx::make_mul_chain(0xAAAA, 0x5555, 32);
    defense::Minefield minefield;
    const sgx::Program mined = minefield.instrument(chain);
    sgx::Program tripped = chain;
    tripped.insert(tripped.begin() + 41, sgx::make_mul_trap(7, 0, 1));
    const std::vector<const sgx::Program*> programs{&chain, &mined, &tripped};
    std::size_t faulted_entries = 0;
    std::size_t traps = 0;
    std::size_t suppressed = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        for (std::size_t v = 0; v < programs.size(); ++v) {
            for (const bool stepped : {false, true}) {
                const sgx::Program& program = *programs[v];
                const auto history = [&](bool fused) {
                    sim::Machine m(sim::cometlake_i7_10510u(), seed);
                    os::Kernel kernel(m);
                    sgx::SgxRuntime runtime(kernel);
                    auto enclave = runtime.create_enclave("victim", 1, program);
                    sgx::SgxStep stepper({.single_step = true, .zero_step = true});
                    stepper.suppress_after(sgx::last_mul_index(program));
                    if (stepped) enclave->attach_stepper(&stepper);
                    if (seed % 2 == 1)
                        kernel.start_kthread({.name = "tick", .cpu = 1, .period = microseconds(1.3)},
                                             [](os::Kernel&) {});
                    const Megahertz f = m.profile().freq_max;
                    m.set_all_frequencies(f);
                    m.advance_to(m.rail_settle_time());
                    const Millivolts onset =
                        m.fault_model().onset_offset(f, sim::InstrClass::Imul, 100) +
                        Millivolts{static_cast<double>(seed % 3) - 1.0};
                    m.write_msr(0, sim::kMsrOcMailbox,
                                sim::encode_offset(onset, sim::VoltagePlane::Core));
                    m.advance_to(m.rail_settle_time());
                    std::vector<sgx::EnclaveRunResult> results;
                    std::vector<std::uint64_t> hashes;
                    for (int k = 0; k < 30; ++k) {
                        results.push_back(fused ? enclave->run()
                                                : per_instruction_entry(
                                                      m, 1, program, stepped ? &stepper : nullptr));
                        hashes.push_back(m.state_hash());
                    }
                    return std::pair{results, hashes};
                };
                const auto [fused, fused_hashes] = history(true);
                const auto [reference, reference_hashes] = history(false);
                const std::size_t n = fused.size();
                ASSERT_EQ(reference.size(), n);
                for (std::size_t k = 0; k < n; ++k) {
                    const sgx::EnclaveRunResult& a = fused[k];
                    const sgx::EnclaveRunResult& b = reference[k];
                    const bool same = a.completed == b.completed &&
                                      a.trap_detected == b.trap_detected &&
                                      a.suppressed == b.suppressed &&
                                      a.machine_crashed == b.machine_crashed &&
                                      a.aex_count == b.aex_count && a.regs == b.regs &&
                                      fused_hashes[k] == reference_hashes[k];
                    ASSERT_TRUE(same) << "seed " << seed << ", program "
                                      << v << (stepped ? " stepped" : "")
                                      << ": entry " << k << " diverged";
                    faulted_entries += a.trap_detected || a.regs != sgx::reference_run(program);
                    traps += a.trap_detected;
                    suppressed += a.suppressed;
                }
            }
        }
    }
    // Near the onset most entries see a fault somewhere; every entry of
    // the tripped program ends at its trap.
    EXPECT_GT(faulted_entries, 24u * 6 * 30 / 4);
    EXPECT_GT(traps, 24u * 2 * 30);
    EXPECT_GT(suppressed, 100u);
}

TEST(PerfPath, EntryPlansFollowSteppingChangesAndReboots) {
    // One enclave per seed runs 150 entries of the Minefield-instrumented
    // chain near the Imul onset.  Between entries its stepper is attached,
    // detached and swapped for one without zero-stepping or without
    // single-stepping, the zero-step point moves (past the end of the
    // program too), and now and then the core plane is commanded just past
    // the crash edge: the rail crosses it while entries run, the machine
    // crashes inside one, one more entry runs on the crashed machine, and
    // then it reboots.  Each entry's result and the machine's hash
    // must match the per-instruction loop under the same stepper.
    const sgx::Program chain = sgx::make_mul_chain(0x1F2E, 0x3D4C, 24);
    defense::Minefield minefield;
    const sgx::Program program = minefield.instrument(chain);
    constexpr int kEntries = 150;
    std::size_t crashes = 0;
    std::size_t crashed_entries = 0;
    std::size_t suppressed = 0;
    std::size_t faulted_entries = 0;
    std::size_t completed = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const auto history = [&](bool fused) {
            sim::Machine m(sim::cometlake_i7_10510u(), seed);
            os::Kernel kernel(m);
            sgx::SgxRuntime runtime(kernel);
            auto enclave = runtime.create_enclave("victim", 1, program);
            sgx::SgxStep zero_step({.single_step = true, .zero_step = true});
            sgx::SgxStep single_only({.single_step = true, .zero_step = false});
            sgx::SgxStep zero_only({.single_step = false, .zero_step = true});
            single_only.suppress_after(2);
            zero_only.suppress_after(2);
            const sgx::SgxStep* const steppers[] = {&zero_step, nullptr, &single_only,
                                                    &zero_only};
            const Megahertz f = m.profile().freq_max;
            const auto park_at_onset = [&] {
                m.set_all_frequencies(f);
                m.advance_to(m.rail_settle_time());
                const Millivolts onset =
                    m.fault_model().onset_offset(f, sim::InstrClass::Imul, 100);
                m.write_msr(0, sim::kMsrOcMailbox,
                            sim::encode_offset(onset, sim::VoltagePlane::Core));
                m.advance_to(m.rail_settle_time());
            };
            park_at_onset();
            const sgx::SgxStep* stepper = nullptr;
            std::vector<sgx::EnclaveRunResult> results;
            std::vector<std::uint64_t> hashes;
            bool ran_crashed = false;
            for (int k = 0; k < kEntries; ++k) {
                if (ran_crashed) {
                    m.reboot();
                    park_at_onset();
                    ran_crashed = false;
                }
                if (k % 3 == 0) {
                    stepper = steppers[(static_cast<std::uint64_t>(k) / 3 + seed) % 4];
                    enclave->attach_stepper(stepper);
                }
                if (k % 4 == 1)
                    zero_step.suppress_after((static_cast<std::size_t>(k) * 7 + seed) %
                                             (program.size() + 3));
                if (k % 37 == 20 && !m.crashed()) {
                    // 2 mV past the crash edge; once the rail is within
                    // about 10 ns of the edge, the next entries cross it.
                    const Millivolts edge =
                        m.fault_model().crash_offset(f, m.thermal().delay_scale());
                    m.write_msr(0, sim::kMsrOcMailbox,
                                sim::encode_offset(edge - Millivolts{2.0},
                                                   sim::VoltagePlane::Core));
                    m.advance_to(m.rail_settle_time() - microseconds(2.5));
                    const Millivolts above = m.plane_voltage(sim::VoltagePlane::Core) -
                                             m.fault_model().vf().nominal(f) - edge;
                    m.advance(microseconds(above.value() / m.profile().regulator.slew_mv_per_us -
                                           0.03));
                }
                ran_crashed = m.crashed();
                results.push_back(fused ? enclave->run()
                                        : per_instruction_entry(m, 1, program, stepper));
                hashes.push_back(m.state_hash());
            }
            return std::pair{results, hashes};
        };
        const auto [fused, fused_hashes] = history(true);
        const auto [reference, reference_hashes] = history(false);
        ASSERT_EQ(fused.size(), static_cast<std::size_t>(kEntries));
        ASSERT_EQ(reference.size(), fused.size());
        for (std::size_t k = 0; k < fused.size(); ++k) {
            const sgx::EnclaveRunResult& a = fused[k];
            const sgx::EnclaveRunResult& b = reference[k];
            const bool same = a.completed == b.completed && a.trap_detected == b.trap_detected &&
                              a.suppressed == b.suppressed &&
                              a.machine_crashed == b.machine_crashed &&
                              a.aex_count == b.aex_count && a.regs == b.regs &&
                              fused_hashes[k] == reference_hashes[k];
            ASSERT_TRUE(same) << "seed " << seed << ": entry " << k << " diverged";
            crashes += a.machine_crashed && (k == 0 || !fused[k - 1].machine_crashed);
            crashed_entries += a.machine_crashed;
            suppressed += a.suppressed;
            faulted_entries += a.trap_detected;
            completed += a.completed;
        }
    }
    // Every seed crashes inside an entry at least three times, each crash
    // followed by an entry on the crashed machine; entries complete, are
    // suppressed and are faulted into their traps.
    EXPECT_GE(crashes, 12u * 3);
    EXPECT_GE(crashed_entries, 2 * crashes);
    EXPECT_GT(completed, 40u);
    EXPECT_GT(suppressed, 40u);
    EXPECT_GT(faulted_entries, 12u * kEntries / 2);
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
    // The V0LTpwn rows single-step enclave ops: settled-op runs under
    // Batched, the general path under Sliced.  Minefield puts trap
    // instructions into those runs.
    config.attacks.push_back(campaign::AttackKind::V0ltpwn);
    config.attacks.push_back(campaign::AttackKind::V0ltpwnSgxStep);
    config.defenses.push_back(campaign::DefenseKind::Minefield);

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
