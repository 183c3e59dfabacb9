// google-benchmark micro-costs of the hot paths: everything the polling
// kthread touches per wakeup, the physics kernels the simulator
// evaluates per slice, and the adaptive planner at the paper's 1 mV
// resolution (where a quadratic acquisition scan would show first).
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include <memory>

#include "infer/adaptive_planner.hpp"
#include "plugvolt/acquisition.hpp"
#include "plugvolt/boundary_posterior.hpp"
#include "plugvolt/limit_table.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "plugvolt/polling_module.hpp"
#include "plugvolt/safe_state.hpp"
#include "sgx/enclave.hpp"
#include "sgx/program.hpp"
#include "sgx/runtime.hpp"
#include "sgx/sgx_step.hpp"
#include "sim/thermal.hpp"
#include "sim/fault_model.hpp"
#include "sim/machine.hpp"
#include "sim/ocm.hpp"
#include "sim/voltage_regulator.hpp"

namespace {

using namespace pv;

const plugvolt::SafeStateMap& comet_map() {
    static const plugvolt::SafeStateMap map =
        bench::characterize(sim::cometlake_i7_10510u(), Millivolts{5.0});
    return map;
}

void BM_OcmEncode(benchmark::State& state) {
    double mv = -1.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sim::encode_offset(Millivolts{mv}, sim::VoltagePlane::Core));
        mv = mv <= -300.0 ? -1.0 : mv - 1.0;
    }
}
BENCHMARK(BM_OcmEncode);

void BM_OcmDecode(benchmark::State& state) {
    const std::uint64_t raw = sim::encode_offset(Millivolts{-123.0}, sim::VoltagePlane::Core);
    for (auto _ : state) benchmark::DoNotOptimize(sim::decode_offset(raw));
}
BENCHMARK(BM_OcmDecode);

void BM_SafeStateClassify(benchmark::State& state) {
    const auto& map = comet_map();
    double ghz = 0.4;
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.classify(from_ghz(ghz), Millivolts{-150.0}));
        ghz = ghz >= 4.9 ? 0.4 : ghz + 0.1;
    }
}
BENCHMARK(BM_SafeStateClassify);

void BM_LimitTableLookup(benchmark::State& state) {
    // What a poll pays to judge its reads: one table entry per ratio
    // byte, over the same frequencies and offset as BM_SafeStateClassify.
    const plugvolt::LimitTable table(comet_map(), plugvolt::kDefaultGuardBand,
                                     plugvolt::RestorePolicy::ClampToSafeLimit);
    const Millivolts commanded =
        sim::decode_offset(sim::encode_offset(Millivolts{-150.0}, sim::VoltagePlane::Core))
            ->offset;
    std::uint8_t ratio = 4;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.detects(ratio, commanded));
        ratio = ratio >= 49 ? 4 : ratio + 1;
    }
}
BENCHMARK(BM_LimitTableLookup);

void BM_MaximalSafeOffset(benchmark::State& state) {
    const auto& map = comet_map();
    for (auto _ : state)
        benchmark::DoNotOptimize(map.maximal_safe_offset(plugvolt::kDefaultGuardBand));
}
BENCHMARK(BM_MaximalSafeOffset);

void BM_MaxSafeFrequency(benchmark::State& state) {
    // The polling module's instant lever on detection: the highest
    // frequency the measured offset is safe at, on the Comet Lake map,
    // for offsets from nominal to past every onset.
    const auto& map = comet_map();
    double mv = 0.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            map.max_safe_frequency(Millivolts{mv}, plugvolt::kDefaultGuardBand));
        mv = mv <= -290.0 ? 0.0 : mv - 10.0;
    }
}
BENCHMARK(BM_MaxSafeFrequency);

void BM_RegulatorRampEval(benchmark::State& state) {
    sim::VoltageRegulator reg(
        {.write_latency = microseconds(150.0), .slew_mv_per_us = 1.0});
    reg.write(sim::VoltagePlane::Core, Millivolts{-200.0}, Picoseconds{0});
    std::int64_t t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(reg.offset_at(sim::VoltagePlane::Core, Picoseconds{t}));
        t = (t + 1'000'000) % 400'000'000;
    }
}
BENCHMARK(BM_RegulatorRampEval);

void BM_FaultProbability(benchmark::State& state) {
    const auto profile = sim::cometlake_i7_10510u();
    const sim::FaultModel model(sim::TimingModel{profile.timing}, profile.vf_curve());
    double mv = 700.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.fault_probability(from_ghz(2.0), Millivolts{mv}, sim::InstrClass::Imul));
        mv = mv >= 900.0 ? 700.0 : mv + 1.0;
    }
}
BENCHMARK(BM_FaultProbability);

void BM_MachineRunBatch1M(benchmark::State& state) {
    sim::Machine machine(sim::cometlake_i7_10510u(), 1);
    machine.set_all_frequencies(from_ghz(2.0));
    machine.advance_to(machine.rail_settle_time());
    for (auto _ : state) {
        benchmark::DoNotOptimize(machine.run_batch(1, sim::InstrClass::Imul, 1'000'000));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1'000'000);
}
BENCHMARK(BM_MachineRunBatch1M);

void enclave_entry_mul_chain(benchmark::State& state, bool stepped) {
    sim::Machine machine(sim::cometlake_i7_10510u(), 1);
    os::Kernel kernel(machine);
    sgx::SgxRuntime runtime(kernel);
    machine.set_all_frequencies(from_ghz(2.0));
    machine.write_msr(0, sim::kMsrOcMailbox,
                      sim::encode_offset(Millivolts{-100.0}, sim::VoltagePlane::Core));
    machine.advance_to(machine.rail_settle_time());
    const sgx::Program program = sgx::make_mul_chain(0x5EED, 0xC0FFEE, 32);
    auto enclave = runtime.create_enclave("bench-victim", 1, program);
    const std::size_t last_mul = sgx::last_mul_index(program);
    sgx::SgxStep stepper(sgx::StepperCapabilities{.single_step = true, .zero_step = true});
    stepper.suppress_after(last_mul);
    if (stepped) enclave->attach_stepper(&stepper);
    for (auto _ : state) benchmark::DoNotOptimize(enclave->run());
    if (machine.crashed()) state.SkipWithError("machine crashed at the benchmark offset");
    state.counters["die_c"] = machine.thermal().temperature_c();
    state.counters["p_imul"] = machine.fault_probability(1, sim::InstrClass::Imul);
    const std::size_t ops = stepped ? last_mul + 1 : program.size();
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(ops));
}

void BM_EnclaveEntryMulChain(benchmark::State& state) {
    // One V0LTpwn-style enclave entry: the 66-instruction multiply chain
    // runs op by op at a settled -100 mV offset while the die warms, so
    // the thermal delay scale moves on every op.  The fault physics must
    // stay a memo hit plus arithmetic here; a pow per op shows up as a
    // regression of this row.
    enclave_entry_mul_chain(state, /*stepped=*/false);
}
BENCHMARK(BM_EnclaveEntryMulChain);

void BM_EnclaveEntryMulChainStepped(benchmark::State& state) {
    // The same entry as the V0LTpwn + SGX-Step victim runs it: an AEX
    // after every instruction, progress suppressed after the last
    // multiply (the stepper's zero-step plan).  Up to its first fault the
    // entry is one settled-op run.
    enclave_entry_mul_chain(state, /*stepped=*/true);
}
BENCHMARK(BM_EnclaveEntryMulChainStepped);

void BM_ExecuteOpSettled(benchmark::State& state, bool at_onset) {
    // One single-stepped imul on settled rails, the V0LTpwn victim's
    // step, while the die warms.  Fault-free at nominal voltage, every
    // draw clears the class certificate's skip threshold; parked at the
    // 100-op imul onset (p ~ 0.03), a few draws in a hundred fall below
    // it and take the exact probability.
    sim::Machine machine(sim::cometlake_i7_10510u(), 1);
    const Megahertz f = from_ghz(2.0);
    machine.set_all_frequencies(f);
    machine.advance_to(machine.rail_settle_time());
    if (at_onset)
        machine.regulator().force(
            sim::VoltagePlane::Core,
            machine.fault_model().onset_offset(f, sim::InstrClass::Imul, 100));
    std::uint64_t faults = 0;
    for (auto _ : state) {
        faults += machine.execute_op(1, sim::InstrClass::Imul);
        benchmark::DoNotOptimize(faults);
    }
    if (machine.crashed()) state.SkipWithError("machine crashed at the benchmark offset");
    state.counters["faults"] = static_cast<double>(faults);
    state.counters["die_c"] = machine.thermal().temperature_c();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ExecuteOpSettled, fault_free, false);
BENCHMARK_CAPTURE(BM_ExecuteOpSettled, at_onset, true);

void BM_ExecuteOpsSettled(benchmark::State& state) {
    // The machine side of one fault-free V0LTpwn enclave entry: its 66
    // instruction classes (two loads, then 32 imul/xor pairs) as one
    // settled-op run, at nominal voltage while the die warms.  Items are
    // ops, so the row compares with BM_ExecuteOpSettled/fault_free.
    sim::Machine machine(sim::cometlake_i7_10510u(), 1);
    machine.set_all_frequencies(from_ghz(2.0));
    machine.advance_to(machine.rail_settle_time());
    std::vector<sim::InstrClass> run;
    for (const sgx::VictimInstr& instr : sgx::make_mul_chain(0x5EED, 0xC0FFEE, 32))
        run.push_back(instr.cls);
    std::uint64_t ops = 0;
    for (auto _ : state) {
        const sim::OpRunResult r = machine.execute_ops(1, run);
        ops += r.ops_done;
        benchmark::DoNotOptimize(r);
    }
    if (machine.crashed()) state.SkipWithError("machine crashed at the benchmark offset");
    state.counters["die_c"] = machine.thermal().temperature_c();
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_ExecuteOpsSettled);

void BM_MsrReadPerfStatus(benchmark::State& state) {
    sim::Machine machine(sim::cometlake_i7_10510u(), 1);
    for (auto _ : state) benchmark::DoNotOptimize(machine.read_msr(0, sim::kMsrPerfStatus));
}
BENCHMARK(BM_MsrReadPerfStatus);

void BM_ThermalDelayScale(benchmark::State& state) {
    sim::ThermalModel model(sim::cometlake_i7_10510u().thermal);
    model.force_temperature(67.0);
    for (auto _ : state) benchmark::DoNotOptimize(model.delay_scale());
}
BENCHMARK(BM_ThermalDelayScale);

void BM_PlaneVoltage(benchmark::State& state) {
    sim::Machine machine(sim::cometlake_i7_10510u(), 1);
    machine.write_msr(0, sim::kMsrOcMailbox,
                      sim::encode_offset(Millivolts{-60.0}, sim::VoltagePlane::Cache));
    for (auto _ : state)
        benchmark::DoNotOptimize(machine.plane_voltage(sim::VoltagePlane::Cache));
}
BENCHMARK(BM_PlaneVoltage);

void BM_PollBody(benchmark::State& state) {
    // One full poll iteration (what the kthread pays every interval),
    // including the rail watchdog path.
    sim::Machine machine(sim::cometlake_i7_10510u(), 1);
    os::Kernel kernel(machine);
    plugvolt::PollingConfig config;
    config.interval = milliseconds(1000.0);  // fire manually below
    config.watch_measured_rail = true;
    config.nominal_rail = machine.profile().vf_curve();
    auto module = std::make_shared<plugvolt::PollingModule>(comet_map(), config);
    kernel.load_module(module);
    std::int64_t t = machine.now().value();
    for (auto _ : state) {
        t += 1'000'000'000;  // 1 ms: exactly one wakeup per core
        machine.advance_to(Picoseconds{t});
    }
    benchmark::DoNotOptimize(module->metrics().polls);
}
BENCHMARK(BM_PollBody);

void BM_CharacterizeCell(benchmark::State& state) {
    sim::Machine machine(sim::cometlake_i7_10510u(), 1);
    os::Kernel kernel(machine);
    plugvolt::Characterizer chr(kernel, {});
    for (auto _ : state) {
        benchmark::DoNotOptimize(chr.test_cell(from_ghz(2.0), Millivolts{-50.0}));
    }
}
BENCHMARK(BM_CharacterizeCell);

void BM_SelectCrashProbe(benchmark::State& state) {
    // A 1 mV column's support (300 steps + "no crash"), with the prior
    // recentred mid-support the way an interpolation prediction does.
    // The score's peak is solved once, outside the loop, as a row search
    // does.
    constexpr std::uint64_t kSupport = 301;
    plugvolt::BoundaryPosterior posterior(kSupport);
    const plugvolt::AcquisitionConfig config;
    posterior.recenter(kSupport / 2, config.prior_decay, config.prior_floor);
    const plugvolt::CrashScore score(config.reboot_cost);
    Rng rng(0x5E1EC7);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            plugvolt::select_crash_probe(posterior, score, kSupport - 1, rng));
}
BENCHMARK(BM_SelectCrashProbe);

void BM_SelectCrashProbeFlatTail(benchmark::State& state) {
    // A 420-step column with a lot-neighbour prior near its deep end:
    // 379 floor-weight steps (1e-9) lie between hard_lo and the peak.
    constexpr std::uint64_t kSupport = 421;
    plugvolt::BoundaryPosterior posterior(kSupport);
    const plugvolt::AcquisitionConfig config;
    posterior.recenter(380, config.prior_decay, config.prior_floor);
    const plugvolt::CrashScore score(config.reboot_cost);
    Rng rng(0x5E1EC8);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            plugvolt::select_crash_probe(posterior, score, kSupport - 1, rng));
}
BENCHMARK(BM_SelectCrashProbeFlatTail);

void BM_AdaptivePlan1mv(benchmark::State& state) {
    // One cold Comet Lake adaptive map at 1 mV: planner plus cell probes.
    plugvolt::ParallelCharacterizerConfig config;
    config.cell.offset_step = Millivolts{1.0};
    config.mode = plugvolt::SweepMode::Adaptive;
    config.workers = 1;
    config.planner = infer::adaptive_planner();
    plugvolt::ParallelCharacterizer sweep(sim::cometlake_i7_10510u(), config);
    for (auto _ : state) benchmark::DoNotOptimize(sweep.characterize());
}
BENCHMARK(BM_AdaptivePlan1mv)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
