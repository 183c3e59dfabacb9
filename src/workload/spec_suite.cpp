#include "workload/spec_suite.hpp"

#include <array>
#include <cmath>
#include <memory>

#include "os/cpupower.hpp"
#include "os/kernel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pv::workload {

namespace {

// Each row: name, instructions per unit, IPC (sized to the benchmark's
// algorithmic family, from memory-bound mcf at 0.8 to compute-dense x264
// at 2.6), then the paper's Table 2 base and peak rates.
constexpr std::array<SpecBenchmark, 23> kTable2 = {{
    {"503.bwaves_r", 1'400'000, 2.1, 628.59, 604.21},
    {"507.cactuBSSN_r", 1'600'000, 1.9, 222.95, 202.87},
    {"508.namd_r", 1'900'000, 2.3, 175.96, 179.55},
    {"510.parest_r", 1'200'000, 1.5, 387.96, 324.46},
    {"511.povray_r", 1'500'000, 2.0, 328.67, 267.29},
    {"519.lbm_r", 1'700'000, 1.4, 224.08, 176.56},
    {"521.wrf_r", 1'300'000, 1.8, 404.21, 428.21},
    {"526.blender_r", 1'450'000, 2.2, 256.54, 239.52},
    {"527.cam4_r", 1'350'000, 1.6, 315.77, 324.12},
    {"538.imagick_r", 1'250'000, 2.0, 401.88, 318.06},
    {"544.nab_r", 1'550'000, 1.9, 315.25, 282.02},
    {"549.fotonik3d_r", 1'500'000, 1.7, 418.76, 415.46},
    {"554.roms_r", 1'400'000, 1.7, 322.51, 279.39},
    {"500.perlbench_r", 1'100'000, 1.6, 295.87511, 253.71},
    {"502.gcc_r", 1'050'000, 1.3, 221.4159, 218.91},
    {"505.mcf_r", 1'000'000, 0.8, 339.97, 297.68},
    {"520.omnetpp_r", 1'150'000, 1.0, 509.805, 479.08},
    {"523.xalancbmk_r", 1'100'000, 1.1, 287.7046, 283.57},
    {"525.x264_r", 1'600'000, 2.6, 318.11903, 290.76},
    {"531.deepsjeng_r", 1'200'000, 1.7, 306.148284, 284.09},
    {"541.leela_r", 1'250'000, 1.4, 417.2528, 383.03},
    {"548.exchange2_r", 1'300'000, 2.0, 345.38, 248.6},
    {"557.xz_r", 1'150'000, 1.2, 387.71, 373.41},
}};

}  // namespace

std::span<const SpecBenchmark> table2_benchmarks() { return kTable2; }

const SpecBenchmark& table2_benchmark(std::string_view name) {
    for (const SpecBenchmark& row : kTable2)
        if (row.name == name) return row;
    throw ConfigError("no Table 2 benchmark named '" + std::string(name) + "'");
}

SpecSuite::SpecSuite(sim::CpuProfile profile, SpecSuiteConfig config)
    : profile_(std::move(profile)), config_(config) {
    if (config_.units == 0) throw ConfigError("spec suite needs nonzero units");
    // A window <= 0 never advances the copies; a zero IPC bonus never
    // retires an instruction.  Either would spin forever.
    if (config_.window <= Picoseconds{0})
        throw ConfigError("spec suite needs a positive accounting window");
    if (!std::isfinite(config_.peak_ipc_bonus) || config_.peak_ipc_bonus <= 0.0)
        throw ConfigError("spec suite needs a finite, positive peak IPC bonus");
    if (!std::isfinite(config_.noise_fraction) || config_.noise_fraction < 0.0)
        throw ConfigError("spec suite needs a finite, non-negative noise fraction");
    if (config_.base_freq.value() <= 0.0)
        config_.base_freq = Megahertz{profile_.freq_max.value() - 300.0};
    if (config_.peak_freq.value() <= 0.0) config_.peak_freq = profile_.freq_max;
}

double SpecSuite::measure_rate(const SpecBenchmark& benchmark, Megahertz freq,
                               bool with_polling, const plugvolt::SafeStateMap& map,
                               const plugvolt::PollingConfig& polling, double ipc_scale,
                               double ref_seconds, std::uint64_t noise_salt) {
    if (!std::isfinite(ipc_scale) || ipc_scale <= 0.0)
        throw ConfigError("spec suite needs a finite, positive IPC scale");
    sim::Machine machine(profile_, config_.seed ^ noise_salt);
    os::Kernel kernel(machine);
    if (with_polling)
        kernel.load_module(std::make_shared<plugvolt::PollingModule>(map, polling));

    os::Cpupower cpupower(kernel.cpufreq(), machine.core_count());
    cpupower.frequency_set(freq);
    const Picoseconds settle = machine.rail_settle_time();
    if (settle > machine.now()) machine.advance_to(settle);

    const double total_instructions = static_cast<double>(config_.units) *
                                      static_cast<double>(benchmark.instructions_per_unit);
    const unsigned copies = machine.core_count();

    std::vector<double> remaining(copies, total_instructions);
    std::vector<Picoseconds> finish(copies, Picoseconds{0});
    const Picoseconds start = machine.now();

    bool any_left = true;
    while (any_left) {
        machine.advance(config_.window);  // kthreads fire here and add steals
        any_left = false;
        for (unsigned c = 0; c < copies; ++c) {
            if (remaining[c] <= 0.0) continue;
            sim::Core& core = machine.core(c);
            const Picoseconds stolen = core.drain_steal(config_.window);
            const double avail_s = (config_.window - stolen).seconds();
            const double rate_ips = core.frequency().value() * 1e6 * benchmark.ipc * ipc_scale;
            remaining[c] -= avail_s * rate_ips;
            if (remaining[c] <= 0.0) {
                // Interpolate the finish instant inside the window so the
                // measurement is not quantized to the window size.
                const double overshoot_s = -remaining[c] / rate_ips;
                finish[c] = machine.now() -
                            Picoseconds{static_cast<std::int64_t>(overshoot_s * 1e12)};
            } else {
                any_left = true;
            }
        }
    }

    Picoseconds last_finish = start;
    for (const Picoseconds f : finish) last_finish = std::max(last_finish, f);
    double elapsed_s = (last_finish - start).seconds();

    // Deterministic run-to-run jitter (real SPEC results scatter too).
    Rng noise(config_.seed * 0x9E3779B97F4A7C15ULL + noise_salt);
    elapsed_s *= 1.0 + config_.noise_fraction * noise.gaussian();

    return static_cast<double>(copies) * ref_seconds / elapsed_s;
}

std::vector<SpecScore> SpecSuite::run(const plugvolt::SafeStateMap& map,
                                      const plugvolt::PollingConfig& polling) {
    const std::span<const SpecBenchmark> table = table2_benchmarks();
    std::vector<SpecScore> scores;
    scores.reserve(table.size());
    for (std::size_t i = 0; i < table.size(); ++i) {
        const SpecBenchmark& b = table[i];
        const double total_instr = static_cast<double>(config_.units) *
                                   static_cast<double>(b.instructions_per_unit);
        const unsigned copies = profile_.core_count;

        // Reference times chosen so the without-polling runs land on the
        // paper's testbed anchors (see header comment).
        const double ideal_base_s = total_instr / (config_.base_freq.value() * 1e6 * b.ipc);
        const double ideal_peak_s =
            total_instr / (config_.peak_freq.value() * 1e6 * b.ipc * config_.peak_ipc_bonus);
        const double ref_base_s = b.base_rate * ideal_base_s / copies;
        const double ref_peak_s = b.peak_rate * ideal_peak_s / copies;

        SpecScore score;
        score.name = b.name;
        score.base_rate_without = measure_rate(b, config_.base_freq, false, map, polling,
                                               1.0, ref_base_s, 4 * i + 0);
        score.base_rate_with = measure_rate(b, config_.base_freq, true, map, polling, 1.0,
                                            ref_base_s, 4 * i + 1);
        score.peak_rate_without = measure_rate(b, config_.peak_freq, false, map, polling,
                                               config_.peak_ipc_bonus, ref_peak_s, 4 * i + 2);
        score.peak_rate_with = measure_rate(b, config_.peak_freq, true, map, polling,
                                            config_.peak_ipc_bonus, ref_peak_s, 4 * i + 3);
        scores.push_back(score);
    }
    return scores;
}

}  // namespace pv::workload
