// Ablation: fault onset vs die temperature — why characterization must
// happen hot (or the guard band must absorb the thermal shift).
//
// The paper characterizes each system once and deploys the resulting
// map.  But timing margins shrink as the die heats: the same offset that
// is safe at 25 C faults at 85 C.  This bench sweeps die temperature and
// reports the physics onsets, the temperature the machine actually
// reaches under load, how much of the default guard band the thermal
// shift consumes, and the temperature at which it is used up.
#include <cstdio>
#include <optional>

#include "bench_common.hpp"
#include "sim/fault_model.hpp"

using namespace pv;

int main() {
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();
    const sim::FaultModel model(sim::TimingModel{profile.timing}, profile.vf_curve());
    std::printf("=== Ablation: fault onset vs die temperature (%s) ===\n",
                profile.codename.c_str());
    std::printf("delay sensitivity: %.2f%%/K above 25 C; Tjmax %.0f C\n\n",
                profile.thermal.delay_per_c * 100.0, profile.thermal.tjmax_c);

    const Megahertz f = profile.freq_max;
    const Millivolts cold_onset = model.onset_offset(f, sim::InstrClass::Imul);

    const double guard = plugvolt::kDefaultGuardBand.value();
    Table table({"die temp (C)", "onset @ fmax (mV)", "crash @ fmax (mV)",
                 "shift vs 25C (mV)", "guard band consumed"});
    // Where the shift reaches the guard, linear between the two rows
    // that bracket it.
    std::optional<double> crossing_c;
    double prev_temp = 0.0;
    double prev_shift = 0.0;
    for (const double temp : {25.0, 45.0, 65.0, 85.0, 95.0}) {
        const double scale = 1.0 + profile.thermal.delay_per_c * std::max(0.0, temp - 25.0);
        const Millivolts onset = model.onset_offset(f, sim::InstrClass::Imul, 1'000'000,
                                                    scale);
        const Millivolts crash = model.crash_offset(f, scale);
        const double shift = (onset - cold_onset).value();
        table.add_row({Table::num(temp, 0), Table::num(onset.value(), 1),
                       Table::num(crash.value(), 1), Table::num(shift, 1),
                       Table::pct(shift / guard, 0) + " of " + Table::num(guard, 0) + " mV"});
        if (!crossing_c && shift >= guard)
            crossing_c =
                prev_temp + (guard - prev_shift) / (shift - prev_shift) * (temp - prev_temp);
        prev_temp = temp;
        prev_shift = shift;
    }
    std::printf("%s\n", table.render().c_str());

    // What temperature does the machine actually reach under load?
    sim::Machine machine(profile, 4321);
    machine.set_all_frequencies(f);
    machine.advance_to(machine.rail_settle_time());
    for (int slice = 0; slice < 30; ++slice)
        for (unsigned c = 0; c < machine.core_count(); ++c)
            (void)machine.run_batch(c, sim::InstrClass::Alu, 5'000'000);
    std::printf("all-core turbo load drives the die to %.1f C "
                "(THERM_STATUS readout: %llu C below Tjmax)\n",
                machine.thermal().temperature_c(),
                static_cast<unsigned long long>(
                    (machine.read_msr(0, sim::kMsrThermStatus) >> 16) & 0x7F));
    const double load_scale = machine.thermal().delay_scale();
    const Millivolts hot_onset =
        model.onset_offset(f, sim::InstrClass::Imul, 1'000'000, load_scale);
    std::printf("onset at that temperature: %.1f mV (%.1f mV shallower than the "
                "25 C map)\n\n",
                hot_onset.value(), (hot_onset - cold_onset).value());
    std::printf("Reading: the sweep engine boots a fresh, cold die for every cell, so\n"
                "its maps carry the 25 C onsets and under-estimate a hot die's onset by\n"
                "the shift above.  Characterize hot, or budget the shift into the\n");
    if (crossing_c)
        std::printf("guard band: the %.0f mV default absorbs it up to about %.0f C (linear\n"
                    "between the two rows that bracket it).\n",
                    guard, *crossing_c);
    else
        std::printf("guard band: the %.0f mV default absorbs it at every temperature above.\n",
                    guard);
    return 0;
}
