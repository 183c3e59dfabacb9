// Ablation: the guard band's two-sided tradeoff.
//
// DESIGN.md finding #4: "safe" in the characterization only means
// "fewer than ~3 faults per 10^6 ops observed", so a patient attacker
// parked just above the measured onset can farm the residual
// probability.  The guard band pushes the enforcement boundary
// shallower; the price is benign undervolt depth.  This bench sweeps the
// guard and measures both sides:
//   - residual faults for an attacker who parks at the deepest offset
//     the module tolerates and hammers imul for a long window;
//   - that same deepest tolerated offset is the benign undervolt depth
//     still available at max frequency.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "os/cpupower.hpp"
#include "plugvolt/plugvolt.hpp"
#include "sim/ocm.hpp"

using namespace pv;

int main() {
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();
    const plugvolt::SafeStateMap map = bench::characterize(profile, Millivolts{1.0});
    std::printf("=== Ablation: guard band vs residual risk and benign depth ===\n");
    std::printf("attacker: parks at the module's tolerance limit at %.1f GHz and runs\n"
                "2x10^8 imul; onset at that frequency: %.0f mV\n\n",
                profile.freq_max.gigahertz(),
                map.safe_limit(profile.freq_max, Millivolts{0.0}).value());

    Table table({"guard (mV)", "deepest tolerated = benign depth (mV)",
                 "attacker faults in 2e8 ops", "residual p/op"});
    for (const double guard : {0.0, 2.0, 5.0, 10.0, 15.0, 25.0}) {
        plugvolt::PollingConfig polling;
        polling.guard_band = Millivolts{guard};

        sim::Machine machine(profile, 4242);
        os::Kernel kernel(machine);
        auto module = std::make_shared<plugvolt::PollingModule>(map, polling);
        kernel.load_module(module);

        os::Cpupower cpupower(machine);
        cpupower.frequency_set(profile.freq_max);
        machine.advance_to(machine.rail_settle_time());

        // The deepest command the module will tolerate: 1 mV shallower
        // than its detection boundary (onset + guard, minus hysteresis).
        const Millivolts park = map.safe_limit(profile.freq_max, Millivolts{guard});
        kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                                 sim::encode_offset(park, sim::VoltagePlane::Core));
        machine.advance_to(machine.rail_settle_time() + microseconds(50.0));

        std::uint64_t faults = 0;
        constexpr std::uint64_t kOps = 200'000'000;
        if (!machine.crashed()) {
            // Confirm the module tolerated the park (did not restore it).
            const auto cmd = sim::decode_offset(machine.read_msr(0, sim::kMsrOcMailbox));
            if (cmd && cmd->offset.value() < park.value() + 2.0) {
                const sim::BatchResult b =
                    machine.run_batch(1, sim::InstrClass::Imul, kOps);
                faults = b.faults;
            }
        }
        const double p = static_cast<double>(faults) / static_cast<double>(kOps);
        char pbuf[32];
        std::snprintf(pbuf, sizeof pbuf, "%.1e", p);
        table.add_row({Table::num(guard, 0), Table::num(park.value(), 0),
                       std::to_string(faults), faults ? pbuf : "<5e-9"});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Reading: at guard 0 the attacker sits ON the measured onset and farms\n"
                "faults at ~2e-5/op; each 5 mV of guard cuts the residual by orders of\n"
                "magnitude (the band's z-slope), at a linear cost in benign undervolt\n"
                "depth.  A guard with no fault in 2x10^8 ops reads \"<5e-9\": that is\n"
                "this sample's floor, not a measured residual.  The %.0f mV default is\n"
                "such a guard.\n",
                plugvolt::kDefaultGuardBand.value());
    return 0;
}
