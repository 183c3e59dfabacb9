// Characterize any of the three paper CPUs at full 1 mV resolution, save
// the safe-state map to CSV (the artifact a deployed kernel module would
// consume), and demonstrate all three deployment levels against a raw
// unsafe write.
//
//   $ ./characterize_and_protect [skylake|kabylake|cometlake] [out.csv]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "plugvolt/parallel_characterizer.hpp"
#include "plugvolt/plugvolt.hpp"
#include "sim/ocm.hpp"
#include "util/thread_pool.hpp"

using namespace pv;

int main(int argc, char** argv) {
    sim::CpuProfile profile = sim::cometlake_i7_10510u();
    if (argc > 1) {
        if (std::strcmp(argv[1], "skylake") == 0) profile = sim::skylake_i5_6500();
        else if (std::strcmp(argv[1], "kabylake") == 0) profile = sim::kabylake_r_i5_8250u();
        else if (std::strcmp(argv[1], "cometlake") == 0) profile = sim::cometlake_i7_10510u();
        else {
            std::fprintf(stderr, "usage: %s [skylake|kabylake|cometlake] [out.csv]\n",
                         argv[0]);
            return 2;
        }
    }
    const std::string out_path = argc > 2 ? argv[2] : "safe_state_map.csv";

    // The sharded sweep engine: frequency rows fan out across a worker
    // pool and each row bisects its onset/crash boundaries — same map as
    // the exhaustive scan of every cell, a fraction of the wall-clock.
    plugvolt::ParallelCharacterizerConfig sweep;  // paper defaults: 1 mV, 10^6 imul
    sweep.seed = 0xC0DE;
    std::printf("characterizing %s (%s) at 1 mV / 0.1 GHz resolution "
                "(%s mode, %u workers)...\n",
                profile.name.c_str(), profile.codename.c_str(),
                plugvolt::to_string(sweep.mode),
                sweep.workers ? sweep.workers : ThreadPool::default_worker_count());
    plugvolt::ParallelCharacterizer characterizer(profile, sweep);
    unsigned columns = 0;
    const plugvolt::SafeStateMap map =
        characterizer.characterize([&](const plugvolt::FreqCharacterization& row) {
            ++columns;
            if (!row.fault_free)
                std::printf("  %4.1f GHz: onset %.0f mV, crash %s\n", row.freq.gigahertz(),
                            row.onset.value(),
                            row.crash >= sweep.cell.sweep_floor ? "reached" : "beyond sweep");
        });
    std::printf("%u columns characterized, %llu cells probed, %llu crash-reboots\n",
                columns,
                static_cast<unsigned long long>(characterizer.stats().cells_evaluated),
                static_cast<unsigned long long>(characterizer.stats().crash_probes));
    std::printf("maximal safe state: %.0f mV\n\n",
                map.maximal_safe_offset(plugvolt::kDefaultGuardBand).value());

    std::ofstream(out_path) << map.to_csv();
    std::printf("map saved to %s (%zu rows)\n\n", out_path.c_str(), map.rows().size());

    // Demonstrate each deployment level against the same unsafe write.
    for (const auto level :
         {plugvolt::DeploymentLevel::KernelModule, plugvolt::DeploymentLevel::Microcode,
          plugvolt::DeploymentLevel::HardwareMsr}) {
        sim::Machine victim(profile, 0xD00D);
        os::Kernel victim_kernel(victim);
        plugvolt::Protector protector(victim_kernel, map);
        protector.deploy(level);

        victim.set_all_frequencies(profile.freq_max);
        victim.advance_to(victim.rail_settle_time());
        victim_kernel.msr().ioctl_wrmsr(
            0, 0, sim::kMsrOcMailbox,
            sim::encode_offset(Millivolts{-250.0}, sim::VoltagePlane::Core));
        victim.advance(milliseconds(1.0));
        const sim::BatchResult probe = victim.run_batch(1, sim::InstrClass::Imul, 1'000'000);

        std::printf("deployment %-13s: -250 mV write at %.1f GHz -> applied %.1f mV, "
                    "%llu faults, %s\n",
                    plugvolt::to_string(level), profile.freq_max.gigahertz(),
                    victim.applied_offset(sim::VoltagePlane::Core).value(),
                    static_cast<unsigned long long>(probe.faults),
                    victim.crashed() ? "CRASHED" : "alive");
    }
    return 0;
}
