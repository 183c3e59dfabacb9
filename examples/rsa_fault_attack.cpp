// The flagship DVFS weaponization, end to end: undervolt an RSA-CRT
// signer, catch one faulty signature, factor the modulus with a single
// gcd (Boneh-DeMillo-Lipton / "Bellcore" attack) — then show the same
// campaign failing against a PlugVolt-protected machine.
//
//   $ ./rsa_fault_attack
#include <cstdio>

#include "os/cpupower.hpp"
#include "plugvolt/plugvolt.hpp"
#include "sim/ocm.hpp"
#include "workload/crypto/rsa_crt.hpp"

using namespace pv;

namespace {

// Run the attack loop against a signer on `machine`; returns true if the
// key was factored.
bool attack_signer(sim::Machine& machine, os::Kernel& kernel, const crypto::RsaKey& key,
                   Millivolts offset) {
    os::Cpupower cpupower(kernel.cpufreq(), machine.core_count());
    cpupower.frequency_set(machine.profile().freq_max);
    machine.advance_to(machine.rail_settle_time());

    kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                             sim::encode_offset(offset, sim::VoltagePlane::Core));
    machine.advance_to(machine.rail_settle_time() + microseconds(20.0));

    crypto::FaultableRsaSigner signer(machine, /*core=*/1, key);
    const crypto::u64 message = 0x6D65737361676531ULL % key.n;

    for (int i = 0; i < 400 && !machine.crashed(); ++i) {
        const crypto::u64 s = signer.sign(message);
        if (crypto::rsa_verify(key, message, s)) continue;

        std::printf("  signature #%d is FAULTY: s = %llu\n", i,
                    static_cast<unsigned long long>(s));
        const auto factor = crypto::bellcore_factor(key.n, key.e, message, s);
        if (factor) {
            const crypto::u64 other = key.n / *factor;
            std::printf("  gcd(s^e - m, n) = %llu  ->  n = %llu * %llu  KEY RECOVERED\n",
                        static_cast<unsigned long long>(*factor),
                        static_cast<unsigned long long>(*factor),
                        static_cast<unsigned long long>(other));
            return true;
        }
    }
    std::printf("  no usable faulty signature after 400 attempts%s\n",
                machine.crashed() ? " (machine crashed)" : "");
    return false;
}

}  // namespace

int main() {
    Rng rng(0xBE11C0FE);
    const crypto::RsaKey key = crypto::rsa_generate(rng);
    std::printf("victim RSA key: n = %llu (p = %llu, q = %llu), e = %llu\n\n",
                static_cast<unsigned long long>(key.n),
                static_cast<unsigned long long>(key.p),
                static_cast<unsigned long long>(key.q),
                static_cast<unsigned long long>(key.e));

    // Pick the attack offset from the physics: a bit past the fault onset
    // at max frequency (a real attacker finds this by scanning; see the
    // Plundervolt class for the full campaign).
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();

    std::printf("[1] unprotected machine, undervolting during CRT signing:\n");
    {
        sim::Machine machine(profile, 7);
        os::Kernel kernel(machine);
        const Millivolts offset =
            machine.fault_model().onset_offset(profile.freq_max, sim::InstrClass::Imul) -
            Millivolts{8.0};
        std::printf("  attacking at %.0f mV offset, %.1f GHz\n", offset.value(),
                    profile.freq_max.gigahertz());
        const bool broken = attack_signer(machine, kernel, key, offset);
        std::printf("  => %s\n\n", broken ? "PRIVATE KEY EXTRACTED" : "attack failed");
    }

    std::printf("[2] same campaign against a PlugVolt-protected machine:\n");
    {
        sim::Machine machine(profile, 7);
        os::Kernel kernel(machine);
        plugvolt::ParallelCharacterizerConfig sweep;
        sweep.cell.offset_step = Millivolts{2.0};
        sweep.workers = 1;
        sweep.mode = plugvolt::SweepMode::Exhaustive;
        sweep.seed = 7;
        plugvolt::ParallelCharacterizer characterizer(profile, sweep);
        plugvolt::Protector protector(kernel, characterizer.characterize());
        protector.deploy(plugvolt::DeploymentLevel::KernelModule);

        const Millivolts offset =
            machine.fault_model().onset_offset(profile.freq_max, sim::InstrClass::Imul) -
            Millivolts{8.0};
        const bool broken = attack_signer(machine, kernel, key, offset);
        std::printf("  => %s (module detections: %llu)\n",
                    broken ? "PRIVATE KEY EXTRACTED" : "key is safe",
                    static_cast<unsigned long long>(
                        protector.polling_module()->metrics().detections));
        return broken ? 1 : 0;
    }
}
