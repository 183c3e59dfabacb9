// Differential fault analysis on AES-128 under undervolting, end to end
// (Plundervolt's second weaponization, Piret-Quisquater 2003 analysis):
// park the rail just above the crash boundary, farm faulty ciphertexts,
// filter by the round-8 four-byte difference shape, recover the last
// round key per diagonal, invert the key schedule — then show the same
// campaign starving under PlugVolt.
//
//   $ ./aes_dfa_attack
#include <cstdio>

#include "os/cpupower.hpp"
#include "plugvolt/plugvolt.hpp"
#include "sim/ocm.hpp"
#include "workload/crypto/aes_dfa.hpp"

using namespace pv;

namespace {

struct CampaignResult {
    int encryptions = 0;
    int faulty = 0;
    int usable = 0;
    std::optional<crypto::AesKey> key;
};

CampaignResult campaign(sim::Machine& machine, os::Kernel& kernel,
                        const crypto::AesKey& key, int budget) {
    os::Cpupower cpupower(kernel.cpufreq(), machine.core_count());
    cpupower.frequency_set(machine.profile().freq_max);
    machine.advance_to(machine.rail_settle_time());
    const Millivolts park =
        machine.fault_model().crash_offset(machine.profile().freq_max) + Millivolts{1.5};
    kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                             sim::encode_offset(park, sim::VoltagePlane::Core));
    machine.advance_to(machine.rail_settle_time() + microseconds(20.0));

    crypto::FaultableAes aes(machine, 1, key);
    crypto::AesDfa dfa;
    Rng rng(0xDFA);
    CampaignResult r;
    for (; r.encryptions < budget && !dfa.ready(3) && !machine.crashed(); ++r.encryptions) {
        crypto::AesBlock pt{};
        for (auto& b : pt) b = static_cast<std::uint8_t>(rng.uniform_below(256));
        const auto enc = aes.encrypt(pt);
        if (!enc.faulted) continue;
        ++r.faulty;
        // The attacker compares against a clean encryption of the same
        // plaintext (chosen-plaintext, as in the Plundervolt PoC) and
        // keeps pairs whose difference matches a round-8 fault shape.
        if (dfa.add_pair({crypto::aes128_encrypt(key, pt), enc.ciphertext})) ++r.usable;
    }
    if (dfa.ready(2)) r.key = dfa.recover_key();
    return r;
}

void print_key(const char* tag, const crypto::AesKey& key) {
    std::printf("%s", tag);
    for (const auto b : key) std::printf("%02x", b);
    std::printf("\n");
}

}  // namespace

int main() {
    const crypto::AesKey secret = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                                   0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
    print_key("victim AES-128 key: ", secret);
    const sim::CpuProfile profile = sim::cometlake_i7_10510u();

    std::printf("\n[1] unprotected machine:\n");
    {
        sim::Machine machine(profile, 31337);
        os::Kernel kernel(machine);
        const CampaignResult r = campaign(machine, kernel, secret, 300'000);
        std::printf("  %d encryptions, %d faulty ciphertexts, %d matched the round-8 "
                    "diagonal shape\n",
                    r.encryptions, r.faulty, r.usable);
        if (r.key) {
            print_key("  recovered key:      ", *r.key);
            std::printf("  => %s\n", *r.key == secret ? "KEY RECOVERED" : "wrong key?!");
        } else {
            std::printf("  => not enough usable faults\n");
        }
    }

    std::printf("\n[2] PlugVolt-protected machine, same campaign:\n");
    {
        sim::Machine machine(profile, 31337);
        os::Kernel kernel(machine);
        plugvolt::ParallelCharacterizerConfig sweep;
        sweep.cell.offset_step = Millivolts{2.0};
        sweep.workers = 1;
        sweep.mode = plugvolt::SweepMode::Exhaustive;
        sweep.seed = 31337;
        plugvolt::ParallelCharacterizer characterizer(profile, sweep);
        plugvolt::Protector protector(kernel, characterizer.characterize());
        protector.deploy(plugvolt::DeploymentLevel::KernelModule);

        const CampaignResult r = campaign(machine, kernel, secret, 300'000);
        std::printf("  %d encryptions, %d faulty ciphertexts, %d usable\n", r.encryptions,
                    r.faulty, r.usable);
        std::printf("  => %s\n", r.key ? "KEY RECOVERED (?!)" : "key is safe");
        return r.key ? 1 : 0;
    }
}
