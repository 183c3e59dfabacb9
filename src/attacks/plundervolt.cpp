#include "attacks/plundervolt.hpp"

#include "os/cpupower.hpp"
#include "sim/ocm.hpp"
#include "util/log.hpp"

namespace pv::attack {

Plundervolt::Plundervolt(PlundervoltConfig config) : config_(config) {}

std::uint64_t Plundervolt::probe(os::Kernel& kernel, Millivolts offset,
                                 AttackResult& result) {
    sim::Machine& m = kernel.machine();
    os::MsrDriver& msr = kernel.msr();

    ++result.writes_attempted;
    const bool effective = msr.ioctl_wrmsr(
        config_.attacker_core, config_.attacker_core, sim::kMsrOcMailbox,
        sim::encode_offset(offset, config_.plane));
    if (effective) ++result.writes_effective;

    // The PoC sleeps after the write to let the regulator settle; mirror
    // that with a fixed wait past the worst-case ramp.
    const Picoseconds settle = m.rail_settle_time() + microseconds(20.0);
    if (settle > m.now()) m.advance_to(settle);
    if (m.crashed()) return 0;

    // Loads traverse the cache plane; everything else the core plane.
    const sim::InstrClass probe_class = config_.plane == sim::VoltagePlane::Cache
                                            ? sim::InstrClass::Load
                                            : sim::InstrClass::Imul;
    const sim::BatchResult batch =
        m.run_batch(config_.victim_core, probe_class, config_.probe_ops);

    // Restore nominal voltage between probes (also part of the PoC loop).
    if (!m.crashed()) {
        ++result.writes_attempted;
        if (msr.ioctl_wrmsr(config_.attacker_core, config_.attacker_core,
                            sim::kMsrOcMailbox,
                            sim::encode_offset(Millivolts{0.0}, config_.plane)))
            ++result.writes_effective;
        const Picoseconds restore = m.rail_settle_time();
        if (restore > m.now()) m.advance_to(restore);
    }
    return batch.faults;
}

AttackResult Plundervolt::run(os::Kernel& kernel) {
    sim::Machine& m = kernel.machine();
    os::Cpupower cpupower(m);
    Rng rng(config_.rng_seed);

    AttackResult result;
    result.attack_name = std::string(name());
    result.started = m.now();
    found_offset_ = Millivolts{0.0};

    const Megahertz pin = config_.pin_freq.value() > 0.0 ? config_.pin_freq
                                                         : m.profile().freq_max;
    cpupower.frequency_set(pin);

    // Phase 1: walk the offset down until the imul probe faults.
    for (Millivolts offset = config_.scan_start; offset >= config_.scan_floor;
         offset -= config_.scan_step) {
        const std::uint64_t faults = probe(kernel, offset, result);
        if (m.crashed()) {
            ++result.crashes;
            m.reboot();
            cpupower.frequency_set(pin);
            if (result.crashes >= config_.max_crashes) {
                result.notes = "gave up: crash budget exhausted during scan";
                result.finished = m.now();
                return result;
            }
            continue;  // skip this offset, try the next one
        }
        if (faults > 0) {
            result.faults_observed += faults;
            found_offset_ = offset;
            break;
        }
    }

    if (found_offset_ == Millivolts{0.0}) {
        result.notes = "scan found no faultable offset (defense effective or range safe)";
        result.finished = m.now();
        return result;
    }

    if (config_.plane == sim::VoltagePlane::Cache) {
        // Cache-plane weaponization: corrupted loads are directly usable
        // (key-material reads, page-table walks); demonstrating the
        // faults suffices here.
        result.weaponized = true;
        result.weaponization = "cache-plane undervolt corrupts victim loads at " +
                               std::to_string(found_offset_.value()) + " mV";
        result.finished = m.now();
        return result;
    }

    // Phase 2: weaponize against an RSA-CRT signer at the found offset.
    const crypto::RsaKey key = crypto::rsa_generate(rng);
    crypto::FaultableRsaSigner signer(m, config_.victim_core, key);
    const crypto::u64 message = 0x506C756779566F6CULL % key.n;  // "PlugyVol"

    const Millivolts weaponize_offset = found_offset_ - config_.weaponize_extra_depth;
    ++result.writes_attempted;
    if (kernel.msr().ioctl_wrmsr(config_.attacker_core, config_.attacker_core,
                                 sim::kMsrOcMailbox,
                                 sim::encode_offset(weaponize_offset, config_.plane)))
        ++result.writes_effective;
    const Picoseconds settle = m.rail_settle_time() + microseconds(20.0);
    if (settle > m.now()) m.advance_to(settle);

    for (unsigned i = 0; i < config_.max_signatures && !m.crashed(); ++i) {
        const crypto::u64 s = signer.sign(message);
        if (crypto::rsa_verify(key, message, s)) continue;
        ++result.faults_observed;
        const auto factor = crypto::bellcore_factor(key.n, key.e, message, s);
        if (factor) {
            result.weaponized = true;
            result.weaponization =
                "Bellcore factored n=" + std::to_string(key.n) + " -> p=" +
                std::to_string(*factor);
            break;
        }
    }
    if (m.crashed()) {
        ++result.crashes;
        m.reboot();
    } else {
        kernel.msr().ioctl_wrmsr(config_.attacker_core, config_.attacker_core,
                                 sim::kMsrOcMailbox,
                                 sim::encode_offset(Millivolts{0.0}, sim::VoltagePlane::Core));
    }
    result.finished = m.now();
    if (result.weaponized)
        log_info("plundervolt: ", result.weaponization);
    return result;
}

}  // namespace pv::attack
