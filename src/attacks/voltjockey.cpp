#include "attacks/voltjockey.hpp"

#include <algorithm>
#include <cmath>

#include "os/cpupower.hpp"
#include "sim/ocm.hpp"
#include "util/log.hpp"

namespace pv::attack {

VoltJockey::VoltJockey(VoltJockeyConfig config,
                       std::optional<plugvolt::SafeStateMap> attacker_map)
    : config_(config), attacker_map_(std::move(attacker_map)) {}

std::uint64_t VoltJockey::attempt(os::Kernel& kernel, Megahertz f_lo, Megahertz f_hi,
                                  Millivolts offset, AttackResult& result) {
    sim::Machine& m = kernel.machine();
    os::Cpupower cpupower(m);

    // Park at the low frequency and settle the (locally safe) offset.
    cpupower.frequency_set(f_lo);
    ++result.writes_attempted;
    if (kernel.msr().ioctl_wrmsr(config_.attacker_core, config_.attacker_core,
                                 sim::kMsrOcMailbox,
                                 sim::encode_offset(offset, sim::VoltagePlane::Core)))
        ++result.writes_effective;
    const Picoseconds settle = m.rail_settle_time() + microseconds(20.0);
    if (settle > m.now()) m.advance_to(settle);
    if (m.crashed()) return 0;

    // Spring the trap: request the high P-state.  The PCU ramps the rail
    // up first (voltage-first sequencing) and only then switches the
    // frequency, so the victim must be hammered from the switch onward —
    // size the probe to span the ramp plus a detection-window's worth of
    // execution at the high frequency.
    cpupower.frequency_set(f_hi);
    const double ramp_us = (m.rail_settle_time() - m.now()).microseconds();
    const auto ramp_ops = static_cast<std::uint64_t>(
        ramp_us * config_.low_freq.value());  // ops burned at f_lo during the ramp
    const sim::BatchResult batch = m.run_batch(
        config_.victim_core, sim::InstrClass::Imul, ramp_ops + config_.probe_ops);

    if (!m.crashed()) {
        cpupower.frequency_set(f_lo);
        ++result.writes_attempted;
        if (kernel.msr().ioctl_wrmsr(config_.attacker_core, config_.attacker_core,
                                     sim::kMsrOcMailbox,
                                     sim::encode_offset(Millivolts{0.0},
                                                        sim::VoltagePlane::Core)))
            ++result.writes_effective;
        const Picoseconds restore = m.rail_settle_time();
        if (restore > m.now()) m.advance_to(restore);
    }
    return batch.faults;
}

AttackResult VoltJockey::run(os::Kernel& kernel) {
    sim::Machine& m = kernel.machine();
    AttackResult result;
    result.attack_name = std::string(name());
    result.started = m.now();

    const Megahertz f_hi = config_.high_freq.value() > 0.0 ? config_.high_freq
                                                           : m.profile().freq_max;

    if (config_.descending_rail) {
        run_descending_rail(kernel, result);
        result.finished = m.now();
        return result;
    }

    if (!config_.precise_step) {
        // Big-jump variant: deepen the parked offset until the raise
        // produces faults (or crashes, or the defense wins).
        for (Millivolts offset = config_.scan_start; offset >= config_.scan_floor;
             offset -= config_.scan_step) {
            const std::uint64_t faults =
                attempt(kernel, config_.low_freq, f_hi, offset, result);
            if (m.crashed()) {
                ++result.crashes;
                m.reboot();
                if (result.crashes >= config_.max_crashes) {
                    result.notes = "gave up: crash budget exhausted";
                    break;
                }
                continue;
            }
            if (faults > 0) {
                result.faults_observed += faults;
                result.weaponized = true;
                result.weaponization = "captured " + std::to_string(faults) +
                                       " faulty products via frequency raise to " +
                                       std::to_string(f_hi.value()) + " MHz";
                break;
            }
        }
        result.finished = m.now();
        return result;
    }

    // Precise-step variant: use the attacker's own characterization to
    // park inside a nearby bin's unsafe band while looking safe (even
    // through the defender's guard band) at the parked frequency.
    if (!attacker_map_ || attacker_map_->rows().size() < 2) {
        result.notes = "precise-step variant needs an attacker characterization map";
        result.finished = m.now();
        return result;
    }
    const auto& rows = attacker_map_->rows();
    unsigned tried = 0;
    for (std::size_t i = rows.size() - 1; i > 0 && tried < 6; --i) {
      for (unsigned hop = 1; hop <= config_.max_hop_bins && hop <= i && tried < 6; ++hop) {
        const auto& lo = rows[i - hop];
        const auto& hi = rows[i];
        if (lo.fault_free || hi.fault_free) continue;
        // Window: (a) still classified safe at lo.freq through the
        // defender's guard, (b) unsafe-but-not-crash at hi.freq.
        const Millivolts floor =
            std::max(lo.onset + config_.assumed_defender_guard, hi.crash) + Millivolts{1.0};
        const Millivolts ceiling = hi.onset;
        if (floor > ceiling) continue;
        const Millivolts park = Millivolts{0.5 * (floor.value() + ceiling.value())};
        ++tried;
        for (unsigned rep = 0; rep < 3; ++rep) {
            const std::uint64_t faults = attempt(kernel, lo.freq, hi.freq, park, result);
            if (m.crashed()) {
                ++result.crashes;
                m.reboot();
                if (result.crashes >= config_.max_crashes) {
                    result.notes = "gave up: crash budget exhausted";
                    result.finished = m.now();
                    return result;
                }
                continue;
            }
            if (faults > 0) {
                result.faults_observed += faults;
                result.weaponized = true;
                result.weaponization =
                    "precise raise " + std::to_string(lo.freq.value()) + "->" +
                    std::to_string(hi.freq.value()) + " MHz at " +
                    std::to_string(park.value()) + " mV captured " +
                    std::to_string(faults) + " faulty products";
                result.finished = m.now();
                return result;
            }
        }
      }
    }
    if (result.notes.empty() && !result.weaponized)
        result.notes = "no precise-hop window produced faults";
    result.finished = m.now();
    return result;
}

void VoltJockey::run_descending_rail(os::Kernel& kernel, AttackResult& result) {
    sim::Machine& m = kernel.machine();
    if (!attacker_map_ || attacker_map_->rows().empty()) {
        result.notes = "descending-rail variant needs an attacker characterization map";
        return;
    }
    os::Cpupower cpupower(m);
    const Megahertz f_hi = config_.high_freq.value() > 0.0 ? config_.high_freq
                                                           : m.profile().freq_max;
    // The unsafe band at the target frequency, from the attacker's map.
    const auto& rows = attacker_map_->rows();
    const plugvolt::FreqCharacterization* row = &rows.front();
    for (const auto& r : rows)
        if (std::abs(r.freq.value() - f_hi.value()) <
            std::abs(row->freq.value() - f_hi.value()))
            row = &r;
    if (row->fault_free) {
        result.notes = "target frequency has no characterized unsafe band";
        return;
    }
    // Park inside the band, above the crash boundary.
    const Millivolts park{row->onset.value() -
                          0.35 * (row->onset.value() - row->crash.value())};
    const Megahertz f_lo{f_hi.value() - 300.0};

    auto ocm_write = [&](Millivolts offset) {
        ++result.writes_attempted;
        if (kernel.msr().ioctl_wrmsr(config_.attacker_core, config_.attacker_core,
                                     sim::kMsrOcMailbox,
                                     sim::encode_offset(offset, sim::VoltagePlane::Core)))
            ++result.writes_effective;
    };

    // Scan the re-raise delay: the attacker wants the rail to be just
    // above vf(f_hi)+park when the raise request arrives, so the PCU
    // switches instantly and the still-sagging rail carries the high
    // frequency straight into the unsafe band.
    for (double delay_us = 150.0; delay_us <= 420.0 && !result.weaponized;
         delay_us += 10.0) {
        // Settle clean and fast.
        ocm_write(Millivolts{0.0});
        cpupower.frequency_set(f_hi);
        Picoseconds settle = m.rail_settle_time() + microseconds(20.0);
        if (settle > m.now()) m.advance_to(settle);
        if (m.crashed()) break;

        // The racing triple: drop, park, re-raise after the tuned delay.
        cpupower.frequency_set(f_lo);
        ocm_write(park);
        m.advance(microseconds(delay_us));
        if (!m.crashed()) {
            cpupower.frequency_set(f_hi);
            const sim::BatchResult batch =
                m.run_batch(config_.victim_core, sim::InstrClass::Imul, 300'000);
            if (batch.faults > 0) {
                result.faults_observed += batch.faults;
                result.weaponized = true;
                result.weaponization =
                    "descending-rail switch to " + std::to_string(f_hi.value()) +
                    " MHz at " + std::to_string(park.value()) + " mV captured " +
                    std::to_string(batch.faults) + " faulty products (delay " +
                    std::to_string(delay_us) + " us)";
            }
        }
        if (m.crashed()) {
            ++result.crashes;
            m.reboot();
            if (result.crashes >= config_.max_crashes) {
                result.notes = "gave up: crash budget exhausted";
                return;
            }
            continue;
        }
        ocm_write(Millivolts{0.0});
        settle = m.rail_settle_time();
        if (settle > m.now()) m.advance_to(settle);
    }
    if (!result.weaponized && result.notes.empty())
        result.notes = "no re-raise delay landed in the band";
}

}  // namespace pv::attack
