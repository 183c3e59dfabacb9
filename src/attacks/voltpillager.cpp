#include "attacks/voltpillager.hpp"

#include "os/cpupower.hpp"
#include "sim/ocm.hpp"

namespace pv::attack {

VoltPillager::VoltPillager(VoltPillagerConfig config) : config_(config) {}

AttackResult VoltPillager::run(os::Kernel& kernel) {
    sim::Machine& m = kernel.machine();
    os::Cpupower cpupower(m);

    AttackResult result;
    result.attack_name = std::string(name());
    result.started = m.now();

    const Megahertz pin = config_.pin_freq.value() > 0.0 ? config_.pin_freq
                                                         : m.profile().freq_max;
    cpupower.frequency_set(pin);
    m.advance_to(m.rail_settle_time());

    for (Millivolts offset = config_.scan_start; offset >= config_.scan_floor;
         offset -= config_.scan_step) {
        // The SVID interposer drives the regulator directly: no wrmsr,
        // no write hooks, no mailbox trace.  (writes_attempted counts
        // bus injections for the statistics.)
        ++result.writes_attempted;
        ++result.writes_effective;  // nothing in software can refuse it
        m.regulator().write(sim::VoltagePlane::Core, offset, m.now());
        const Picoseconds settle = m.rail_settle_time() + microseconds(20.0);
        if (settle > m.now()) m.advance_to(settle);
        if (m.crashed()) {
            ++result.crashes;
            m.reboot();
            cpupower.frequency_set(pin);
            m.advance_to(m.rail_settle_time());
            if (result.crashes >= config_.max_crashes) {
                result.notes = "gave up: crash budget exhausted";
                break;
            }
            continue;
        }

        const sim::BatchResult batch =
            m.run_batch(config_.victim_core, sim::InstrClass::Imul, config_.probe_ops);
        if (m.crashed()) {
            ++result.crashes;
            m.reboot();
            cpupower.frequency_set(pin);
            m.advance_to(m.rail_settle_time());
            if (result.crashes >= config_.max_crashes) {
                result.notes = "gave up: crash budget exhausted";
                break;
            }
            continue;
        }
        if (batch.faults > 0) {
            result.faults_observed += batch.faults;
            result.weaponized = true;
            result.weaponization =
                "SVID injection at " + std::to_string(offset.value()) +
                " mV captured " + std::to_string(batch.faults) +
                " faulty products, invisible to MSR 0x150";
            break;
        }

        // Withdraw the injection between probes.
        m.regulator().write(sim::VoltagePlane::Core, Millivolts{0.0}, m.now());
        const Picoseconds restore = m.rail_settle_time();
        if (restore > m.now()) m.advance_to(restore);
    }

    if (!m.crashed())
        m.regulator().write(sim::VoltagePlane::Core, Millivolts{0.0}, m.now());
    if (!result.weaponized && result.notes.empty())
        result.notes = "scan exhausted without usable faults (rail watchdog active?)";
    result.finished = m.now();
    return result;
}

}  // namespace pv::attack
