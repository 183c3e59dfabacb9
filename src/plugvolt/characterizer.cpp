#include "plugvolt/characterizer.hpp"

#include <bit>
#include <cmath>
#include <string>

#include "sim/ocm.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pv::plugvolt {

Characterizer::Characterizer(os::Kernel& kernel, CharacterizerConfig config)
    : kernel_(kernel),
      cpupower_(kernel.cpufreq(), kernel.machine().core_count()),
      config_(config) {
    if (config_.sweep_floor >= Millivolts{0.0})
        throw ConfigError("sweep floor must be negative");
    if (config_.offset_step <= Millivolts{0.0})
        throw ConfigError("offset step must be positive");
    if (config_.dvfs_core == config_.execute_core)
        throw ConfigError("DVFS and EXECUTE threads need distinct cores");
    const unsigned cores = kernel.machine().core_count();
    if (config_.dvfs_core >= cores || config_.execute_core >= cores)
        throw ConfigError("characterizer core out of range");
    config_.retry.validate();
}

bool Characterizer::command_offset(Millivolts offset, std::uint64_t salt) {
    sim::Machine& m = kernel_.machine();
    const std::uint64_t raw = sim::encode_offset(offset, sim::VoltagePlane::Core);
    resilience::RetrySchedule sched(config_.retry, salt);
    os::MsrStatus last = os::MsrStatus::Ok;
    while (sched.next_attempt()) {
        if (sched.backoff() > Picoseconds{0}) {
            PV_TRACE_EVENT(trace::EventKind::RetryBackoff, "mailbox-retry",
                           m.now().value(),
                           static_cast<std::uint64_t>(sched.backoff().value()),
                           sched.attempts());
            m.advance(sched.backoff());
            if (m.crashed()) return false;
        }
        const os::MsrWriteResult r = kernel_.msr().try_ioctl_wrmsr(
            config_.dvfs_core, config_.dvfs_core, sim::kMsrOcMailbox, raw);
        if (r.status == os::MsrStatus::Ok) return true;
        last = r.status;
        ++msr_retries_;
    }
    throw DriverError("mailbox write failed after " +
                      std::to_string(config_.retry.max_attempts) + " attempts: " +
                      os::to_string(last));
}

void Characterizer::pin_frequency(Megahertz f) {
    sim::Machine& m = kernel_.machine();
    cpupower_.frequency_set(f);
    const Picoseconds settle = m.rail_settle_time();
    if (settle > m.now()) m.advance_to(settle);
}

CellResult Characterizer::test_cell(Megahertz f, Millivolts offset) {
    return test_cell_impl(f, offset, /*assume_pinned=*/false);
}

CellResult Characterizer::test_cell_pinned(Megahertz f, Millivolts offset) {
    return test_cell_impl(f, offset, /*assume_pinned=*/true);
}

CellResult Characterizer::test_cell_impl(Megahertz f, Millivolts offset,
                                         bool assume_pinned) {
    sim::Machine& m = kernel_.machine();
    if (m.crashed()) return {0, true};

    // DVFS thread, step 1: pin every core to the test frequency
    // (cpupower frequency-set, as in Algo. 2 line 9).  When the caller
    // guarantees the machine is already pinned and settled at `f`, the
    // pass is state-neutral (idempotent P-state writes, unchanged rail
    // target, no RNG draws) and is skipped.
    if (!assume_pinned) {
        cpupower_.frequency_set(f);
        if (m.crashed()) return {0, true};
    }

    // DVFS thread, step 2: command the undervolt through the userspace
    // msr-tools path (Algo. 1 encoding + ioctl wrmsr to 0x150), retrying
    // environment faults.  The backoff salt is a pure function of the
    // cell so replays don't depend on sweep order or worker assignment.
    const std::uint64_t cell_salt =
        mix_seed(std::bit_cast<std::uint64_t>(f.value()),
                 std::bit_cast<std::uint64_t>(offset.value()));
    if (!command_offset(offset, cell_salt)) return {0, true};

    // Let the rails settle (offset ramp and any pending P-state raise).
    const Picoseconds settle = m.rail_settle_time();
    if (settle > m.now()) m.advance_to(settle);
    if (m.crashed()) return {0, true};

    // EXECUTE thread: the tight loop with varying operands (Algo. 2
    // runs it concurrently and non-blocking; the discrete-event clock
    // gives the same interleaving with the rail already settled).
    if (config_.die_preheat_c > 0.0) m.set_die_temperature(config_.die_preheat_c);
    const sim::BatchResult batch =
        m.run_batch(config_.execute_core, config_.instr_class, config_.ops_per_cell);

    // DVFS thread, step 3: restore nominal voltage (Algo. 2 lines 13-14).
    if (!m.crashed()) {
        if (!command_offset(Millivolts{0.0}, mix_seed(cell_salt, 1)))
            return {batch.faults, true};
        const Picoseconds restore = m.rail_settle_time();
        if (restore > m.now()) m.advance_to(restore);
    }
    return {batch.faults, m.crashed()};
}

std::uint64_t sweep_steps(const CharacterizerConfig& config) {
    return static_cast<std::uint64_t>(
        std::floor(-config.sweep_floor.value() / config.offset_step.value()));
}

Millivolts Characterizer::offset_at_step(std::uint64_t s) const {
    return Millivolts{-static_cast<double>(s) * config_.offset_step.value()};
}

}  // namespace pv::plugvolt
