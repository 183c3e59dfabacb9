// PlugVolt — kernel MSR driver (the /dev/cpu/*/msr path).
//
// Every MSR access in the real countermeasure costs time: the rdmsr/
// wrmsr instruction itself, a cross-core IPI when the target MSR lives
// on another CPU, and (from userspace) the ioctl transition.  Those
// prices are the first of the paper's two turnaround-time contributors
// (Sec. 5), and they are also what the Table 2 overhead is made of —
// so the driver charges them to the calling core as stolen cycles.
//
// The driver is also where the ENVIRONMENT fails: EIO from the msr
// device, IPI timeouts, stale status reads, a busy OCM mailbox.  The
// try_* API surfaces those as MsrStatus values (domain outcomes are
// values, never exceptions) and a resilience::FaultInjector can be
// attached to produce them deterministically.  With no injector attached
// every access is bit-for-bit the pre-injection fast path.
//
// Four entry points, one per actor and path: the polling module reads
// and rewrites in kernel context (try_rdmsr, try_wrmsr), the
// characterizer writes 0x150 through the ioctl and handles its status
// (try_ioctl_wrmsr), and the attack PoCs and benign tools write through
// the ioctl and raise DriverError on a failed write (ioctl_wrmsr).
#pragma once

#include <cstdint>

#include "resilience/fault_injection.hpp"
#include "sim/cpu_profile.hpp"
#include "sim/machine.hpp"
#include "util/flat_map.hpp"

namespace pv::os {

/// Outcome of one driver-level MSR access.
enum class MsrStatus : std::uint8_t {
    Ok,       ///< access completed (value served / write delivered)
    IoError,  ///< the device returned EIO; nothing happened
    Busy,     ///< OC mailbox busy bit stuck; write bounced
    Timeout,  ///< cross-core IPI stalled out; extra cycles were burned
};

[[nodiscard]] const char* to_string(MsrStatus status);

struct MsrReadResult {
    MsrStatus status = MsrStatus::Ok;
    std::uint64_t value = 0;
    /// True when an injected torn read served the MSR's PREVIOUS value.
    bool stale = false;
};

struct MsrWriteResult {
    MsrStatus status = MsrStatus::Ok;
    /// Machine-level write hook outcome (false if a hook ignored it);
    /// only meaningful when status == Ok.
    bool applied = false;
};

/// Per-driver environment-fault counters (what the injector produced).
struct MsrFaultCounters {
    std::uint64_t read_errors = 0;
    std::uint64_t write_errors = 0;
    std::uint64_t read_timeouts = 0;
    std::uint64_t write_timeouts = 0;
    std::uint64_t stale_reads = 0;
    std::uint64_t mailbox_busy = 0;
};

/// Passive tap on driver-level MSR traffic.  Observers see every access
/// that goes through this driver (the legitimate software path); traffic
/// that reaches the Machine without passing here is, by definition,
/// out-of-band — which is exactly what check::MsrAuditor cross-checks.
class MsrObserver {
public:
    virtual ~MsrObserver() = default;
    /// Called before the write reaches the machine.
    virtual void on_wrmsr(unsigned caller_cpu, unsigned target_cpu, std::uint32_t addr,
                          std::uint64_t value) = 0;
    /// Called after the read, with the value returned to the caller.
    virtual void on_rdmsr(unsigned caller_cpu, unsigned target_cpu, std::uint32_t addr,
                          std::uint64_t value) = 0;
};

/// Kernel- and user-context MSR access with cycle accounting.
class MsrDriver {
public:
    explicit MsrDriver(sim::Machine& machine);

    /// Attach/detach a traffic observer (non-owning; at most one).
    /// Returns the previously attached observer, if any.
    MsrObserver* set_observer(MsrObserver* observer);
    [[nodiscard]] MsrObserver* observer() const { return observer_; }

    /// Attach/detach the environment fault source (non-owning; at most
    /// one).  Returns the previously attached injector, if any.
    resilience::FaultInjector* set_fault_injector(resilience::FaultInjector* injector);

    /// Kernel-context rdmsr of `target_cpu`'s MSR from `caller_cpu`.
    /// Remote targets pay the IPI price (smp_call_function_single).
    /// Never throws on environment faults: the status says what happened.
    [[nodiscard]] MsrReadResult try_rdmsr(unsigned caller_cpu, unsigned target_cpu,
                                          std::uint32_t addr);

    /// Kernel-context wrmsr; environment faults surface in the status.
    MsrWriteResult try_wrmsr(unsigned caller_cpu, unsigned target_cpu, std::uint32_t addr,
                             std::uint64_t value);

    /// Userspace write (open /dev/cpu/N/msr + ioctl): try_wrmsr plus the
    /// user->kernel transition overhead.
    MsrWriteResult try_ioctl_wrmsr(unsigned caller_cpu, unsigned target_cpu,
                                   std::uint32_t addr, std::uint64_t value);

    /// try_ioctl_wrmsr for callers with no recovery path (the published
    /// attack PoCs use this write): a non-Ok status raises DriverError.
    /// Returns whether the machine applied the write.
    bool ioctl_wrmsr(unsigned caller_cpu, unsigned target_cpu, std::uint32_t addr,
                     std::uint64_t value);

    /// Cycle cost of a single kernel-context read/write for planning
    /// (e.g. the turnaround decomposition bench).
    [[nodiscard]] Cycles read_cost(bool remote) const;
    [[nodiscard]] Cycles write_cost(bool remote) const;

    /// Total cycles this driver has charged since construction.
    [[nodiscard]] std::uint64_t total_cost_cycles() const { return total_cycles_; }

    /// Environment faults this driver surfaced (all injector-produced).
    [[nodiscard]] const MsrFaultCounters& fault_counters() const { return faults_; }

    /// Forget the stale-read history.  Call at experiment boundaries
    /// (e.g. between sweep cells) so a torn read can never serve a value
    /// recorded by a previous, unrelated experiment — that would make
    /// outcomes depend on probe order and worker assignment.
    void clear_stale_cache() { last_value_.clear(); }

private:
    void charge(unsigned cpu, std::uint64_t cycles);

    sim::Machine& machine_;
    MsrObserver* observer_ = nullptr;
    resilience::FaultInjector* injector_ = nullptr;
    /// Last true value per (target_cpu, addr), tracked only while an
    /// injector is attached — the value a StaleRead serves.  Flat map:
    /// clear_stale_cache() at every cell boundary keeps the capacity.
    FlatMap<std::uint64_t, std::uint64_t> last_value_;
    MsrFaultCounters faults_;
    std::uint64_t total_cycles_ = 0;
};

}  // namespace pv::os
