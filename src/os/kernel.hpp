// PlugVolt — kernel context: kthreads and loadable modules.
//
// The paper's countermeasure ships as a kernel module hosting a polling
// kthread; its threat model explicitly discusses module unloading (the
// load state is proposed for the SGX attestation report).  This model
// provides exactly those observables: a module registry ("lsmod"), and
// periodic kthreads whose wakeups steal real (simulated) cycles from the
// core they run on — the source of the Table 2 overhead.
//
// Kthreads survive machine reboots: the kernel re-arms every running
// kthread from Machine's on-reset hook, like services started from the
// initramfs on a real crash-reboot cycle.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "os/msr_driver.hpp"
#include "sim/machine.hpp"
#include "util/flat_map.hpp"

namespace pv::os {

class Kernel;

/// A loadable kernel module: init on load, exit on unload.
class KernelModule {
public:
    virtual ~KernelModule() = default;
    [[nodiscard]] virtual std::string_view name() const = 0;
    virtual void init(Kernel& kernel) = 0;
    virtual void exit(Kernel& kernel) = 0;
};

/// Handle identifying a started kthread.
using KthreadId = int;

/// The OS kernel running on a Machine.
class Kernel {
public:
    explicit Kernel(sim::Machine& machine);

    [[nodiscard]] sim::Machine& machine() { return machine_; }
    [[nodiscard]] MsrDriver& msr() { return msr_; }

    // --- kthreads ---------------------------------------------------------
    struct KthreadOptions {
        std::string name;
        unsigned cpu = 0;          ///< core the thread is pinned to
        Picoseconds period{};      ///< wakeup interval; must be positive
    };
    using KthreadBody = std::function<void(Kernel&)>;

    /// Start a periodic kthread.  Each wakeup charges the profile's
    /// kthread_wake_cycles to the pinned core, then runs `body` (whose
    /// MSR accesses charge further cycles through MsrDriver).
    KthreadId start_kthread(KthreadOptions options, KthreadBody body);

    /// Stop a kthread; idempotent.  Safe to call from the kthread's own
    /// body: the entry is marked stopped immediately (kthread_running()
    /// turns false) and reclaimed after the body returns, so the
    /// executing closure is never destroyed out from under itself.
    void stop_kthread(KthreadId id);

    [[nodiscard]] bool kthread_running(KthreadId id) const;

    // --- modules -----------------------------------------------------------
    /// insmod: returns false if a module of the same name is loaded.
    bool load_module(std::shared_ptr<KernelModule> module);

    /// rmmod: returns false if no such module is loaded.  NOTE: the
    /// paper's threat model *allows* the adversary to do this — which is
    /// why the module's load state must be attested (Sec. 4.1).
    bool unload_module(std::string_view name);

    [[nodiscard]] bool module_loaded(std::string_view name) const;

    /// Names of loaded modules, in load order (lsmod).
    [[nodiscard]] std::vector<std::string> lsmod() const;

private:
    struct Kthread {
        KthreadOptions options;
        KthreadBody body;
        bool running = true;
    };

    void arm(KthreadId id, Picoseconds first_wake);
    void on_machine_reset();

    sim::Machine& machine_;
    MsrDriver msr_;
    // Flat table of heap-pinned kthreads: the indirection matters — a
    // body that starts another kthread grows the table, and the entry of
    // the body CURRENTLY EXECUTING must not move while it runs.
    FlatMap<KthreadId, std::unique_ptr<Kthread>> kthreads_;
    KthreadId next_id_ = 1;
    std::vector<std::shared_ptr<KernelModule>> modules_;
};

/// A self-contained simulated machine with its OS, for drivers that run
/// many independent simulator instances (one per characterization
/// worker).  Machine is pinned in memory (scheduled events capture its
/// address), hence the unique_ptrs; the context as a whole is movable.
struct WorkerContext {
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<Kernel> kernel;
};

/// Factory for worker contexts: a fresh Machine(profile, seed) hosting a
/// fresh Kernel.  Every worker of a parallel sweep gets its own context,
/// so no simulator state is ever shared across threads.
[[nodiscard]] WorkerContext make_worker_context(const sim::CpuProfile& profile,
                                                std::uint64_t seed);

}  // namespace pv::os
