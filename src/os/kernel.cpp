#include "os/kernel.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace pv::os {

Kernel::Kernel(sim::Machine& machine)
    : machine_(machine), msr_(machine), cpufreq_(machine) {
    machine_.on_reset([this] { on_machine_reset(); });
}

KthreadId Kernel::start_kthread(KthreadOptions options, KthreadBody body) {
    if (options.period <= Picoseconds{0})
        throw ConfigError("kthread period must be positive");
    if (options.cpu >= machine_.core_count())
        throw ConfigError("kthread pinned to nonexistent cpu");
    const KthreadId id = next_id_++;
    const Picoseconds first_wake = machine_.now() + options.period;
    kthreads_.emplace(id, std::make_unique<Kthread>(
                              Kthread{std::move(options), std::move(body), true}));
    arm(id, first_wake);
    return id;
}

void Kernel::arm(KthreadId id, Picoseconds first_wake) {
    machine_.events().schedule(first_wake, [this, id] {
        const auto it = kthreads_.find(id);
        if (it == kthreads_.end() || !it->second->running) return;
        // Heap-pinned: stays valid even if the body grows the table.
        const Kthread& kt = *it->second;
        // A timer firing on an idle core wakes it first (exit latency is
        // charged inside wake_core).
        if (std::as_const(machine_).core(kt.options.cpu).cstate() != sim::CState::C0)
            machine_.wake_core(kt.options.cpu);
        machine_.add_steal(kt.options.cpu,
                           Cycles{machine_.profile().costs.kthread_wake_cycles});
        kt.body(*this);
        // The body may have stopped this kthread (or the machine may
        // have crashed; the event queue is cleared on reboot anyway).
        const auto again = kthreads_.find(id);
        if (again == kthreads_.end()) return;
        if (again->second->running)
            arm(id, machine_.now() + again->second->options.period);
        else
            kthreads_.erase(id);  // deferred reclaim of a self-stop
    });
}

void Kernel::stop_kthread(KthreadId id) {
    // Mark only: the entry may belong to the body currently executing
    // (a kthread stopping itself), and erasing here would destroy that
    // closure mid-call.  arm()'s wrapper or on_machine_reset() reclaims.
    const auto it = kthreads_.find(id);
    if (it != kthreads_.end()) it->second->running = false;
}

bool Kernel::kthread_running(KthreadId id) const {
    const auto it = kthreads_.find(id);
    return it != kthreads_.end() && it->second->running;
}

void Kernel::on_machine_reset() {
    // Reboot cleared the event queue: reclaim stopped entries (their
    // pending wrapper events are gone), then re-arm every running one.
    for (auto it = kthreads_.begin(); it != kthreads_.end();) {
        if (!(*it->second).running) {
            const KthreadId dead = it->first;
            kthreads_.erase(dead);
            it = kthreads_.begin();  // erase invalidates flat iterators
        } else {
            ++it;
        }
    }
    for (const auto& [id, kt] : kthreads_) {
        arm(id, machine_.now() + kt->options.period);
    }
}

bool Kernel::load_module(std::shared_ptr<KernelModule> module) {
    if (!module) throw ConfigError("load_module(nullptr)");
    if (module_loaded(module->name())) return false;
    modules_.push_back(module);
    module->init(*this);
    return true;
}

bool Kernel::unload_module(std::string_view name) {
    const auto it = std::find_if(modules_.begin(), modules_.end(),
                                 [&](const auto& m) { return m->name() == name; });
    if (it == modules_.end()) return false;
    (*it)->exit(*this);
    modules_.erase(it);
    return true;
}

bool Kernel::module_loaded(std::string_view name) const {
    return std::any_of(modules_.begin(), modules_.end(),
                       [&](const auto& m) { return m->name() == name; });
}

std::vector<std::string> Kernel::lsmod() const {
    std::vector<std::string> names;
    names.reserve(modules_.size());
    for (const auto& m : modules_) names.emplace_back(m->name());
    return names;
}

WorkerContext Kernel::fork_context(std::uint64_t seed) const {
    return make_worker_context(machine_.profile(), seed);
}

WorkerContext make_worker_context(const sim::CpuProfile& profile, std::uint64_t seed) {
    WorkerContext ctx;
    ctx.machine = std::make_unique<sim::Machine>(profile, seed);
    ctx.kernel = std::make_unique<Kernel>(*ctx.machine);
    return ctx;
}

}  // namespace pv::os
