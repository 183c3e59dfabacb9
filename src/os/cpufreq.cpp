#include "os/cpufreq.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace pv::os {

std::string_view to_string(Governor g) {
    switch (g) {
        case Governor::Performance: return "performance";
        case Governor::Powersave: return "powersave";
        case Governor::Userspace: return "userspace";
        case Governor::Ondemand: return "ondemand";
    }
    return "?";
}

Cpufreq::Cpufreq(sim::Machine& machine) : machine_(machine) {
    const auto& p = machine_.profile();
    policies_.resize(machine_.core_count(), Policy{Governor::Ondemand, p.freq_min, p.freq_max});
}

const Cpufreq::Policy& Cpufreq::policy(unsigned cpu) const {
    if (cpu >= policies_.size()) throw ConfigError("cpufreq: cpu out of range");
    return policies_[cpu];
}

std::vector<Megahertz> Cpufreq::available_frequencies() const {
    return machine_.profile().frequency_table();
}

void Cpufreq::set_governor(unsigned cpu, Governor g) {
    if (cpu >= policies_.size()) throw ConfigError("cpufreq: cpu out of range");
    policies_[cpu].gov = g;
    switch (g) {
        case Governor::Performance: apply(cpu, policies_[cpu].max); break;
        case Governor::Powersave: apply(cpu, policies_[cpu].min); break;
        case Governor::Userspace:
        case Governor::Ondemand: break;  // keep current until told otherwise
    }
}

Governor Cpufreq::governor(unsigned cpu) const { return policy(cpu).gov; }

void Cpufreq::set_policy_limits(unsigned cpu, Megahertz lo, Megahertz hi) {
    if (cpu >= policies_.size()) throw ConfigError("cpufreq: cpu out of range");
    if (lo > hi) throw ConfigError("cpufreq: policy min above max");
    const auto& p = machine_.profile();
    policies_[cpu].min = std::max(lo, p.freq_min);
    policies_[cpu].max = std::min(hi, p.freq_max);
    // Re-clamp the running frequency into the new window.
    const Megahertz cur = machine_.core(cpu).frequency();
    apply(cpu, std::clamp(cur, policies_[cpu].min, policies_[cpu].max));
}

Megahertz Cpufreq::policy_min(unsigned cpu) const { return policy(cpu).min; }
Megahertz Cpufreq::policy_max(unsigned cpu) const { return policy(cpu).max; }

void Cpufreq::set_userspace_frequency(unsigned cpu, Megahertz f) {
    if (policy(cpu).gov != Governor::Userspace)
        throw ConfigError("scaling_setspeed requires the userspace governor");
    apply(cpu, f);
}

void Cpufreq::report_load(unsigned cpu, double utilization) {
    if (utilization < 0.0 || utilization > 1.0)
        throw ConfigError("utilization must be in [0,1]");
    const Policy& pol = policy(cpu);
    if (pol.gov != Governor::Ondemand) return;  // other governors ignore load
    Megahertz target = pol.max;
    if (utilization < 0.8) {
        const double span = pol.max.value() - pol.min.value();
        target = Megahertz{pol.min.value() + span * (utilization / 0.8)};
    }
    apply(cpu, target);
}

Megahertz Cpufreq::current(unsigned cpu) const {
    return std::as_const(machine_).core(cpu).frequency();  // a read, not a write
}

void Cpufreq::apply(unsigned cpu, Megahertz target) {
    const Policy& pol = policy(cpu);
    target = std::clamp(target, pol.min, pol.max);
    // The scaling driver programs IA32_PERF_CTL with the ratio.
    const auto ratio = static_cast<std::uint64_t>(target.value() / 100.0 + 0.5) & 0xFF;
    machine_.write_msr(cpu, sim::kMsrPerfCtl, ratio << 8);
}

}  // namespace pv::os
