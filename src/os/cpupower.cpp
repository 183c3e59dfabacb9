#include "os/cpupower.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/error.hpp"

namespace pv::os {

void Cpupower::frequency_set(Megahertz f) {
    for (unsigned cpu = 0; cpu < machine_.core_count(); ++cpu) frequency_set(cpu, f);
}

void Cpupower::frequency_set(unsigned cpu, Megahertz f) {
    if (cpu >= machine_.core_count()) throw ConfigError("cpupower: cpu out of range");
    if (!std::isfinite(f.value())) throw ConfigError("cpupower: frequency must be finite");
    const auto& p = machine_.profile();
    const Megahertz target = std::clamp(f, p.freq_min, p.freq_max);
    const auto ratio = static_cast<std::uint64_t>(target.value() / 100.0 + 0.5) & 0xFF;
    machine_.write_msr(cpu, sim::kMsrPerfCtl, ratio << 8);
}

}  // namespace pv::os
