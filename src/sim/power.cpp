#include "sim/power.hpp"

#include "util/error.hpp"

namespace pv::sim {

PowerModel::PowerModel(PowerParams params) : params_(params) {
    if (params_.epi_nj_per_v2 < 0.0 || params_.leak_mw_per_v2 < 0.0)
        throw ConfigError("power coefficients must be non-negative");
}

std::uint32_t PowerModel::rapl_energy_status() const {
    const double units = total_joules() * 16384.0;  // 2^14 units per joule
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(units) & 0xFFFFFFFFULL);
}

std::uint64_t PowerModel::rapl_power_unit() {
    // Bits 12:8 = energy status units = 14 -> 1/2^14 J (Intel SDM layout).
    return 14ULL << 8;
}

void PowerModel::reset() {
    dynamic_j_ = 0.0;
    leakage_j_ = 0.0;
}

}  // namespace pv::sim
