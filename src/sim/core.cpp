#include "sim/core.hpp"

namespace pv::sim {

void Core::reset(Megahertz boot_freq) {
    freq_ = boot_freq;
    cstate_ = CState::C0;
    instructions_ = 0;
    pending_steal_ = Picoseconds{};
    total_steal_ = Picoseconds{};
}

}  // namespace pv::sim
