// PlugVolt — hardware MSR deployment (Sec. 5.2).
//
// Models the proposed MSR_VOLTAGE_OFFSET_LIMIT, with the same semantics
// as DRAM_MIN_PWR in MSR_DRAM_POWER_INFO: any 0x150 write requesting an
// offset deeper than the fused limit is *clamped* to the limit (not
// dropped — software still gets the deepest safe undervolt it asked
// for).  An optional lock bit freezes the limit until reset, so a
// privileged adversary cannot simply widen it.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/machine.hpp"

namespace pv::plugvolt {

/// The hardware gatekeeper register.
class MsrClamp {
public:
    /// Fuses `limit` (from LimitTable::maximal_safe()) into
    /// MSR_VOLTAGE_OFFSET_LIMIT.  `locked` freezes it until reboot.
    MsrClamp(sim::Machine& machine, Millivolts limit, bool locked = true);
    ~MsrClamp();

    MsrClamp(const MsrClamp&) = delete;
    MsrClamp& operator=(const MsrClamp&) = delete;

    void install();
    void uninstall();

    [[nodiscard]] bool installed() const { return clamp_token_.has_value(); }

    /// Writes whose offset was clamped to the limit.
    [[nodiscard]] std::uint64_t clamped_writes() const { return clamped_; }
    /// Attempts to relax the limit MSR that were blocked by the lock.
    [[nodiscard]] std::uint64_t blocked_limit_writes() const { return blocked_limit_writes_; }

    /// Encode/decode the limit register value (bits 20:0 = |offset| in
    /// millivolts, bit 31 = lock).
    [[nodiscard]] static std::uint64_t encode_limit(Millivolts limit, bool locked);
    [[nodiscard]] static Millivolts decode_limit(std::uint64_t raw);

private:
    sim::Machine& machine_;
    Millivolts limit_;
    bool locked_;
    std::optional<std::size_t> clamp_token_;
    std::optional<std::size_t> lock_token_;
    std::uint64_t clamped_ = 0;
    std::uint64_t blocked_limit_writes_ = 0;
};

}  // namespace pv::plugvolt
