// PlugVolt — SGX platform runtime.
//
// Tracks live enclaves (the "is an SGX context operational?" observable
// that Intel's access-control patch keys on) and produces attestation
// quotes from live platform state: the OCM-disabled bit is set by the
// AccessControl defense, and the PlugVolt-module bit is read from the
// kernel's module registry at quote time — so unloading the module
// *after* attestation is caught by the next quote, exactly the paper's
// proposed deployment.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "os/kernel.hpp"
#include "sgx/attestation.hpp"
#include "sgx/enclave.hpp"

namespace pv::sgx {

/// Platform-level SGX state on top of the kernel.
class SgxRuntime {
public:
    explicit SgxRuntime(os::Kernel& kernel);

    [[nodiscard]] os::Kernel& kernel() { return kernel_; }
    [[nodiscard]] sim::Machine& machine() { return kernel_.machine(); }

    /// ECREATE+EINIT: load an enclave pinned to `core` with the code it
    /// runs, fixed from here on (a tenant that never enters has none).
    [[nodiscard]] std::unique_ptr<Enclave> create_enclave(std::string name, unsigned core,
                                                          Program program = {});

    /// True while any enclave is inside run() (EENTER window).
    [[nodiscard]] bool any_enclave_active() const { return active_enclaves_ > 0; }

    /// True while any enclave exists on the platform (created and not yet
    /// destroyed) — the condition Intel's SA-00289 access control keys
    /// on to disable the OCM.
    [[nodiscard]] bool any_enclave_loaded() const { return loaded_enclaves_ > 0; }

    /// Name of the kernel module whose load state is attested (the
    /// paper's proposal); empty = no module attestation.
    void set_attested_module(std::string name) { attested_module_ = std::move(name); }

    /// Set by the AccessControl defense while it blocks the OCM.
    void set_ocm_disabled_bit(bool disabled) { ocm_disabled_ = disabled; }
    [[nodiscard]] bool ocm_disabled_bit() const { return ocm_disabled_; }

    /// Produce a quote for `enclave` from live platform state.
    [[nodiscard]] AttestationReport quote(const Enclave& enclave) const;

private:
    friend class Enclave;
    void enter() { ++active_enclaves_; }
    void leave() { --active_enclaves_; }
    void enclave_created() { ++loaded_enclaves_; }
    void enclave_destroyed() { --loaded_enclaves_; }

    os::Kernel& kernel_;
    int active_enclaves_ = 0;
    int loaded_enclaves_ = 0;
    bool ocm_disabled_ = false;
    std::string attested_module_;
};

}  // namespace pv::sgx
