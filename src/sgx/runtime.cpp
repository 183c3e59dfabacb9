#include "sgx/runtime.hpp"

namespace pv::sgx {

SgxRuntime::SgxRuntime(os::Kernel& kernel) : kernel_(kernel) {}

std::unique_ptr<Enclave> SgxRuntime::create_enclave(std::string name, unsigned core,
                                                    Program program) {
    return std::make_unique<Enclave>(*this, std::move(name), core, std::move(program));
}

AttestationReport SgxRuntime::quote(const Enclave& enclave) const {
    AttestationReport report;
    report.mrenclave = measure_enclave(enclave.name());
    report.features.ocm_disabled = ocm_disabled_;
    report.features.hyperthreading_enabled = false;  // paper setups disable HT
    report.features.plugvolt_module_loaded =
        !attested_module_.empty() && kernel_.module_loaded(attested_module_);
    report.features.microcode = kernel_.machine().profile().microcode;
    return report;
}

}  // namespace pv::sgx
