#include "check/msr_auditor.hpp"

#include <utility>

#include "check/assert.hpp"
#include "sim/machine.hpp"
#include "sim/ocm.hpp"
#include "util/log.hpp"

namespace pv::check {

const char* to_string(AuditKind kind) {
    switch (kind) {
        case AuditKind::MalformedMailbox: return "malformed-mailbox";
        case AuditKind::OffsetOutOfRange: return "offset-out-of-range";
        case AuditKind::UnsafeWrite: return "unsafe-write";
        case AuditKind::OutOfBandWrite: return "out-of-band-write";
        case AuditKind::StaleStatusRead: return "stale-status-read";
    }
    return "?";
}

std::string AuditViolation::detail() const {
    if (kind != AuditKind::StaleStatusRead) return note;
    return "0x198 read mid-transition: rail settles at " + std::to_string(settle.value()) +
           " ps, now " + std::to_string(time.value()) + " ps";
}

MsrAuditor::MsrAuditor(os::Kernel& kernel, MsrAuditorConfig config)
    : kernel_(kernel), config_(std::move(config)) {
    if (config_.map != nullptr) config_.offset_floor = config_.map->sweep_floor();
    os::MsrObserver* previous = kernel_.msr().set_observer(this);
    PV_ASSERT(previous == nullptr, "MsrDriver already has an observer attached");
    // Register the machine-level hook at attach time so it runs before
    // hooks installed later (deployed guards): an earlier hook that
    // ignores a write would hide it from the audit.
    hook_token_ = kernel_.machine().add_write_hook(
        [this](unsigned core_id, std::uint32_t addr, std::uint64_t& value) {
            if (addr == sim::kMsrOcMailbox) {
                const bool via_driver = driver_write_in_flight_;
                driver_write_in_flight_ = false;
                audit_mailbox_write(core_id, value, via_driver);
            }
            return sim::MsrWriteAction::Allow;  // observe, never interfere
        });
}

MsrAuditor::~MsrAuditor() {
    kernel_.machine().remove_write_hook(hook_token_);
    kernel_.msr().set_observer(nullptr);
}

void MsrAuditor::on_wrmsr(unsigned /*caller_cpu*/, unsigned /*target_cpu*/, std::uint32_t addr,
                          std::uint64_t /*value*/) {
    // A stale flag can only survive here if a previously attached write
    // hook swallowed the last driver write before our hook saw it; clear
    // defensively so it cannot legitimize a later forged write.
    driver_write_in_flight_ = (addr == sim::kMsrOcMailbox);
}

void MsrAuditor::on_rdmsr(unsigned /*caller_cpu*/, unsigned target_cpu, std::uint32_t addr,
                          std::uint64_t value) {
    if (addr != sim::kMsrPerfStatus && addr != sim::kMsrOcMailbox) return;
    ++audited_;
    if (addr != sim::kMsrPerfStatus) return;
    const sim::Machine& machine = kernel_.machine();
    const Picoseconds settle = machine.rail_settle_time();
    if (machine.now() < settle) {
        record({.kind = AuditKind::StaleStatusRead,
                .core = target_cpu,
                .addr = addr,
                .value = value,
                .time = machine.now(),
                .settle = settle,
                .note = {}});
    }
}

void MsrAuditor::audit_mailbox_write(unsigned core_id, std::uint64_t value, bool via_driver) {
    ++audited_;
    if (!via_driver) {
        record(AuditKind::OutOfBandWrite, core_id, sim::kMsrOcMailbox, value,
               "0x150 write reached the machine without passing the MSR driver");
    }
    const auto req = sim::decode_offset(value);
    if (!req) {
        record(AuditKind::MalformedMailbox, core_id, sim::kMsrOcMailbox, value,
               "plane field does not decode to an assigned voltage plane");
        return;
    }
    // Without both bit 63 (command) and bit 32 (write-enable) the
    // mailbox treats the write as a no-op; nothing to validate.
    if (!req->command || !req->write_enable) return;

    if (req->offset < config_.offset_floor) {
        record(AuditKind::OffsetOutOfRange, core_id, sim::kMsrOcMailbox, value,
               "offset " + std::to_string(req->offset.value()) +
                   " mV is deeper than the audited floor " +
                   std::to_string(config_.offset_floor.value()) + " mV");
    }
    // Only the planes that feed modeled fault paths classify against the
    // map; GPU/uncore/AIO offsets are outside its domain.
    const bool fault_plane =
        req->plane == sim::VoltagePlane::Core || req->plane == sim::VoltagePlane::Cache;
    if (config_.map == nullptr || !fault_plane) return;
    const Megahertz f = kernel_.machine().max_active_frequency();
    if (config_.map->is_unsafe(f, req->offset) && !kernel_.module_loaded(config_.guard_module)) {
        record(AuditKind::UnsafeWrite, core_id, sim::kMsrOcMailbox, value,
               "offset " + std::to_string(req->offset.value()) + " mV at " +
                   std::to_string(f.value()) + " MHz classifies " +
                   plugvolt::to_string(config_.map->classify(f, req->offset)) +
                   " with no '" + config_.guard_module + "' guard loaded");
    }
}

void MsrAuditor::record(AuditKind kind, unsigned core, std::uint32_t addr, std::uint64_t value,
                        std::string note) {
    record({.kind = kind,
            .core = core,
            .addr = addr,
            .value = value,
            .time = kernel_.machine().now(),
            .note = std::move(note)});
}

void MsrAuditor::record(AuditViolation violation) {
    if (config_.fatal || log_level() <= LogLevel::Warn) {
        const std::string detail = violation.detail();
        log_warn("msr-audit [", to_string(violation.kind), "] core ", violation.core,
                 " msr 0x", std::hex, violation.addr, std::dec, ": ", detail);
        PV_ASSERT(!config_.fatal, "msr-audit [" << to_string(violation.kind) << "] core "
                                                << violation.core << ": " << detail);
    }
    violations_.push_back(std::move(violation));
}

}  // namespace pv::check
