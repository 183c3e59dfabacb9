// PlugVolt — runtime audit of the MSR 0x150 / 0x198 surface.
//
// The whole countermeasure stands on two MSRs behaving: 0x150 writes
// must be well-formed mailbox commands landing inside the characterized
// offset range, and 0x198 reads must reflect settled plane state before
// anyone acts on them.  The auditor wires into both ends of the path:
//
//   - as an os::MsrObserver on the kernel's MsrDriver it sees every
//     *legitimate* (driver-mediated) access, validating 0x150 writes
//     against the mailbox encoding and the safe-state map, and flagging
//     0x198 reads taken while a commanded rail transition is still
//     slewing (stale plane state — the value will keep moving);
//   - as a Machine write hook it sees every 0x150 write however it got
//     there, so a write that never passed the driver (a forged,
//     out-of-band injection — the VoltPillager software analogue) is
//     caught by cross-checking the two streams.
//
// "Unsafe write" means: the decoded offset, at the machine's current
// fastest active frequency, classifies Unsafe or Crash in the reference
// map while no polling-guard module is loaded — i.e. the write bypasses
// the countermeasure.  With the guard loaded the same write is recorded
// as guarded traffic (the guard's job is to rewrite it).
//
// Violations are recorded (default) or fatal (set_fatal) — recording is
// what tests and soak runs want; fatal is the belt-and-braces mode for
// long determinism sweeps where any violation invalidates the run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "os/kernel.hpp"
#include "plugvolt/limit_table.hpp"
#include "util/units.hpp"

namespace pv::check {

/// Classification of one audit finding.
enum class AuditKind {
    MalformedMailbox,   ///< 0x150 value whose plane field does not decode
    OffsetOutOfRange,   ///< decoded offset deeper than the audited floor
    UnsafeWrite,        ///< would enter Unsafe/Crash territory with no guard loaded
    OutOfBandWrite,     ///< 0x150 write reached the machine without the driver
    StaleStatusRead,    ///< 0x198 read while the commanded rail is still slewing
};

[[nodiscard]] const char* to_string(AuditKind kind);

/// One recorded violation.
struct AuditViolation {
    AuditKind kind;
    unsigned core = 0;          ///< target core of the access
    std::uint32_t addr = 0;
    std::uint64_t value = 0;    ///< raw MSR value written/read
    Picoseconds time{};         ///< machine time of the access
    Picoseconds settle{};       ///< StaleStatusRead: when the rail settles
    std::string note;           ///< the text of every other kind

    /// The finding as text.  A StaleStatusRead, the one kind a polling
    /// run records by the hundred thousand, builds it here from `time`
    /// and `settle`; the auditor builds it only to log or to die.
    [[nodiscard]] std::string detail() const;
};

struct MsrAuditorConfig {
    /// Reference safe-state map for UnsafeWrite classification (read
    /// through a LimitTable built at construction); when null only
    /// encoding/range/out-of-band/staleness checks run.
    const plugvolt::SafeStateMap* map = nullptr;
    /// Deepest offset considered in-range.  Defaults to the map's sweep
    /// floor when a map is given, else the paper's -300 mV.
    Millivolts offset_floor{-300.0};
    /// Name of the module whose load state counts as "the polling guard
    /// is active" for UnsafeWrite (default: the paper's kernel module).
    std::string guard_module = "plugvolt";
    /// Abort via the PV_ASSERT failure path on the first violation.
    bool fatal = false;
};

/// Attaches to a Kernel (driver observer + machine write hook) for its
/// lifetime; detaches on destruction.
class MsrAuditor final : public os::MsrObserver {
public:
    MsrAuditor(os::Kernel& kernel, MsrAuditorConfig config);
    ~MsrAuditor() override;

    MsrAuditor(const MsrAuditor&) = delete;
    MsrAuditor& operator=(const MsrAuditor&) = delete;

    // os::MsrObserver
    void on_wrmsr(unsigned caller_cpu, unsigned target_cpu, std::uint32_t addr,
                  std::uint64_t value) override;
    void on_rdmsr(unsigned caller_cpu, unsigned target_cpu, std::uint32_t addr,
                  std::uint64_t value) override;

    [[nodiscard]] const std::vector<AuditViolation>& violations() const { return violations_; }
    void clear() { violations_.clear(); }

    /// Total 0x150/0x198 accesses inspected (driver + machine level).
    [[nodiscard]] std::uint64_t audited_accesses() const { return audited_; }

    void set_fatal(bool fatal) { config_.fatal = fatal; }
    [[nodiscard]] const MsrAuditorConfig& config() const { return config_; }

private:
    /// Machine-level inspection of a 0x150 write (any provenance).
    void audit_mailbox_write(unsigned core_id, std::uint64_t value, bool via_driver);
    void record(AuditKind kind, unsigned core, std::uint32_t addr, std::uint64_t value,
                std::string note);
    void record(AuditViolation violation);

    os::Kernel& kernel_;
    MsrAuditorConfig config_;
    /// config_.map compiled; only its raw (unguarded) class is read.
    std::optional<plugvolt::LimitTable> table_;
    std::vector<AuditViolation> violations_;
    std::size_t hook_token_ = 0;
    std::uint64_t audited_ = 0;
    /// Set between the driver-level on_wrmsr and the machine hook for
    /// the same 0x150 write; a machine-level write without it is forged.
    bool driver_write_in_flight_ = false;
};

}  // namespace pv::check
