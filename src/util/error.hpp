// PlugVolt — error types.
//
// Configuration and programming errors throw; domain outcomes (a fault, a
// crash, an attestation failure) are values, never exceptions.
#pragma once

#include <stdexcept>
#include <string>

namespace pv {

/// Base class for all PlugVolt errors.
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a component is constructed or used with inconsistent
/// configuration (e.g. a frequency outside the profile's table).
class ConfigError : public Error {
public:
    explicit ConfigError(const std::string& what) : Error("config error: " + what) {}
};

/// Thrown when a simulation invariant is violated — always a bug in the
/// caller or the simulator, never an expected runtime condition.
class SimError : public Error {
public:
    explicit SimError(const std::string& what) : Error("simulation error: " + what) {}
};

/// Thrown on real file-system failures (open/write/rename) by the fsio
/// helpers and their users.  Domain-level "the environment is flaky"
/// outcomes stay values (os::MsrStatus); this is for the host FS.
class IoError : public Error {
public:
    explicit IoError(const std::string& what) : Error("io error: " + what) {}
};

/// Thrown by the legacy throwing MSR driver API when an (injected)
/// environment fault exhausts the caller's patience — the software
/// analogue of EIO from /dev/cpu/*/msr.  Callers that can retry use the
/// non-throwing try_* API and os::MsrStatus instead.
class DriverError : public Error {
public:
    explicit DriverError(const std::string& what) : Error("driver error: " + what) {}
};

/// Thrown when a write-ahead log cannot make a record durable within its
/// retry budget against injected file faults, or when a log file has no
/// valid header.  Real file-system failures are IoError.
class JournalError : public Error {
public:
    explicit JournalError(const std::string& what) : Error("journal error: " + what) {}
};

}  // namespace pv
