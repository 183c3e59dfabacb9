// PlugVolt — trace event schema.
//
// One fixed-size binary record per observable: MSR traffic, OCM mailbox
// transactions, fault injections, poll iterations, safe-state rewrites,
// campaign cell boundaries, spans, environment faults and adaptive
// probes.  Every event is timestamped from the SIMULATOR'S VIRTUAL
// CLOCK (integer picoseconds), never from wall time — that is what makes
// a trace a pure function of (config, seed) and therefore bit-identical
// between a serial and a sharded run of the same workload.
#pragma once

#include <cstdint>

namespace pv::trace {

/// Typed event kinds.  Exports name a kind only through kind_name(), but
/// the numeric values are fingerprinted (the adaptive probe-stream
/// goldens mix them), so they never move: 9 and 13 stay retired.
enum class EventKind : std::uint8_t {
    MsrRead,           ///< driver-level rdmsr (fine level)
    MsrWrite,          ///< driver-level wrmsr (fine level)
    OcmTransaction,    ///< 0x150 mailbox command applied by the machine
    FaultInjected,     ///< undervolt fault(s) sampled into a workload
    PollIteration,     ///< one Algo. 3 poll body (fine level)
    SafeStateRewrite,  ///< polling module rewrote 0x150 to a safe state
    FreqClamp,         ///< polling module dropped a core's P-state
    CampaignCellBegin, ///< campaign cell started (span begin)
    CampaignCellEnd,   ///< campaign cell finished (span end)
    SpanBegin = 10,    ///< ScopedSpan opened
    SpanEnd,           ///< ScopedSpan closed
    Instant,           ///< generic point event (crash, reboot, detection)
    EnvFaultInjected = 14,  ///< resilience::FaultInjector fired (EIO, stale read, ...)
    RetryBackoff,      ///< a bounded retry waited its deterministic backoff
    JournalCommit,     ///< sweep journal made one row durable
    ProbeSelected,     ///< adaptive sweep chose its next (f, v) probe
    PosteriorUpdate,   ///< adaptive boundary posterior absorbed an observation
};

/// Stable human-readable tag for an event kind.
[[nodiscard]] const char* kind_name(EventKind kind);

/// One trace record.  `name` points at static storage (a string
/// literal); it is never owned by the event.
/// `a` and `b` are kind-specific payloads (MSR address/value, offset
/// bit patterns, core ids, ...).
struct Event {
    std::int64_t ts_ps = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    const char* name = "";
    EventKind kind = EventKind::Instant;
};

}  // namespace pv::trace
