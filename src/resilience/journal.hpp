// PlugVolt — write-ahead sweep journal.
//
// A real Algorithm 2 characterization is a sequence of crash-reboot
// cycles (deep offsets kill the machine — that is the *point* of the
// sweep), so losing all progress on a crash is not an edge case, it is
// the common case.  The journal makes every completed frequency row
// durable before the sweep moves on; after a crash, the resumed sweep
// adopts journaled rows verbatim and recomputes only the rest, and the
// per-cell seeding scheme guarantees the final map is bit-identical to
// an uninterrupted run's.
//
// On-disk format, built on the generic CRC framing in frames.hpp
// (frame := magic:u16 kind:u8 payload_len:u32 crc:u32 payload, torn
// tails dropped and scrubbed on resume):
//
//   file   := header-frame row-frame*
//   header := LogIdentity{SweepJournal::kFormat, config_hash}   (kind = 1)
//   row    := row_index:u64  freq_mhz:f64  onset_mv:f64  crash_mv:f64
//             fault_free:u8  cells:u64  crashes:u64           (kind = 2)
//
// The config_hash (ParallelCharacterizer::config_hash, or the fleet's)
// already covers the seed, sweep floor and profile, so the header
// carries nothing else.
//
// Commit modes and fault-injected retry live in FrameLog (frames.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "resilience/fault_injection.hpp"
#include "resilience/frames.hpp"
#include "resilience/retry.hpp"

namespace pv::resilience {

/// One journaled frequency row: the characterization result plus the
/// probe-cost counters (so resumed sweeps report honest statistics).
struct RowRecord {
    std::uint64_t row_index = 0;
    double freq_mhz = 0.0;
    double onset_mv = 0.0;
    double crash_mv = 0.0;
    bool fault_free = false;
    std::uint64_t cells = 0;
    std::uint64_t crashes = 0;

    friend bool operator==(const RowRecord&, const RowRecord&) = default;
};

/// The write-ahead journal.  One instance owns one file.
class SweepJournal {
public:
    static constexpr std::uint32_t kFormat = 2;

    /// Open the journal at `path` for the sweep whose config_hash() is
    /// `config_hash`: a fresh journal when the file is absent, otherwise
    /// the rows already durable in it (FrameLog::open — identity checked
    /// before replay, torn tail scrubbed).  Throws ConfigError on an
    /// identity mismatch, JournalError when the file has no valid header.
    [[nodiscard]] static SweepJournal open(const std::string& path,
                                           std::uint64_t config_hash,
                                           JournalOptions options = {});

    /// Make one completed row durable (write-ahead: callers commit
    /// BEFORE acting on the row).  Retries injected file faults up to
    /// the io_retry budget, then throws JournalError.
    void commit(const RowRecord& record);

    [[nodiscard]] const LogIdentity& identity() const { return log_.identity(); }
    /// Rows durable in this journal (replayed + committed), in commit order.
    [[nodiscard]] const std::vector<RowRecord>& rows() const { return rows_; }
    /// True when open() dropped a torn tail.
    [[nodiscard]] bool tail_dropped() const { return log_.tail_dropped(); }

    /// I/O accounting for bench_recovery: logical journal size vs bytes
    /// actually written (write amplification) and fault retries.
    [[nodiscard]] std::uint64_t bytes_written() const { return log_.bytes_written(); }
    [[nodiscard]] std::uint64_t logical_bytes() const { return log_.logical_bytes(); }
    [[nodiscard]] std::uint64_t io_retries() const { return log_.io_retries(); }

private:
    SweepJournal(FrameLog&& log, std::vector<RowRecord>&& rows);

    FrameLog log_;
    std::vector<RowRecord> rows_;
};

}  // namespace pv::resilience
