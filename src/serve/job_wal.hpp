// PlugVolt — the daemon's job-queue write-ahead log.
//
// Same CRC-framed format as every journal in src/resilience (FrameLog):
// a header frame holds the log identity (JobWal::kFormat and the
// daemon's config hash), then one frame per queue transition, appended
// BEFORE the in-memory state changes.  kill -9 at
// any byte boundary leaves at worst a torn tail, which open() drops
// and scrubs; everything before it replays into the exact queue the
// killed daemon had made durable.
//
// Frame kinds:
//   1 header         LogIdentity (format, daemon config hash)
//   2 submitted      id + the full JobSpec
//   3 started        id              (an execution began)
//   4 attempt_failed id, attempts    (cumulative failed executions)
//   5 finished       id, terminal state, fingerprint, attempts, units, detail
//   6 rejected       id              (admission control said no)
//
// Replay semantics: a `started` frame without a matching `finished`
// means the daemon died mid-execution — the job replays as Queued and is
// re-run on resume, where its own engine journal (cell/row granularity)
// fast-forwards the work already made durable.  `attempt_failed` frames
// replay max-wins, so a resumed job re-enters its retry loop at the same
// execution index an uninterrupted run would be at.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "resilience/frames.hpp"
#include "serve/job.hpp"
#include "util/flat_map.hpp"

namespace pv::serve {

/// Submit-frame payload codec, exposed for the WAL tests.
[[nodiscard]] std::string encode_spec_payload(std::uint64_t id, const JobSpec& spec);
[[nodiscard]] bool decode_spec_payload(std::string_view payload, std::uint64_t& id,
                                       JobSpec& spec);

/// The queue WAL.  NOT thread-safe: the daemon serializes every append
/// under its own mutex.  Throws JournalError / IoError like the other
/// journals (see resilience/frames.hpp).
class JobWal {
public:
    static constexpr std::uint32_t kFormat = 4;

    /// Open the WAL at `path` for the daemon whose config hash is
    /// `config_hash`: a fresh WAL when the file is absent, otherwise the
    /// replayed queue (FrameLog::open — identity checked before replay,
    /// torn tail dropped and scrubbed).  Throws ConfigError on an
    /// identity mismatch.
    [[nodiscard]] static JobWal open(const std::string& path, std::uint64_t config_hash,
                                     resilience::JournalOptions options = {});

    void submitted(std::uint64_t id, const JobSpec& spec);
    void rejected(std::uint64_t id);
    void started(std::uint64_t id);
    void attempt_failed(std::uint64_t id, std::uint32_t attempts);
    void finished(const JobRecord& record);

    [[nodiscard]] const resilience::LogIdentity& identity() const { return log_.identity(); }

    /// The queue replayed when the WAL was opened, in job-id order
    /// (appends after that do not update it); terminal jobs carry their
    /// journaled fingerprint, unfinished ones replay as Queued.
    [[nodiscard]] const std::vector<JobRecord>& records() const { return records_; }

    /// One past the highest journaled job id (1 on an empty WAL).
    [[nodiscard]] std::uint64_t next_id() const { return next_id_; }

    [[nodiscard]] bool tail_dropped() const { return log_.tail_dropped(); }

private:
    JobWal(resilience::FrameLog&& log, std::vector<JobRecord>&& records,
           std::uint64_t next_id);

    resilience::FrameLog log_;
    std::vector<JobRecord> records_;
    std::uint64_t next_id_ = 1;
};

}  // namespace pv::serve
