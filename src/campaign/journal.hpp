// PlugVolt — cell-granular campaign write-ahead journal.
//
// The sweep journal (resilience/journal.hpp) made characterization rows
// durable; a campaign cube is the same crash-surface one level up — a
// full quick cube is hundreds of cells, each a multi-attempt attack
// run, and the daemon re-runs cubes continuously.  This journal extends
// the WAL to CELL granularity on the shared CRC framing (FrameLog):
//
//   file    := header-frame (cell-frame | attempt-frame)*
//   header  := LogIdentity{CampaignJournal::kFormat, config_hash}   (kind 1)
//   cell    := the full CampaignCellResult, bit-exact (doubles as bit
//              patterns, metrics snapshot included)              (kind 2)
//   attempt := cell_index:u64  attempts_failed:u32               (kind 3)
//
// The config_hash (CampaignEngine::config_hash) already covers the seed
// and every cube axis, so the header carries nothing else.
//
// A cell frame is committed when the cell completes (write-ahead:
// BEFORE the engine reports it); a resumed run adopts journaled cells
// verbatim and re-runs only the rest — bit-identical, because every
// cell is a pure function of (config, cell index).
//
// Attempt frames close the retry-stream resume gap: when a cell's
// machine dies mid-attempt the engine journals how many attempts have
// failed so far, so a resumed run fast-forwards the RetrySchedule past
// the journaled dead attempts instead of replaying them.  The final
// result is bit-identical either way (attempt outcomes are pure in
// (config, cell, attempt)); the frame makes the resumed run *do* the
// same remaining work and keeps `machine_rebuilds`/backoff accounting
// exact under FaultPlan-driven env-fault exhaustion.
//
// Attempt frames may be committed from worker threads (a sharded run
// retries inside the pool); all journal access is mutex-guarded.  The
// frame ORDER across threads is scheduling-dependent, but replay keys
// every frame by cell index, so the reconstructed state — and every
// fingerprint derived from it — is not.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"
#include "resilience/frames.hpp"
#include "util/flat_map.hpp"
#include "util/mutex.hpp"

namespace pv::campaign {

/// Cell-result codec, exposed for the round-trip tests.  The
/// payload carries every field campaign::fingerprint() mixes, doubles
/// as bit patterns — decode(encode(cell)) has an equal fingerprint.
[[nodiscard]] std::string encode_cell_payload(const CampaignCellResult& cell);
[[nodiscard]] bool decode_cell_payload(std::string_view payload,
                                       CampaignCellResult& cell);

/// The campaign WAL.  One instance owns one file.  commit_cell and
/// commit_attempt are thread-safe (sharded runs commit attempt frames
/// from pool workers); the read accessors snapshot under the same lock.
class CampaignJournal {
public:
    static constexpr std::uint32_t kFormat = 3;

    /// Open the journal at `path` for the campaign whose config_hash()
    /// is `config_hash`: a fresh journal when the file is absent,
    /// otherwise its cells and attempt counts (FrameLog::open — identity
    /// checked before replay, torn tail scrubbed).  Throws ConfigError on
    /// an identity mismatch, JournalError when the file has no valid
    /// header.
    [[nodiscard]] static CampaignJournal open(const std::string& path,
                                              std::uint64_t config_hash,
                                              resilience::JournalOptions options = {});

    /// Make one completed cell durable (write-ahead: the engine commits
    /// BEFORE reporting the cell).
    void commit_cell(const CampaignCellResult& cell);

    /// Record that `attempts_failed` attempts of cell `cell_index` have
    /// ended with a dead machine (monotonic per cell; the largest
    /// journaled value wins on replay).
    void commit_attempt(std::uint64_t cell_index, std::uint32_t attempts_failed);

    [[nodiscard]] resilience::LogIdentity identity() const;

    /// Completed cells durable in this journal, in commit order.
    [[nodiscard]] std::vector<CampaignCellResult> cells() const;
    /// Journaled dead-attempt count for one cell (0 when none recorded).
    [[nodiscard]] std::uint32_t attempts_failed(std::uint64_t cell_index) const;

private:
    CampaignJournal(resilience::FrameLog&& log, std::vector<CampaignCellResult>&& cells,
                    FlatMap<std::uint64_t, std::uint32_t>&& attempts);

    mutable Mutex mutex_;
    resilience::FrameLog log_ PV_GUARDED_BY(mutex_);
    std::vector<CampaignCellResult> cells_ PV_GUARDED_BY(mutex_);
    FlatMap<std::uint64_t, std::uint32_t> attempts_ PV_GUARDED_BY(mutex_);
};

}  // namespace pv::campaign
