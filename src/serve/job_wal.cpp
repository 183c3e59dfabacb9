#include "serve/job_wal.hpp"

#include <algorithm>
#include <utility>

namespace pv::serve {
namespace {

constexpr std::uint8_t kSubmittedKind = 2;
constexpr std::uint8_t kStartedKind = 3;
constexpr std::uint8_t kAttemptFailedKind = 4;
constexpr std::uint8_t kFinishedKind = 5;
constexpr std::uint8_t kRejectedKind = 6;

using resilience::FrameLog;
using resilience::PayloadReader;
using resilience::put_f64;
using resilience::put_str;
using resilience::put_u32;
using resilience::put_u64;
using resilience::put_u8;

std::string encode_id_payload(std::uint64_t id) {
    std::string payload;
    put_u64(payload, id);
    return payload;
}

bool decode_id_payload(std::string_view payload, std::uint64_t& id) {
    PayloadReader r(payload);
    id = r.u64();
    return r.ok() && r.exhausted();
}

std::string encode_attempt_payload(std::uint64_t id, std::uint32_t attempts) {
    std::string payload;
    put_u64(payload, id);
    put_u32(payload, attempts);
    return payload;
}

bool decode_attempt_payload(std::string_view payload, std::uint64_t& id,
                            std::uint32_t& attempts) {
    PayloadReader r(payload);
    id = r.u64();
    attempts = r.u32();
    return r.ok() && r.exhausted();
}

std::string encode_finished_payload(const JobRecord& record) {
    std::string payload;
    put_u64(payload, record.id);
    put_u8(payload, static_cast<std::uint8_t>(record.state));
    put_u64(payload, record.result_fingerprint);
    put_u32(payload, record.attempts);
    put_u64(payload, record.progress_units);
    put_str(payload, record.detail);
    return payload;
}

bool decode_finished_payload(std::string_view payload, JobRecord& record) {
    PayloadReader r(payload);
    record.id = r.u64();
    record.state = static_cast<JobState>(r.u8());
    record.result_fingerprint = r.u64();
    record.attempts = r.u32();
    record.progress_units = r.u64();
    record.detail = r.str_lp();
    return r.ok() && r.exhausted();
}

}  // namespace

std::string encode_spec_payload(std::uint64_t id, const JobSpec& spec) {
    std::string payload;
    put_u64(payload, id);
    put_u8(payload, static_cast<std::uint8_t>(spec.kind));
    put_u64(payload, spec.seed);
    put_u64(payload, spec.profile_index);
    put_f64(payload, spec.char_step_mv);
    put_u8(payload, spec.sweep_mode);
    put_u64(payload, spec.units);
    put_u64(payload, spec.deadline_units);
    put_u64(payload, spec.campaign_attacks);
    put_u64(payload, spec.campaign_defenses);
    put_u32(payload, spec.inject_fail_attempts);
    return payload;
}

bool decode_spec_payload(std::string_view payload, std::uint64_t& id, JobSpec& spec) {
    PayloadReader r(payload);
    spec = JobSpec{};
    id = r.u64();
    spec.kind = static_cast<JobKind>(r.u8());
    spec.seed = r.u64();
    spec.profile_index = r.u64();
    spec.char_step_mv = r.f64();
    spec.sweep_mode = r.u8();
    spec.units = r.u64();
    spec.deadline_units = r.u64();
    spec.campaign_attacks = r.u64();
    spec.campaign_defenses = r.u64();
    spec.inject_fail_attempts = r.u32();
    return r.ok() && r.exhausted();
}

JobWal::JobWal(resilience::FrameLog&& log, std::vector<JobRecord>&& records,
               std::uint64_t next_id)
    : log_(std::move(log)), records_(std::move(records)), next_id_(next_id) {}

JobWal JobWal::open(const std::string& path, std::uint64_t config_hash,
                    resilience::JournalOptions options) {
    // Replay keyed by id; the sorted FlatMap yields id-ordered records.
    // Each frame decodes once, here; a frame whose CRC collided with
    // garbage fails its decode and starts the torn tail.
    FlatMap<std::uint64_t, JobRecord> replay;
    std::uint64_t next_id = 1;
    const auto adopt = [&](std::uint8_t kind, std::string_view payload) {
        std::uint64_t id = 0;
        switch (kind) {
            case kSubmittedKind: {
                JobSpec spec;
                if (!decode_spec_payload(payload, id, spec)) return false;
                JobRecord& record = replay[id];
                record.id = id;
                record.spec = spec;
                record.state = JobState::Queued;
                next_id = std::max(next_id, id + 1);
                return true;
            }
            case kRejectedKind:
                if (!decode_id_payload(payload, id)) return false;
                replay[id].state = JobState::Rejected;
                return true;
            case kStartedKind:
                // An execution began; without a finished frame the job
                // replays as Queued and is re-run on resume.
                return decode_id_payload(payload, id);
            case kAttemptFailedKind: {
                std::uint32_t attempts = 0;
                if (!decode_attempt_payload(payload, id, attempts)) return false;
                JobRecord& record = replay[id];
                record.attempts = std::max(record.attempts, attempts);
                return true;
            }
            case kFinishedKind: {
                JobRecord record;
                if (!decode_finished_payload(payload, record)) return false;
                record.spec = replay[record.id].spec;
                replay[record.id] = std::move(record);
                return true;
            }
            default: return false;
        }
    };
    FrameLog log = FrameLog::open(path,
                                  FrameLog::Kinds{{kSubmittedKind, kStartedKind,
                                                   kAttemptFailedKind, kFinishedKind,
                                                   kRejectedKind}},
                                  resilience::LogIdentity{kFormat, config_hash}, options,
                                  adopt);
    std::vector<JobRecord> records;
    records.reserve(replay.size());
    for (auto& [id, record] : replay) records.push_back(std::move(record));
    return JobWal(std::move(log), std::move(records), next_id);
}

void JobWal::submitted(std::uint64_t id, const JobSpec& spec) {
    log_.append(kSubmittedKind, encode_spec_payload(id, spec));
    next_id_ = std::max(next_id_, id + 1);
}

void JobWal::rejected(std::uint64_t id) {
    log_.append(kRejectedKind, encode_id_payload(id));
}

void JobWal::started(std::uint64_t id) {
    log_.append(kStartedKind, encode_id_payload(id));
}

void JobWal::attempt_failed(std::uint64_t id, std::uint32_t attempts) {
    log_.append(kAttemptFailedKind, encode_attempt_payload(id, attempts));
}

void JobWal::finished(const JobRecord& record) {
    log_.append(kFinishedKind, encode_finished_payload(record));
}

}  // namespace pv::serve
