#include "campaign/journal.hpp"

#include <algorithm>
#include <utility>

#include "trace/trace.hpp"

namespace pv::campaign {
namespace {

constexpr std::uint8_t kCellKind = 2;
constexpr std::uint8_t kAttemptKind = 3;

using resilience::FrameLog;
using resilience::PayloadReader;
using resilience::put_f64;
using resilience::put_str;
using resilience::put_u32;
using resilience::put_u64;
using resilience::put_u8;

void encode_metrics(std::string& payload, const trace::MetricsSnapshot& metrics) {
    put_u32(payload, static_cast<std::uint32_t>(metrics.size()));
    for (const auto& [name, v] : metrics.values()) {
        put_str(payload, name);
        put_u8(payload, static_cast<std::uint8_t>(v.kind));
        put_u64(payload, v.count);
        put_f64(payload, v.value);
        put_u32(payload, static_cast<std::uint32_t>(v.bounds.size()));
        for (const double b : v.bounds) put_f64(payload, b);
        put_u32(payload, static_cast<std::uint32_t>(v.buckets.size()));
        for (const std::uint64_t c : v.buckets) put_u64(payload, c);
    }
}

bool decode_metrics(PayloadReader& r, trace::MetricsSnapshot& metrics) {
    const std::uint32_t entries = r.u32();
    for (std::uint32_t i = 0; i < entries && r.ok(); ++i) {
        const std::string name = r.str_lp();
        trace::MetricValue v;
        v.kind = static_cast<trace::MetricValue::Kind>(r.u8());
        v.count = r.u64();
        v.value = r.f64();
        const std::uint32_t n_bounds = r.u32();
        if (!r.ok()) return false;
        v.bounds.reserve(n_bounds);
        for (std::uint32_t b = 0; b < n_bounds && r.ok(); ++b) v.bounds.push_back(r.f64());
        const std::uint32_t n_buckets = r.u32();
        if (!r.ok()) return false;
        v.buckets.reserve(n_buckets);
        for (std::uint32_t b = 0; b < n_buckets && r.ok(); ++b)
            v.buckets.push_back(r.u64());
        metrics.set(name, std::move(v));
    }
    return r.ok();
}

std::string encode_attempt_payload(std::uint64_t cell_index,
                                   std::uint32_t attempts_failed) {
    std::string payload;
    put_u64(payload, cell_index);
    put_u32(payload, attempts_failed);
    return payload;
}

bool decode_attempt_payload(std::string_view payload, std::uint64_t& cell_index,
                            std::uint32_t& attempts_failed) {
    PayloadReader r(payload);
    cell_index = r.u64();
    attempts_failed = r.u32();
    return r.ok() && r.exhausted();
}

}  // namespace

std::string encode_cell_payload(const CampaignCellResult& cell) {
    std::string payload;
    put_u64(payload, static_cast<std::uint64_t>(cell.spec.index));
    put_u8(payload, static_cast<std::uint8_t>(cell.spec.attack));
    put_u8(payload, static_cast<std::uint8_t>(cell.spec.defense));
    put_u64(payload, static_cast<std::uint64_t>(cell.spec.profile_index));
    put_u64(payload, cell.spec.seed);
    put_str(payload, cell.profile_name);
    const attack::AttackResult& r = cell.attack_result;
    put_str(payload, r.attack_name);
    put_u64(payload, r.faults_observed);
    put_u8(payload, r.weaponized ? 1 : 0);
    put_str(payload, r.weaponization);
    put_u32(payload, r.crashes);
    put_u64(payload, r.writes_attempted);
    put_u64(payload, r.writes_effective);
    put_u64(payload, static_cast<std::uint64_t>(r.started.value()));
    put_u64(payload, static_cast<std::uint64_t>(r.finished.value()));
    put_str(payload, r.notes);
    put_u8(payload, cell.polling.has_value() ? 1 : 0);
    if (cell.polling) {
        const plugvolt::PollingMetrics& p = *cell.polling;
        put_u64(payload, p.polls);
        put_u64(payload, p.detections);
        put_u64(payload, p.restore_writes);
        put_u64(payload, p.freq_drops);
        put_u64(payload, p.rail_watch_detections);
        put_u64(payload, p.read_retries);
        put_u64(payload, p.write_retries);
        put_u64(payload, p.stale_reads);
        put_u64(payload, p.missed_polls);
        put_u64(payload, p.fail_closed_clamps);
        put_u64(payload, static_cast<std::uint64_t>(p.last_detection.value()));
    }
    put_u64(payload, cell.audit_violations);
    put_u64(payload, cell.audited_accesses);
    put_u64(payload, cell.machine_state_hash);
    put_u32(payload, cell.attempts);
    put_u32(payload, cell.machine_rebuilds);
    put_str(payload, cell.verdict);
    encode_metrics(payload, cell.metrics);
    return payload;
}

bool decode_cell_payload(std::string_view payload, CampaignCellResult& cell) {
    PayloadReader r(payload);
    cell = CampaignCellResult{};
    cell.spec.index = static_cast<std::size_t>(r.u64());
    cell.spec.attack = static_cast<AttackKind>(r.u8());
    cell.spec.defense = static_cast<DefenseKind>(r.u8());
    cell.spec.profile_index = static_cast<std::size_t>(r.u64());
    cell.spec.seed = r.u64();
    cell.profile_name = r.str_lp();
    attack::AttackResult& ar = cell.attack_result;
    ar.attack_name = r.str_lp();
    ar.faults_observed = r.u64();
    ar.weaponized = r.u8() != 0;
    ar.weaponization = r.str_lp();
    ar.crashes = r.u32();
    ar.writes_attempted = r.u64();
    ar.writes_effective = r.u64();
    ar.started = Picoseconds{static_cast<std::int64_t>(r.u64())};
    ar.finished = Picoseconds{static_cast<std::int64_t>(r.u64())};
    ar.notes = r.str_lp();
    if (r.u8() != 0) {
        plugvolt::PollingMetrics p;
        p.polls = r.u64();
        p.detections = r.u64();
        p.restore_writes = r.u64();
        p.freq_drops = r.u64();
        p.rail_watch_detections = r.u64();
        p.read_retries = r.u64();
        p.write_retries = r.u64();
        p.stale_reads = r.u64();
        p.missed_polls = r.u64();
        p.fail_closed_clamps = r.u64();
        p.last_detection = Picoseconds{static_cast<std::int64_t>(r.u64())};
        cell.polling = p;
    }
    cell.audit_violations = r.u64();
    cell.audited_accesses = r.u64();
    cell.machine_state_hash = r.u64();
    cell.attempts = r.u32();
    cell.machine_rebuilds = r.u32();
    cell.verdict = r.str_lp();
    if (!decode_metrics(r, cell.metrics)) return false;
    return r.ok() && r.exhausted();
}

CampaignJournal::CampaignJournal(resilience::FrameLog&& log,
                                 std::vector<CampaignCellResult>&& cells,
                                 FlatMap<std::uint64_t, std::uint32_t>&& attempts)
    : log_(std::move(log)), cells_(std::move(cells)), attempts_(std::move(attempts)) {}

CampaignJournal CampaignJournal::open(const std::string& path, std::uint64_t config_hash,
                                      resilience::JournalOptions options) {
    // Each frame decodes once, here; a frame whose CRC collided with
    // garbage fails its decode and starts the torn tail.
    std::vector<CampaignCellResult> cells;
    FlatMap<std::uint64_t, std::uint32_t> attempts;
    const auto adopt = [&](std::uint8_t kind, std::string_view payload) {
        if (kind == kCellKind) {
            CampaignCellResult cell;
            if (!decode_cell_payload(payload, cell)) return false;
            cells.push_back(std::move(cell));
            return true;
        }
        std::uint64_t index = 0;
        std::uint32_t failed = 0;
        if (!decode_attempt_payload(payload, index, failed)) return false;
        std::uint32_t& slot = attempts[index];
        slot = std::max(slot, failed);
        return true;
    };
    FrameLog log = FrameLog::open(path, FrameLog::Kinds{{kCellKind, kAttemptKind}},
                                  resilience::LogIdentity{kFormat, config_hash}, options,
                                  adopt);
    return CampaignJournal(std::move(log), std::move(cells), std::move(attempts));
}

void CampaignJournal::commit_cell(const CampaignCellResult& cell) {
    MutexLock lock(mutex_);
    log_.append(kCellKind, encode_cell_payload(cell));
    cells_.push_back(cell);
    PV_TRACE_EVENT(trace::EventKind::JournalCommit, "campaign-cell-commit", 0,
                   static_cast<std::uint64_t>(cell.spec.index), log_.logical_bytes());
}

void CampaignJournal::commit_attempt(std::uint64_t cell_index,
                                     std::uint32_t attempts_failed) {
    MutexLock lock(mutex_);
    log_.append(kAttemptKind, encode_attempt_payload(cell_index, attempts_failed));
    std::uint32_t& slot = attempts_[cell_index];
    slot = std::max(slot, attempts_failed);
}

resilience::LogIdentity CampaignJournal::identity() const {
    MutexLock lock(mutex_);
    return log_.identity();
}

std::vector<CampaignCellResult> CampaignJournal::cells() const {
    MutexLock lock(mutex_);
    return cells_;
}

std::uint32_t CampaignJournal::attempts_failed(std::uint64_t cell_index) const {
    MutexLock lock(mutex_);
    const auto it = attempts_.find(cell_index);
    return it == attempts_.end() ? 0 : it->second;
}

}  // namespace pv::campaign
