#include "resilience/journal.hpp"

#include <utility>

#include "trace/trace.hpp"

namespace pv::resilience {
namespace {

constexpr std::uint8_t kRowKind = 2;

std::string encode_row_payload(const RowRecord& record) {
    std::string payload;
    put_u64(payload, record.row_index);
    put_f64(payload, record.freq_mhz);
    put_f64(payload, record.onset_mv);
    put_f64(payload, record.crash_mv);
    put_u8(payload, record.fault_free ? 1 : 0);
    put_u64(payload, record.cells);
    put_u64(payload, record.crashes);
    return payload;
}

bool decode_row_payload(std::string_view payload, RowRecord& rec) {
    PayloadReader r(payload);
    rec.row_index = r.u64();
    rec.freq_mhz = r.f64();
    rec.onset_mv = r.f64();
    rec.crash_mv = r.f64();
    rec.fault_free = r.u8() != 0;
    rec.cells = r.u64();
    rec.crashes = r.u64();
    return r.ok() && r.exhausted();
}

}  // namespace

SweepJournal::SweepJournal(FrameLog&& log, std::vector<RowRecord>&& rows)
    : log_(std::move(log)), rows_(std::move(rows)) {}

SweepJournal SweepJournal::open(const std::string& path, std::uint64_t config_hash,
                                JournalOptions options) {
    // A row frame whose CRC collided with garbage fails its decode and
    // starts the torn tail.
    std::vector<RowRecord> rows;
    FrameLog log = FrameLog::open(path, FrameLog::Kinds{{kRowKind}},
                                  LogIdentity{kFormat, config_hash}, options,
                                  [&rows](std::uint8_t, std::string_view payload) {
                                      RowRecord rec;
                                      if (!decode_row_payload(payload, rec)) return false;
                                      rows.push_back(rec);
                                      return true;
                                  });
    return SweepJournal(std::move(log), std::move(rows));
}

void SweepJournal::commit(const RowRecord& record) {
    log_.append(kRowKind, encode_row_payload(record));
    rows_.push_back(record);
    PV_TRACE_EVENT(trace::EventKind::JournalCommit, "journal-commit", 0,
                   record.row_index, log_.logical_bytes());
}

}  // namespace pv::resilience
