#include "resilience/frames.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "resilience/crc32.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"

namespace pv::resilience {
namespace {

constexpr char kMagic0 = 'P';
constexpr char kMagic1 = 'V';
constexpr std::uint8_t kHeaderKind = 1;

std::string encode_identity(const LogIdentity& identity) {
    std::string payload;
    put_u32(payload, identity.format);
    put_u64(payload, identity.config_hash);
    return payload;
}

/// A payload that is not exactly an identity reads as format 0, which no
/// log type uses, so it fails every identity check.
LogIdentity decode_identity(std::string_view payload) {
    PayloadReader r(payload);
    LogIdentity identity;
    identity.format = r.u32();
    identity.config_hash = r.u64();
    if (!r.ok() || !r.exhausted()) return {};
    return identity;
}

std::string describe(const LogIdentity& identity) {
    return "format " + std::to_string(identity.format) + ", config_hash " +
           std::to_string(identity.config_hash);
}

}  // namespace

void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u32(std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_f64(std::string& out, double v) { put_u64(out, std::bit_cast<std::uint64_t>(v)); }

void put_str(std::string& out, std::string_view s) {
    put_u32(out, static_cast<std::uint32_t>(s.size()));
    out += s;
}

double PayloadReader::f64() { return std::bit_cast<double>(take(8)); }

std::string PayloadReader::str(std::size_t n) {
    if (pos_ + n > bytes_.size()) {
        ok_ = false;
        return {};
    }
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
}

std::uint64_t PayloadReader::take(std::size_t n) {
    if (pos_ + n > bytes_.size()) {
        ok_ = false;
        return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
             << (8 * i);
    pos_ += n;
    return v;
}

std::string encode_frame(std::uint8_t kind, const std::string& payload) {
    std::string out;
    out.reserve(kFrameOverhead + payload.size());
    out.push_back(kMagic0);
    out.push_back(kMagic1);
    put_u8(out, kind);
    put_u32(out, static_cast<std::uint32_t>(payload.size()));
    put_u32(out, crc32(payload));
    out += payload;
    return out;
}

ScannedFrame scan_frame(std::string_view bytes) {
    ScannedFrame f;
    if (bytes.size() < kFrameOverhead) return f;
    if (bytes[0] != kMagic0 || bytes[1] != kMagic1) return f;
    const auto kind = static_cast<std::uint8_t>(bytes[2]);
    std::uint32_t len = 0;
    for (std::size_t i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[3 + i]))
               << (8 * i);
    std::uint32_t crc = 0;
    for (std::size_t i = 0; i < 4; ++i)
        crc |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[7 + i]))
               << (8 * i);
    if (len > kMaxFramePayload || kFrameOverhead + len > bytes.size()) return f;
    const std::string_view payload = bytes.substr(kFrameOverhead, len);
    if (crc32(payload) != crc) return f;
    f.valid = true;
    f.kind = kind;
    f.payload = payload;
    f.size = kFrameOverhead + len;
    return f;
}

const char* to_string(CommitMode mode) {
    switch (mode) {
        case CommitMode::Append: return "append";
        case CommitMode::AtomicRewrite: return "atomic-rewrite";
    }
    return "?";
}

void require_identity(const LogIdentity& stored, const LogIdentity& expected,
                      const std::string& log) {
    if (stored == expected) return;
    throw ConfigError(log + " belongs to a different " +
                      (stored.format == expected.format ? "configuration" : "log format") +
                      " (" + describe(stored) + "; expected " + describe(expected) + ")");
}

FrameLog::FrameLog(std::string path, Kinds kinds, JournalOptions options)
    : path_(std::move(path)), kinds_(std::move(kinds)), options_(options) {
    options_.io_retry.validate();
}

FrameLog FrameLog::open(const std::string& path, Kinds kinds, const LogIdentity& identity,
                        JournalOptions options, const FrameValidator& validate) {
    FrameLog log(path, std::move(kinds), options);
    if (file_exists(path))
        log.replay(&identity, validate);
    else
        log.create(identity);
    return log;
}

FrameLog FrameLog::resume(const std::string& path, Kinds kinds, JournalOptions options,
                          const FrameValidator& validate) {
    FrameLog log(path, std::move(kinds), options);
    log.replay(nullptr, validate);
    return log;
}

void FrameLog::create(const LogIdentity& identity) {
    // The initial image is written unconditionally (creating the log is
    // the caller's decision to start a run, not a mid-run commit),
    // atomically in both modes so a half-written header can never exist.
    identity_ = identity;
    content_ = encode_frame(kHeaderKind, encode_identity(identity_));
    atomic_write_file(path_, content_);
    bytes_written_ += content_.size();
}

void FrameLog::replay(const LogIdentity* expected, const FrameValidator& validate) {
    const std::string bytes = read_file(path_);
    const ScannedFrame head = scan_frame(bytes);
    if (!head.valid || head.kind != kHeaderKind)
        throw JournalError("no valid header frame in " + path_);
    identity_ = decode_identity(head.payload);
    // Identity first: a log of another type or run must be refused before
    // its records are decoded or its tail is scrubbed.
    if (expected != nullptr) require_identity(identity_, *expected, path_);
    std::size_t pos = head.size;
    while (pos < bytes.size()) {
        const ScannedFrame f = scan_frame(std::string_view(bytes).substr(pos));
        if (!f.valid) break;  // torn tail from here on
        if (!kinds_.accepted.empty() &&
            std::find(kinds_.accepted.begin(), kinds_.accepted.end(), f.kind) ==
                kinds_.accepted.end())
            break;
        if (validate && !validate(f.kind, f.payload)) break;  // CRC collided with garbage
        frames_.push_back(Frame{f.kind, std::string(f.payload)});
        pos += f.size;
    }
    tail_dropped_ = pos < bytes.size();
    content_ = bytes.substr(0, pos);
    if (tail_dropped_) {
        // Scrub the torn bytes so Append-mode commits land after the
        // last intact frame, not after garbage the decoder would stop at.
        atomic_write_file(path_, content_);
        bytes_written_ += content_.size();
    }
}

void FrameLog::write_frame(const std::string& frame_bytes) {
    RetrySchedule sched(options_.io_retry, mix_seed(options_.io_retry_seed, commits_));
    while (sched.next_attempt()) {
        if (sched.attempts() > 1) ++io_retries_;
        if (options_.file_faults != nullptr &&
            options_.file_faults->should_inject(FaultKind::FileWriteError)) {
            PV_TRACE_EVENT(trace::EventKind::EnvFaultInjected, "journal-write-fault", 0,
                           static_cast<std::uint64_t>(FaultKind::FileWriteError),
                           commits_);
            continue;
        }
        if (options_.mode == CommitMode::AtomicRewrite) {
            atomic_write_file(path_, content_ + frame_bytes);
            bytes_written_ += content_.size() + frame_bytes.size();
        } else {
            // Opened lazily: create() or the replay scrub has already put
            // the file in place, and neither replaces it afterwards.
            if (!file_.is_open()) file_ = AppendFile(path_);
            file_.append(frame_bytes);
            bytes_written_ += frame_bytes.size();
        }
        content_ += frame_bytes;
        return;
    }
    throw JournalError("commit to " + path_ + " failed after " +
                       std::to_string(options_.io_retry.max_attempts) + " attempts");
}

void FrameLog::append(std::uint8_t kind, const std::string& payload) {
    write_frame(encode_frame(kind, payload));
    frames_.push_back(Frame{kind, payload});
    ++commits_;
}

}  // namespace pv::resilience
