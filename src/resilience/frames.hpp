// PlugVolt — CRC-framed WAL building blocks.
//
// The sweep journal (journal.hpp) proved out a crash-tolerant on-disk
// format: a header frame followed by record frames, each CRC-protected,
// with torn tails dropped on replay.  The serving daemon needs the same
// guarantees for two more logs (the campaign cell journal and the job
// queue WAL), so the framing lives here as a public, record-agnostic
// layer:
//
//   frame := magic:u16 ('P','V')  kind:u8  payload_len:u32  crc:u32  payload
//
// `FrameLog` is the generic append-only write-ahead log over that
// framing: one header frame whose payload is the log's identity, then
// any number of record frames.
//
//   header := format:u32  config_hash:u64                       (kind 1)
//
// `format` names the log type (sweep journal, campaign journal, job
// WAL); `config_hash` is the producing run's configuration fingerprint.
// Every log opens through FrameLog::open, which creates an absent file
// and resumes an existing one — checking the stored identity BEFORE any
// byte of the file moves.  Replay stops at the first frame that is torn
// (bad magic/length/CRC), has an unexpected kind, or fails the caller's
// payload validator — everything after is a crash artifact and is
// scrubbed from the file so later appends cannot land after garbage.
//
// Two commit modes (the write-amplification trade bench_recovery
// measures):
//   Append        — one write(2) per commit on a descriptor the log
//                   opens at its first append and holds until destroyed;
//   AtomicRewrite — rewrite the whole log through temp-file + rename per
//                   commit, so every on-disk state is a complete log.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "resilience/fault_injection.hpp"
#include "resilience/retry.hpp"
#include "util/fsio.hpp"

namespace pv::resilience {

constexpr std::size_t kFrameOverhead = 2 + 1 + 4 + 4;  // magic + kind + len + crc
/// Frames larger than this are rejected as corrupt rather than parsed
/// (a flipped length byte must not make the decoder swallow the file).
constexpr std::uint32_t kMaxFramePayload = 1u << 20;

/// Little-endian payload writers.  Doubles travel as bit patterns so
/// replayed records are bit-exact — the state_hash contract.
void put_u8(std::string& out, std::uint8_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_f64(std::string& out, double v);
/// Length-prefixed string: u32 byte count + raw bytes.
void put_str(std::string& out, std::string_view s);

/// Bounds-checked little-endian reader over one payload.  A read past
/// the end clears ok() and returns zero; decoders check ok() once at
/// the end instead of guarding every field.
class PayloadReader {
public:
    explicit PayloadReader(std::string_view bytes) : bytes_(bytes) {}

    [[nodiscard]] bool ok() const { return ok_; }
    [[nodiscard]] bool exhausted() const { return pos_ == bytes_.size(); }

    std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(take(4)); }
    std::uint64_t u64() { return take(8); }
    double f64();

    std::string str(std::size_t n);
    /// Length-prefixed counterpart of put_str.
    std::string str_lp() { return str(u32()); }

private:
    std::uint64_t take(std::size_t n);

    std::string_view bytes_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/// Wrap a payload in one CRC frame.
[[nodiscard]] std::string encode_frame(std::uint8_t kind, const std::string& payload);

/// One frame scanned off the head of `bytes`; valid == false means the
/// bytes at this position are not an intact frame (torn tail).
struct ScannedFrame {
    bool valid = false;
    std::uint8_t kind = 0;
    std::string_view payload;
    std::size_t size = 0;
};

[[nodiscard]] ScannedFrame scan_frame(std::string_view bytes);

/// Who wrote a log: the log type and the producing run's configuration.
/// This is the whole header payload of every log.
struct LogIdentity {
    /// One constant per log type.  0 is no type: a header payload that
    /// does not decode as an identity reads as format 0.  1 is no type
    /// either — it was the version field of every pre-identity header,
    /// so files in that format are refused as mismatches.
    std::uint32_t format = 0;
    std::uint64_t config_hash = 0;

    friend bool operator==(const LogIdentity&, const LogIdentity&) = default;
};

/// The one identity guard, shared by FrameLog::open and every engine
/// that is handed a journal.  Throws ConfigError naming `log` unless
/// `stored == expected`: adopting records written under another format
/// or configuration would silently corrupt the run.
void require_identity(const LogIdentity& stored, const LogIdentity& expected,
                      const std::string& log);

enum class CommitMode { Append, AtomicRewrite };

[[nodiscard]] const char* to_string(CommitMode mode);

struct JournalOptions {
    CommitMode mode = CommitMode::Append;
    /// Optional injected-fault source for commits (FileWriteError
    /// opportunities); not owned, may be nullptr.
    FaultInjector* file_faults = nullptr;
    /// Commit retry budget against injected file faults.
    RetryPolicy io_retry{};
    /// Jitter stream for the commit retries.
    std::uint64_t io_retry_seed = 0x10'FA17;
};

/// The generic CRC-framed append-only WAL.  One instance owns one file
/// (and, in Append mode, one descriptor on it), so it is move-only; a
/// moved-from log owns no descriptor.  Record semantics (what the
/// payload bytes mean) belong to the caller; this class owns
/// durability, torn-tail recovery, and fault-injected commit retry.
class FrameLog {
public:
    struct Frame {
        std::uint8_t kind = 0;
        std::string payload;

        friend bool operator==(const Frame&, const Frame&) = default;
    };

    /// The frame-kind contract of one log format (the header frame is
    /// always kind 1).  `accepted` lists the
    /// record kinds replay trusts; a CRC-valid frame of any other kind
    /// is treated as a torn tail (a crash can tear exactly at a frame
    /// boundary and leave bytes that happen to scan).  Empty = any kind.
    struct Kinds {
        std::vector<std::uint8_t> accepted{};
    };

    /// Replay-time record check, called once per record frame in file
    /// order: decode the payload (typed logs keep the decoded record
    /// here, so each frame is decoded once) or return false to treat the
    /// frame and everything after it as a torn tail.
    using FrameValidator = std::function<bool(std::uint8_t kind, std::string_view payload)>;

    /// Open the log at `path` for the run `identity` describes.  An absent
    /// file is created holding only the header frame, written atomically
    /// in both modes so a half-written header can never exist.  An
    /// existing file is resumed: its stored identity is checked first —
    /// a mismatch throws ConfigError and leaves the file byte-for-byte
    /// unchanged — then its record frames replay through `validate` and
    /// any torn tail is scrubbed.  Throws JournalError when an existing
    /// file has no valid header frame.
    [[nodiscard]] static FrameLog open(const std::string& path, Kinds kinds,
                                       const LogIdentity& identity,
                                       JournalOptions options = {},
                                       const FrameValidator& validate = {});

    /// Resume an existing log whatever its identity (for readers that
    /// only inspect frames); otherwise as open().
    [[nodiscard]] static FrameLog resume(const std::string& path, Kinds kinds,
                                         JournalOptions options = {},
                                         const FrameValidator& validate = {});

    /// Make one record durable (write-ahead: callers append BEFORE
    /// acting on the record): the frame is handed to the OS — in the page
    /// cache, never fsynced — before this returns.  Retries injected file
    /// faults up to the io_retry budget, then throws JournalError; a real
    /// file-system failure throws IoError.
    void append(std::uint8_t kind, const std::string& payload);

    [[nodiscard]] const LogIdentity& identity() const { return identity_; }
    /// Record frames durable in this log (replayed + appended), in
    /// commit order; the header frame is not included.
    [[nodiscard]] const std::vector<Frame>& frames() const { return frames_; }
    /// True when opening dropped a torn tail.
    [[nodiscard]] bool tail_dropped() const { return tail_dropped_; }

    /// I/O accounting: logical log size vs bytes actually written
    /// (write amplification) and fault retries.
    [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
    [[nodiscard]] std::uint64_t logical_bytes() const { return content_.size(); }
    [[nodiscard]] std::uint64_t io_retries() const { return io_retries_; }

private:
    FrameLog(std::string path, Kinds kinds, JournalOptions options);

    /// Write the header-only image of a fresh log.
    void create(const LogIdentity& identity);
    /// Load an existing log; `expected` (may be null) is checked before
    /// any record is read or any byte rewritten.
    void replay(const LogIdentity* expected, const FrameValidator& validate);

    /// Write `frame` durably per the commit mode, retrying injected
    /// faults; appends to content_ on success.
    void write_frame(const std::string& frame_bytes);

    std::string path_;
    Kinds kinds_;
    JournalOptions options_;
    LogIdentity identity_;
    std::vector<Frame> frames_;
    std::string content_;  // the valid byte image (logical log)
    AppendFile file_;      // Append mode: opened at the first append
    bool tail_dropped_ = false;
    std::uint64_t commits_ = 0;
    std::uint64_t bytes_written_ = 0;
    std::uint64_t io_retries_ = 0;
};

}  // namespace pv::resilience
