// PlugVolt — small file-system I/O helpers with crash-safe writes.
//
// Everything this repo persists (characterization maps, campaign
// reports, traces, the sweep journal) is expensive to recompute; a crash
// mid-write must never leave a torn file where a good one used to be.
// atomic_write_file gives every writer the same discipline: write the
// full body to a temporary sibling, flush, then rename over the target —
// rename(2) is atomic within a filesystem, so readers observe either the
// old complete file or the new complete file, never a prefix.
// AppendFile is the other discipline, for append-only logs whose torn
// tails are scrubbed on replay: one descriptor held open for the log's
// lifetime, one write(2) loop per record.
#pragma once

#include <string>
#include <string_view>

namespace pv {

/// Read a whole file as bytes.  Throws IoError when the file cannot be
/// opened or read.
[[nodiscard]] std::string read_file(const std::string& path);

/// True when `path` names an existing, readable file.
[[nodiscard]] bool file_exists(const std::string& path);

/// Crash-safe whole-file write: body -> `path + ".tmp"` -> rename to
/// `path`.  Throws IoError on any failure (the temporary is removed on
/// a failed rename).
void atomic_write_file(const std::string& path, std::string_view body);

/// An owned append-only descriptor (O_WRONLY | O_APPEND | O_CLOEXEC) on
/// an existing file.  Move-only; a moved-from or default-constructed
/// AppendFile owns nothing, and the destructor closes what it owns.
class AppendFile {
public:
    AppendFile() = default;
    /// Open `path`, which must already exist.  Throws IoError.
    explicit AppendFile(const std::string& path);
    ~AppendFile();

    AppendFile(AppendFile&& other) noexcept;
    AppendFile& operator=(AppendFile&& other) noexcept;
    AppendFile(const AppendFile&) = delete;
    AppendFile& operator=(const AppendFile&) = delete;

    [[nodiscard]] bool is_open() const { return fd_ >= 0; }

    /// Append all of `bytes` with write(2), resuming after EINTR and
    /// short writes.  When it returns the bytes are in the OS page cache
    /// (no user-space buffer, no fsync).  Throws IoError, which may
    /// leave a prefix of `bytes` in the file.
    void append(std::string_view bytes) const;

private:
    int fd_ = -1;
    std::string path_;  // for error messages
};

}  // namespace pv
