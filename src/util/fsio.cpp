#include "util/fsio.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace pv {

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw IoError("cannot open " + path + " for reading");
    std::ostringstream body;
    body << in.rdbuf();
    if (in.bad()) throw IoError("read failed on " + path);
    return std::move(body).str();
}

bool file_exists(const std::string& path) {
    return std::ifstream(path, std::ios::binary).good();
}

void atomic_write_file(const std::string& path, std::string_view body) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) throw IoError("cannot open " + tmp + " for writing");
        out.write(body.data(), static_cast<std::streamsize>(body.size()));
        out.flush();
        if (!out) throw IoError("write failed on " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw IoError("rename " + tmp + " -> " + path + " failed");
    }
}

AppendFile::AppendFile(const std::string& path)
    : fd_(::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC)), path_(path) {
    if (fd_ < 0)
        throw IoError("cannot open " + path + " for appending: " + std::strerror(errno));
}

AppendFile::~AppendFile() {
    if (fd_ >= 0) ::close(fd_);
}

AppendFile::AppendFile(AppendFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

AppendFile& AppendFile::operator=(AppendFile&& other) noexcept {
    if (this != &other) {
        if (fd_ >= 0) ::close(fd_);
        fd_ = std::exchange(other.fd_, -1);
        path_ = std::move(other.path_);
    }
    return *this;
}

void AppendFile::append(std::string_view bytes) const {
    while (!bytes.empty()) {
        const ssize_t n = ::write(fd_, bytes.data(), bytes.size());
        if (n < 0) {
            if (errno == EINTR) continue;
            throw IoError("append failed on " + path_ + ": " + std::strerror(errno));
        }
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
}

}  // namespace pv
