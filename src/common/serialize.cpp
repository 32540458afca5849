#include "common/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace orco::common {

void write_file(const std::string& path, std::span<const std::byte> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("short write: " + path);
}

namespace {

/// Removes the temp file and throws — the shared failure exit of
/// write_file_atomic before the rename.
[[noreturn]] void fail_atomic_write(int fd, const std::string& tmp,
                                    const std::string& what) {
  if (fd >= 0) ::close(fd);
  std::remove(tmp.c_str());
  throw std::runtime_error(what + tmp);
}

}  // namespace

void write_file_atomic(const std::string& path,
                       std::span<const std::byte> bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) throw std::runtime_error("cannot open for write: " + tmp);
  const char* data = reinterpret_cast<const char*>(bytes.data());
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) fail_atomic_write(fd, tmp, "short write: ");
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  // The data must be on disk before the rename publishes it: otherwise a
  // crash can leave `path` naming a file whose blocks never landed.
  if (::fsync(fd) != 0) fail_atomic_write(fd, tmp, "cannot fsync: ");
  if (::close(fd) != 0) fail_atomic_write(-1, tmp, "cannot close: ");
  // POSIX rename atomically replaces `path`; a crash before this line
  // leaves only the temp file behind and the previous `path` intact.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " over " + path);
  }
  // Persist the rename itself: the new directory entry lives in the parent
  // directory's data, which has its own dirty blocks.
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) throw std::runtime_error("cannot open directory: " + dir);
  const int rc = ::fsync(dir_fd);
  ::close(dir_fd);
  if (rc != 0) throw std::runtime_error("cannot fsync directory: " + dir);
}

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) throw std::runtime_error("short read: " + path);
  return bytes;
}

}  // namespace orco::common
