#include "common/file.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>

#include "common/thread_pool.h"

namespace ganns {
namespace {

// pread until `size` bytes are in `out`; false at end of file or on error.
bool PreadAll(int fd, char* out, std::size_t size, off_t offset) {
  while (size > 0) {
    const ssize_t got = ::pread(fd, out, size, offset);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    out += got;
    size -= static_cast<std::size_t>(got);
    offset += got;
  }
  return true;
}

}  // namespace

bool WriteTextFile(const std::string& path, std::string_view text) {
  File file(path, "wb");
  if (!file) return false;
  const std::size_t written =
      std::fwrite(text.data(), 1, text.size(), file.get());
  return file.Close() && written == text.size();
}

bool ReplaceFiles(
    std::span<const std::string> paths,
    const std::function<bool(std::size_t, const std::string&)>& write) {
  const std::string suffix = ".tmp" + std::to_string(::getpid());
  std::size_t written = 0;
  bool ok = true;
  for (; ok && written < paths.size(); ++written) {
    ok = write(written, paths[written] + suffix);
  }
  // `written` temporaries exist (the last one possibly partial); rename them
  // all only when every write succeeded, and remove what is left otherwise.
  std::size_t renamed = 0;
  while (ok && renamed < written) {
    const std::string tmp = paths[renamed] + suffix;
    ok = std::rename(tmp.c_str(), paths[renamed].c_str()) == 0;
    if (ok) ++renamed;
  }
  for (std::size_t i = renamed; i < written; ++i) {
    std::remove((paths[i] + suffix).c_str());
  }
  return ok;
}

std::uint64_t BytesLeft(std::FILE* file) {
  const off_t at = ::ftello(file);
  struct stat info;
  if (at < 0 || ::fstat(::fileno(file), &info) != 0 || info.st_size < at) {
    return 0;
  }
  return static_cast<std::uint64_t>(info.st_size - at);
}

bool ReadBulk(std::FILE* file, void* out, std::size_t size) {
  if (size == 0) return true;
  const off_t start = ::ftello(file);
  if (start < 0) return false;
  const int fd = ::fileno(file);
  char* bytes = static_cast<char*>(out);
  const std::size_t chunks = (size + kReadChunkBytes - 1) / kReadChunkBytes;
  std::atomic<bool> ok{true};
  ThreadPool::Global().ParallelFor(chunks, [&](std::size_t c) {
    const std::size_t begin = c * kReadChunkBytes;
    const std::size_t len = std::min(kReadChunkBytes, size - begin);
    if (!PreadAll(fd, bytes + begin, len,
                  start + static_cast<off_t>(begin))) {
      ok.store(false, std::memory_order_relaxed);
    }
  });
  return ok.load(std::memory_order_relaxed) &&
         ::fseeko(file, start + static_cast<off_t>(size), SEEK_SET) == 0;
}

}  // namespace ganns
