#ifndef GANNS_COMMON_FILE_H_
#define GANNS_COMMON_FILE_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <string_view>

namespace ganns {

/// An owned stdio stream, closed on destruction. Writers end with Close()
/// and report its result: stdio buffers the last block, so a full disk can
/// surface only when the close flushes it.
class File {
 public:
  File(const std::string& path, const char* mode)
      : file_(std::fopen(path.c_str(), mode)) {}
  ~File() {
    if (file_ != nullptr) std::fclose(file_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  /// False when the open failed.
  explicit operator bool() const { return file_ != nullptr; }
  std::FILE* get() const { return file_; }

  /// Flushes and closes the stream. Returns false when the stream was never
  /// open or the close fails.
  bool Close() {
    std::FILE* file = file_;
    file_ = nullptr;
    return file != nullptr && std::fclose(file) == 0;
  }

 private:
  std::FILE* file_;
};

/// Writes `text` to `path`, replacing any existing file. Returns false when
/// the file cannot be opened, the write is short, or the close fails — the
/// contract every artifact exporter (metrics, traces, windows, alerts,
/// flight dumps) reports to its caller.
bool WriteTextFile(const std::string& path, std::string_view text);

/// Writes each of `paths` so that it either keeps its old contents or takes
/// the new ones whole. `write(i, tmp)` writes file i to the temporary name
/// `tmp` (`<paths[i]>.tmp<pid>`) and returns false on any failure, including
/// a failed close. Only after every write succeeded are the temporaries
/// renamed into place, in order. On failure every temporary still present
/// is removed and false is returned; a failed write leaves every target
/// untouched.
bool ReplaceFiles(
    std::span<const std::string> paths,
    const std::function<bool(std::size_t, const std::string&)>& write);

/// Bytes between the stream's position and the end of its file: the most
/// any section read from here can hold. 0 when the position or the file
/// size is unavailable. Readers check a section against it before they
/// allocate, so a header claiming more than the file holds fails cleanly.
std::uint64_t BytesLeft(std::FILE* file);

/// Bulk sections are read in chunks of this many bytes.
inline constexpr std::size_t kReadChunkBytes = std::size_t{1} << 20;

/// Reads `size` bytes from the stream's position into `out`, then moves the
/// stream past them. The range is read with positioned reads (pread) in
/// kReadChunkBytes chunks spread over ThreadPool::Global(); a call from a
/// pool task shares the pool. Returns false when the file ends early or a
/// read fails.
bool ReadBulk(std::FILE* file, void* out, std::size_t size);

}  // namespace ganns

#endif  // GANNS_COMMON_FILE_H_
