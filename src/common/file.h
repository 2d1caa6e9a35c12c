#ifndef GANNS_COMMON_FILE_H_
#define GANNS_COMMON_FILE_H_

#include <cstdio>
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

}  // namespace ganns

#endif  // GANNS_COMMON_FILE_H_
