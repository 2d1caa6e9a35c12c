#include "common/file.h"

namespace ganns {

bool WriteTextFile(const std::string& path, std::string_view text) {
  File file(path, "wb");
  if (!file) return false;
  const std::size_t written =
      std::fwrite(text.data(), 1, text.size(), file.get());
  return file.Close() && written == text.size();
}

}  // namespace ganns
