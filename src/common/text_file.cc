#include "common/text_file.h"

#include <cstdio>

namespace ganns {

bool WriteTextFile(const std::string& path, std::string_view text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), file);
  return std::fclose(file) == 0 && written == text.size();
}

}  // namespace ganns
