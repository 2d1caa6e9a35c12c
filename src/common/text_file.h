#ifndef GANNS_COMMON_TEXT_FILE_H_
#define GANNS_COMMON_TEXT_FILE_H_

#include <string>
#include <string_view>

namespace ganns {

/// Writes `text` to `path`, replacing any existing file. Returns false when
/// the file cannot be opened, the write is short, or the close fails — the
/// contract every artifact exporter (metrics, traces, windows, alerts,
/// flight dumps) reports to its caller.
bool WriteTextFile(const std::string& path, std::string_view text);

}  // namespace ganns

#endif  // GANNS_COMMON_TEXT_FILE_H_
