// Minimal JSON DOM + recursive-descent parser shared by the repo's
// command-line tools (schema_check, bench_diff, `ganns stat`). No external
// dependencies; the DOM is a tree of variant nodes that callers walk
// directly. Numbers are doubles (adequate for every artifact we emit);
// \u escapes are validated but decoded to '?' — no tool compares non-ASCII
// content.

#ifndef GANNS_TOOLS_JSON_READER_H_
#define GANNS_TOOLS_JSON_READER_H_

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace ganns {
namespace tools {

struct Json;
using JsonPtr = std::unique_ptr<Json>;

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonPtr> array;
  std::map<std::string, JsonPtr> object;

  bool Is(Kind k) const { return kind == k; }
  const Json* Get(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : it->second.get();
  }
};

class Parser {
 public:
  explicit Parser(std::string text) : text_(std::move(text)) {}

  JsonPtr Parse() {
    JsonPtr value = ParseValue();
    if (value == nullptr) return nullptr;
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return value;
  }

  const std::string& error() const { return error_; }

 private:
  JsonPtr Fail(const char* message) {
    if (error_.empty()) {
      // 1-based line/column of the failure point, so editors and humans can
      // jump straight to it; the raw offset stays for byte-level tooling.
      std::size_t line = 1, column = 1;
      for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
        if (text_[i] == '\n') {
          ++line;
          column = 1;
        } else {
          ++column;
        }
      }
      std::ostringstream out;
      out << message << " at line " << line << " column " << column
          << " (offset " << pos_ << ")";
      error_ = out.str();
    }
    return nullptr;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonPtr ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  JsonPtr ParseObject() {
    if (!Consume('{')) return Fail("expected '{'");
    auto node = std::make_unique<Json>();
    node->kind = Json::Kind::kObject;
    SkipSpace();
    if (Consume('}')) return node;
    for (;;) {
      JsonPtr key = ParseString();
      if (key == nullptr) return nullptr;
      if (!Consume(':')) return Fail("expected ':'");
      JsonPtr value = ParseValue();
      if (value == nullptr) return nullptr;
      node->object.emplace(std::move(key->string), std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return node;
      return Fail("expected ',' or '}'");
    }
  }

  JsonPtr ParseArray() {
    if (!Consume('[')) return Fail("expected '['");
    auto node = std::make_unique<Json>();
    node->kind = Json::Kind::kArray;
    SkipSpace();
    if (Consume(']')) return node;
    for (;;) {
      JsonPtr value = ParseValue();
      if (value == nullptr) return nullptr;
      node->array.push_back(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return node;
      return Fail("expected ',' or ']'");
    }
  }

  JsonPtr ParseString() {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected string");
    }
    ++pos_;
    auto node = std::make_unique<Json>();
    node->kind = Json::Kind::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
            pos_ += 4;
            c = '?';
            break;
          }
          default:
            return Fail("bad escape");
        }
      }
      node->string.push_back(c);
    }
    if (pos_ >= text_.size()) return Fail("unterminated string");
    ++pos_;  // closing quote
    return node;
  }

  JsonPtr ParseBool() {
    auto node = std::make_unique<Json>();
    node->kind = Json::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      node->boolean = true;
      pos_ += 4;
      return node;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      node->boolean = false;
      pos_ += 5;
      return node;
    }
    return Fail("expected boolean");
  }

  JsonPtr ParseNull() {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return std::make_unique<Json>();
    }
    return Fail("expected null");
  }

  JsonPtr ParseNumber() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected value");
    auto node = std::make_unique<Json>();
    node->kind = Json::Kind::kNumber;
    node->number = std::strtod(text_.c_str() + start, nullptr);
    return node;
  }

  std::string text_;
  std::size_t pos_ = 0;
  std::string error_;
};

/// Reads `path` and parses it as JSON. On failure returns nullptr and
/// writes a human-readable reason into *error.
inline JsonPtr ParseJsonFile(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return nullptr;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Parser parser(buffer.str());
  JsonPtr root = parser.Parse();
  if (root == nullptr) *error = path + ": " + parser.error();
  return root;
}

/// Reads a JSONL file: one JSON value per non-empty line. On failure returns
/// an empty vector and writes "cannot open <path>" or "<path>:<line>:
/// <message>" into *error. With `tolerate_partial_tail` (a live view over a
/// file still being appended to), a final line that fails to parse is a
/// write in progress and is dropped — the next read picks it up once
/// complete. A malformed line anywhere else is always an error.
inline std::vector<JsonPtr> ReadJsonlFile(const std::string& path,
                                          std::string* error,
                                          bool tolerate_partial_tail = false) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return {};
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::vector<JsonPtr> values;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    Parser parser(lines[i]);
    JsonPtr value = parser.Parse();
    if (value == nullptr) {
      if (tolerate_partial_tail && i + 1 == lines.size()) break;
      *error = path + ":" + std::to_string(i + 1) + ": " + parser.error();
      return {};
    }
    values.push_back(std::move(value));
  }
  return values;
}

}  // namespace tools
}  // namespace ganns

#endif  // GANNS_TOOLS_JSON_READER_H_
