#ifndef CARDBENCH_COMMON_JSON_H_
#define CARDBENCH_COMMON_JSON_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace cardbench {

/// Minimal JSON document model shared by the wire protocol, the metrics
/// renderer and the bench-artifact validator. The repo's JSON surface is
/// deliberately small — flat objects, numeric maps, arrays of numbers — so
/// a tiny strict parser plus two append helpers beat a general library.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;

  /// First value under `key` (insertion order); nullptr if absent or not an
  /// object.
  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Strict recursive-descent parser: depth-capped, trailing garbage is an
/// error, \u escapes decode as UTF-8 BMP code points. Numbers are read by
/// std::from_chars: no leading '+', no hex, and a value outside double's
/// range (1e400, 1e-400) is an error; besides JSON's grammar it takes the
/// `inf`, `-inf` and `nan` spellings AppendJsonDouble writes.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse();

 private:
  static constexpr int kMaxDepth = 16;

  Status ParseValue(JsonValue* out, int depth);
  Status ParseObject(JsonValue* out, int depth);
  Status ParseArray(JsonValue* out, int depth);
  Status ParseString(std::string* out);
  Status ParseKeyword(bool value, JsonValue* out);
  Status ParseNull(JsonValue* out);
  Status ParseNumber(JsonValue* out);

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipSpace();

  const std::string& text_;
  size_t pos_ = 0;
};

/// Appends `text` as a quoted, escaped JSON string.
void AppendJsonString(const std::string& text, std::string* out);

/// Appends `value` in its shortest round-trip form (std::to_chars): the
/// parser reads back the identical double, so the repo's
/// bit-identical-estimate discipline extends to the wire. Infinities and
/// NaN come out as `inf`, `-inf` and `nan`.
void AppendJsonDouble(double value, std::string* out);

/// Typed field access with fallbacks (absent or wrong-kind -> fallback).
double JsonNumberOr(const JsonValue* value, double fallback);
std::string JsonStringOr(const JsonValue* value, std::string fallback);

}  // namespace cardbench

#endif  // CARDBENCH_COMMON_JSON_H_
