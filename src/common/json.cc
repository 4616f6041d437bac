#include "common/json.h"

#include <charconv>
#include <cstdio>

namespace cardbench {

void AppendJsonString(const std::string& text, std::string* out) {
  out->push_back('"');
  for (char c : text) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonDouble(double value, std::string* out) {
  char buf[32];  // the longest shortest form, "-2.2250738585072014e-308", is 24
  const std::to_chars_result written =
      std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, written.ptr);
}

double JsonNumberOr(const JsonValue* value, double fallback) {
  return value != nullptr && value->kind == JsonValue::Kind::kNumber
             ? value->number
             : fallback;
}

std::string JsonStringOr(const JsonValue* value, std::string fallback) {
  return value != nullptr && value->kind == JsonValue::Kind::kString
             ? value->string
             : fallback;
}

Result<JsonValue> JsonParser::Parse() {
  JsonValue value;
  CARDBENCH_RETURN_IF_ERROR(ParseValue(&value, 0));
  SkipSpace();
  if (pos_ != text_.size()) {
    return Status::InvalidArgument("trailing bytes after JSON value");
  }
  return value;
}

Status JsonParser::ParseValue(JsonValue* out, int depth) {
  if (depth > kMaxDepth) {
    return Status::InvalidArgument("JSON nesting too deep");
  }
  SkipSpace();
  if (pos_ >= text_.size()) {
    return Status::InvalidArgument("unexpected end of JSON");
  }
  const char c = text_[pos_];
  if (c == '{') return ParseObject(out, depth);
  if (c == '[') return ParseArray(out, depth);
  if (c == '"') {
    out->kind = JsonValue::Kind::kString;
    return ParseString(&out->string);
  }
  if (c == 't' || c == 'f') return ParseKeyword(c == 't', out);
  if (c == 'n' && text_.compare(pos_, 3, "nan") != 0) return ParseNull(out);
  return ParseNumber(out);
}

Status JsonParser::ParseObject(JsonValue* out, int depth) {
  out->kind = JsonValue::Kind::kObject;
  ++pos_;  // '{'
  SkipSpace();
  if (Peek() == '}') {
    ++pos_;
    return Status::OK();
  }
  for (;;) {
    SkipSpace();
    std::string key;
    CARDBENCH_RETURN_IF_ERROR(ParseString(&key));
    SkipSpace();
    if (Peek() != ':') return Status::InvalidArgument("expected ':'");
    ++pos_;
    JsonValue value;
    CARDBENCH_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
    out->object.emplace_back(std::move(key), std::move(value));
    SkipSpace();
    if (Peek() == ',') {
      ++pos_;
      continue;
    }
    if (Peek() == '}') {
      ++pos_;
      return Status::OK();
    }
    return Status::InvalidArgument("expected ',' or '}' in object");
  }
}

Status JsonParser::ParseArray(JsonValue* out, int depth) {
  out->kind = JsonValue::Kind::kArray;
  ++pos_;  // '['
  SkipSpace();
  if (Peek() == ']') {
    ++pos_;
    return Status::OK();
  }
  for (;;) {
    JsonValue value;
    CARDBENCH_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
    out->array.push_back(std::move(value));
    SkipSpace();
    if (Peek() == ',') {
      ++pos_;
      continue;
    }
    if (Peek() == ']') {
      ++pos_;
      return Status::OK();
    }
    return Status::InvalidArgument("expected ',' or ']' in array");
  }
}

Status JsonParser::ParseString(std::string* out) {
  if (Peek() != '"') return Status::InvalidArgument("expected string");
  ++pos_;
  out->clear();
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (c == '"') return Status::OK();
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) break;
    const char esc = text_[pos_++];
    switch (esc) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'u': {
        if (pos_ + 4 > text_.size()) {
          return Status::InvalidArgument("truncated \\u escape");
        }
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return Status::InvalidArgument("bad \\u escape");
        }
        // Only BMP code points are emitted by the writers; decode as UTF-8.
        if (code < 0x80) {
          out->push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out->push_back(static_cast<char>(0xC0 | (code >> 6)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out->push_back(static_cast<char>(0xE0 | (code >> 12)));
          out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default:
        return Status::InvalidArgument("unknown escape in string");
    }
  }
  return Status::InvalidArgument("unterminated string");
}

Status JsonParser::ParseKeyword(bool value, JsonValue* out) {
  const char* word = value ? "true" : "false";
  const size_t len = value ? 4 : 5;
  if (text_.compare(pos_, len, word) != 0) {
    return Status::InvalidArgument("bad JSON keyword");
  }
  pos_ += len;
  out->kind = JsonValue::Kind::kBool;
  out->boolean = value;
  return Status::OK();
}

Status JsonParser::ParseNull(JsonValue* out) {
  if (text_.compare(pos_, 4, "null") != 0) {
    return Status::InvalidArgument("bad JSON keyword");
  }
  pos_ += 4;
  out->kind = JsonValue::Kind::kNull;
  return Status::OK();
}

Status JsonParser::ParseNumber(JsonValue* out) {
  const char* begin = text_.data() + pos_;
  double value = 0.0;
  const std::from_chars_result parsed =
      std::from_chars(begin, text_.data() + text_.size(), value);
  if (parsed.ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("JSON number out of double range");
  }
  if (parsed.ec != std::errc()) {
    return Status::InvalidArgument("expected JSON number");
  }
  pos_ += static_cast<size_t>(parsed.ptr - begin);
  out->kind = JsonValue::Kind::kNumber;
  out->number = value;
  return Status::OK();
}

void JsonParser::SkipSpace() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' ||
          text_[pos_] == '\n' || text_[pos_] == '\r')) {
    ++pos_;
  }
}

}  // namespace cardbench
