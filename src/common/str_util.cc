#include "common/str_util.h"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace cardbench {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  size_t b = 0;
  size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

uint64_t Fnv1aHash(std::string_view text) {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (char c : text) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string FormatDuration(double seconds) {
  if (seconds >= 3600.0) return StrFormat("%.2fh", seconds / 3600.0);
  if (seconds >= 60.0) return StrFormat("%.1fmin", seconds / 60.0);
  if (seconds >= 1.0) return StrFormat("%.2fs", seconds);
  if (seconds >= 1e-3) return StrFormat("%.2fms", seconds * 1e3);
  return StrFormat("%.1fus", seconds * 1e6);
}

std::string FormatBytes(size_t bytes) {
  const double b = static_cast<double>(bytes);
  if (b >= 1024.0 * 1024.0 * 1024.0) return StrFormat("%.2fGB", b / (1024.0 * 1024.0 * 1024.0));
  if (b >= 1024.0 * 1024.0) return StrFormat("%.2fMB", b / (1024.0 * 1024.0));
  if (b >= 1024.0) return StrFormat("%.1fKB", b / 1024.0);
  return StrFormat("%zuB", bytes);
}

std::string FormatCount(double count) {
  if (count < 0) return StrFormat("-%s", FormatCount(-count).c_str());
  if (count < 1e6) return StrFormat("%.0f", count);
  const int exp = static_cast<int>(std::floor(std::log10(count)));
  const double mant = count / std::pow(10.0, exp);
  return StrFormat("%.1fe%d", mant, exp);
}

}  // namespace cardbench
