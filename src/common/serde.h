#ifndef CARDBENCH_COMMON_SERDE_H_
#define CARDBENCH_COMMON_SERDE_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace cardbench {

/// Versioned tagged-section binary model format. One idiom serves every
/// serializable artifact in the repo (binners, extended tables, estimator
/// models): a writer collects named sections of little-endian primitives,
/// then emits
///
///   magic "CBMD" | u32 format version | model tag | u32 section count |
///   per section: name | u64 payload size | u64 FNV-1a checksum | payload
///
/// (strings are u64 length + bytes). The reader validates magic, version,
/// tag and every checksum up front, so a consumer that reaches its payload
/// knows the bytes are intact; any mutilation (truncation, bit flips,
/// version skew) surfaces as a non-OK Status, never as a mis-parsed model.

inline constexpr char kModelMagic[4] = {'C', 'B', 'M', 'D'};
inline constexpr uint32_t kModelFormatVersion = 1;

/// Append-only byte buffer of fixed-width little-endian primitives. One
/// section holds one logical chunk of a model (e.g. a binner, a layer's
/// weights); readers must consume fields in the exact order written.
class SectionWriter {
 public:
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  void PutDouble(double v);
  void PutBool(bool v) { PutU32(v ? 1 : 0); }
  void PutString(std::string_view s);
  void PutDoubles(const std::vector<double>& v);
  void PutI64s(const std::vector<int64_t>& v);
  void PutU64s(const std::vector<uint64_t>& v);
  void PutU32s(const std::vector<uint32_t>& v);
  void PutU16s(std::span<const uint16_t> v);

  const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

/// Bounds-checked cursor over one section's payload. Every getter returns
/// OutOfRange past the end instead of reading garbage, so a truncated or
/// reordered payload fails loudly; an array or string whose stored count
/// exceeds what is left fails the same way, without allocating.
class SectionReader {
 public:
  explicit SectionReader(std::string_view bytes) : bytes_(bytes) {}

  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<bool> GetBool();
  Result<std::string> GetString();
  Result<std::vector<double>> GetDoubles();
  Result<std::vector<int64_t>> GetI64s();
  Result<std::vector<uint64_t>> GetU64s();
  Result<std::vector<uint32_t>> GetU32s();
  Result<std::vector<uint16_t>> GetU16s();

  bool AtEnd() const { return pos_ == bytes_.size(); }
  /// Payload bytes not yet read.
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  /// OK when `count` elements of `width` bytes remain.
  Status Need(uint64_t count, size_t width) const;
  template <typename T>
  Result<T> GetScalar();
  template <typename T>
  Result<std::vector<T>> GetArray();

  std::string_view bytes_;
  size_t pos_ = 0;
};

/// Collects named sections for one model artifact and writes the framed,
/// checksummed container. Section order is preserved; names must be unique.
class ModelWriter {
 public:
  /// `tag` identifies the model kind (e.g. "pgstats", "mscn"); readers
  /// refuse artifacts whose tag does not match what they expect.
  explicit ModelWriter(std::string tag) : tag_(std::move(tag)) {}

  /// Returns the section to append fields to. The reference stays valid
  /// until WriteTo.
  SectionWriter& AddSection(std::string name);

  /// Frames and flushes all sections. Returns IOError if the stream fails.
  Status WriteTo(std::ostream& out) const;

 private:
  std::string tag_;
  std::vector<std::pair<std::string, std::unique_ptr<SectionWriter>>>
      sections_;
};

/// Parses and validates a framed model artifact. All sections are read and
/// checksum-verified by Open; Section() then hands out in-memory cursors.
class ModelReader {
 public:
  /// Reads the whole container from `in`. Fails with InvalidArgument on bad
  /// magic / version skew / tag mismatch / checksum mismatch, and IOError
  /// on truncation.
  static Result<ModelReader> Open(std::istream& in, std::string_view tag);

  /// Cursor over a named section's payload; NotFound if absent.
  Result<SectionReader> Section(std::string_view name) const;

 private:
  ModelReader() = default;

  std::map<std::string, std::string> sections_;
};

}  // namespace cardbench

#endif  // CARDBENCH_COMMON_SERDE_H_
