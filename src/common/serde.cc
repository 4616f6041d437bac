#include "common/serde.h"

#include <cstring>
#include <istream>
#include <ostream>

#include "common/str_util.h"

namespace cardbench {

namespace {

template <typename T>
void AppendRaw(std::string& buf, T v) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  buf.append(bytes, sizeof(T));
}

template <typename T>
T ReadRaw(std::string_view bytes, size_t pos) {
  T v;
  std::memcpy(&v, bytes.data() + pos, sizeof(T));
  return v;
}

void AppendString(std::string& buf, std::string_view s) {
  AppendRaw<uint64_t>(buf, s.size());
  buf.append(s.data(), s.size());
}

}  // namespace

void SectionWriter::PutU32(uint32_t v) { AppendRaw(buf_, v); }
void SectionWriter::PutU64(uint64_t v) { AppendRaw(buf_, v); }
void SectionWriter::PutI64(int64_t v) { AppendRaw(buf_, v); }
void SectionWriter::PutDouble(double v) { AppendRaw(buf_, v); }

void SectionWriter::PutString(std::string_view s) { AppendString(buf_, s); }

void SectionWriter::PutDoubles(const std::vector<double>& v) {
  PutU64(v.size());
  for (double x : v) PutDouble(x);
}

void SectionWriter::PutI64s(const std::vector<int64_t>& v) {
  PutU64(v.size());
  for (int64_t x : v) PutI64(x);
}

void SectionWriter::PutU64s(const std::vector<uint64_t>& v) {
  PutU64(v.size());
  for (uint64_t x : v) PutU64(x);
}

void SectionWriter::PutU32s(const std::vector<uint32_t>& v) {
  PutU64(v.size());
  for (uint32_t x : v) PutU32(x);
}

void SectionWriter::PutU16s(std::span<const uint16_t> v) {
  PutU64(v.size());
  for (uint16_t x : v) AppendRaw(buf_, x);
}

Status SectionReader::Need(uint64_t count, size_t width) const {
  // Compared by division against what is left, so a crafted count can
  // neither wrap pos_ + n nor overflow count * width.
  if (count > (bytes_.size() - pos_) / width) {
    return Status::OutOfRange(
        "section payload truncated: need " + std::to_string(count) + " x " +
        std::to_string(width) + " bytes at offset " + std::to_string(pos_) +
        " of " + std::to_string(bytes_.size()));
  }
  return Status::OK();
}

template <typename T>
Result<T> SectionReader::GetScalar() {
  CARDBENCH_RETURN_IF_ERROR(Need(1, sizeof(T)));
  T v = ReadRaw<T>(bytes_, pos_);
  pos_ += sizeof(T);
  return v;
}

template <typename T>
Result<std::vector<T>> SectionReader::GetArray() {
  CARDBENCH_ASSIGN_OR_RETURN(uint64_t n, GetU64());
  CARDBENCH_RETURN_IF_ERROR(Need(n, sizeof(T)));
  std::vector<T> out(n);
  if (n > 0) std::memcpy(out.data(), bytes_.data() + pos_, n * sizeof(T));
  pos_ += n * sizeof(T);
  return out;
}

Result<uint32_t> SectionReader::GetU32() { return GetScalar<uint32_t>(); }
Result<uint64_t> SectionReader::GetU64() { return GetScalar<uint64_t>(); }
Result<int64_t> SectionReader::GetI64() { return GetScalar<int64_t>(); }
Result<double> SectionReader::GetDouble() { return GetScalar<double>(); }

Result<bool> SectionReader::GetBool() {
  CARDBENCH_ASSIGN_OR_RETURN(uint32_t v, GetU32());
  return v != 0;
}

Result<std::string> SectionReader::GetString() {
  CARDBENCH_ASSIGN_OR_RETURN(uint64_t n, GetU64());
  CARDBENCH_RETURN_IF_ERROR(Need(n, 1));
  std::string s(bytes_.substr(pos_, n));
  pos_ += n;
  return s;
}

Result<std::vector<double>> SectionReader::GetDoubles() {
  return GetArray<double>();
}
Result<std::vector<int64_t>> SectionReader::GetI64s() {
  return GetArray<int64_t>();
}
Result<std::vector<uint64_t>> SectionReader::GetU64s() {
  return GetArray<uint64_t>();
}
Result<std::vector<uint32_t>> SectionReader::GetU32s() {
  return GetArray<uint32_t>();
}
Result<std::vector<uint16_t>> SectionReader::GetU16s() {
  return GetArray<uint16_t>();
}

SectionWriter& ModelWriter::AddSection(std::string name) {
  sections_.emplace_back(std::move(name), std::make_unique<SectionWriter>());
  return *sections_.back().second;
}

Status ModelWriter::WriteTo(std::ostream& out) const {
  std::string framed;
  framed.append(kModelMagic, sizeof(kModelMagic));
  AppendRaw<uint32_t>(framed, kModelFormatVersion);
  AppendString(framed, tag_);
  AppendRaw<uint32_t>(framed, static_cast<uint32_t>(sections_.size()));
  for (const auto& [name, section] : sections_) {
    const std::string& payload = section->bytes();
    AppendString(framed, name);
    AppendRaw<uint64_t>(framed, payload.size());
    AppendRaw<uint64_t>(framed, Fnv1aHash(payload));
    framed.append(payload);
  }
  out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
  if (!out.good()) return Status::IOError("model stream write failed");
  return Status::OK();
}

Result<ModelReader> ModelReader::Open(std::istream& in,
                                      std::string_view tag) {
  std::string raw((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("model stream read failed");

  size_t pos = 0;
  auto read_u32 = [&](uint32_t* v) -> bool {
    if (pos + sizeof(uint32_t) > raw.size()) return false;
    *v = ReadRaw<uint32_t>(raw, pos);
    pos += sizeof(uint32_t);
    return true;
  };
  auto read_u64 = [&](uint64_t* v) -> bool {
    if (pos + sizeof(uint64_t) > raw.size()) return false;
    *v = ReadRaw<uint64_t>(raw, pos);
    pos += sizeof(uint64_t);
    return true;
  };
  auto read_string = [&](std::string* s) -> bool {
    uint64_t n = 0;
    if (!read_u64(&n)) return false;
    if (n > raw.size() - pos) return false;
    s->assign(raw, pos, n);
    pos += n;
    return true;
  };

  if (raw.size() < sizeof(kModelMagic)) {
    return Status::IOError("model artifact truncated: no magic");
  }
  if (std::memcmp(raw.data(), kModelMagic, sizeof(kModelMagic)) != 0) {
    return Status::InvalidArgument("bad model magic (not a CBMD artifact)");
  }
  pos += sizeof(kModelMagic);

  uint32_t version = 0;
  if (!read_u32(&version)) {
    return Status::IOError("model artifact truncated in header");
  }
  if (version != kModelFormatVersion) {
    return Status::InvalidArgument(
        "model format version skew: artifact v" + std::to_string(version) +
        ", reader v" + std::to_string(kModelFormatVersion));
  }

  std::string got_tag;
  uint32_t section_count = 0;
  if (!read_string(&got_tag) || !read_u32(&section_count)) {
    return Status::IOError("model artifact truncated in header");
  }
  if (got_tag != tag) {
    return Status::InvalidArgument("model tag mismatch: artifact \"" +
                                   got_tag + "\", expected \"" +
                                   std::string(tag) + "\"");
  }

  ModelReader reader;
  for (uint32_t i = 0; i < section_count; ++i) {
    std::string name;
    uint64_t size = 0, checksum = 0;
    if (!read_string(&name) || !read_u64(&size) || !read_u64(&checksum)) {
      return Status::IOError("model artifact truncated in section header");
    }
    if (size > raw.size() - pos) {
      return Status::IOError("model artifact truncated in section \"" + name +
                             "\" payload");
    }
    std::string payload = raw.substr(pos, size);
    pos += size;
    if (Fnv1aHash(payload) != checksum) {
      return Status::InvalidArgument("checksum mismatch in section \"" + name +
                                     "\"");
    }
    if (!reader.sections_.emplace(std::move(name), std::move(payload))
             .second) {
      return Status::InvalidArgument("duplicate section in model artifact");
    }
  }
  return reader;
}

Result<SectionReader> ModelReader::Section(std::string_view name) const {
  auto it = sections_.find(std::string(name));
  if (it == sections_.end()) {
    return Status::NotFound("model artifact has no section \"" +
                            std::string(name) + "\"");
  }
  return SectionReader(it->second);
}

}  // namespace cardbench
