#include "common/file_util.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>

namespace cardbench {

Status AtomicWriteFile(const std::string& path,
                       const std::function<Status(std::ostream&)>& write) {
  // Unique per process and call, so concurrent writers never share a
  // temporary.
  static std::atomic<uint64_t> tmp_counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(tmp_counter.fetch_add(1));
  Status status;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot write " + tmp);
    status = write(out);
    out.close();
    if (status.ok() && out.fail()) {
      status = Status::IOError("short write to " + tmp);
    }
  }
  std::error_code ec;
  if (status.ok()) {
    std::filesystem::rename(tmp, path, ec);
    if (ec) status = Status::IOError("cannot install " + path);
  }
  if (!status.ok()) std::filesystem::remove(tmp, ec);
  return status;
}

}  // namespace cardbench
