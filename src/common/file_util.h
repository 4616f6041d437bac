#ifndef CARDBENCH_COMMON_FILE_UTIL_H_
#define CARDBENCH_COMMON_FILE_UTIL_H_

#include <functional>
#include <ostream>
#include <string>

#include "common/status.h"

namespace cardbench {

/// Replaces the file at `path` atomically: `write` fills a temporary file
/// next to it, which is then renamed over `path`. Readers — other threads
/// or processes sharing the file — see the old contents or the new, never
/// a truncated or half-written file. If `write` returns an error, or the
/// write or rename fails, the temporary is removed, `path` is left as it
/// was, and the error is returned.
Status AtomicWriteFile(const std::string& path,
                       const std::function<Status(std::ostream&)>& write);

}  // namespace cardbench

#endif  // CARDBENCH_COMMON_FILE_UTIL_H_
