#include "util/structured_log.h"

#include <chrono>

#include "util/json.h"
#include "util/status.h"
#include "util/sync.h"

namespace treesim {

int64_t UnixMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

#if TREESIM_METRICS_ENABLED

StructuredLog& StructuredLog::Global() {
  static StructuredLog* const log = new StructuredLog();
  return *log;
}

Status StructuredLog::OpenFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open query log file " + path);
  }
  // The mutex guards only the pointer swap; the blocking fclose of a
  // replaced stream runs after the scope ends so writers are never queued
  // behind disk latency (astcheck: blocking-under-lock).
  std::FILE* replaced = nullptr;
  {
    MutexLock lock(mu_);
    replaced = file_;
    file_ = f;
    records_written_.store(0, std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_relaxed);
  }
  if (replaced != nullptr) std::fclose(replaced);
  return Status::Ok();
}

void StructuredLog::Close() {
  enabled_.store(false, std::memory_order_relaxed);
  std::FILE* doomed = nullptr;
  {
    MutexLock lock(mu_);
    doomed = file_;
    file_ = nullptr;
  }
  if (doomed != nullptr) std::fclose(doomed);
}

void StructuredLog::Write(const JsonObject& record) {
  const std::string line = record.Render();
  MutexLock lock(mu_);
  if (file_ == nullptr) return;  // raced with Close(); drop silently
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  // Flush per record: the log must survive the abort paths the engine's
  // TREESIM_CHECKs can take, and query volume (not line volume) dominates.
  std::fflush(file_);
  records_written_.fetch_add(1, std::memory_order_relaxed);
}

#else  // !TREESIM_METRICS_ENABLED

StructuredLog& StructuredLog::Global() {
  static StructuredLog* const log = new StructuredLog();
  return *log;
}

#endif  // TREESIM_METRICS_ENABLED

}  // namespace treesim
