#include "util/triage.h"

#include <fcntl.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>

#include "util/build_info.h"
#include "util/flight_recorder.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

// ASYNC-SIGNAL-SAFETY CONTRACT — enforced by the `sigsafe` rule in
// tools/lint_treesim.py, which scans exactly this TU: no heap, no stdio,
// no locks, no growable containers, no stream objects. Everything below
// formats into fixed stack/static buffers and talks to the kernel through
// write()/open()/close()/clock_gettime()/getpid(). Failures are silent by
// design: a triage writer that can itself fault or deadlock is worse than
// no dump.

namespace treesim {
namespace {

constexpr int kMaxFlightRecords = 256;
constexpr int kMaxTraceEvents = 512;
constexpr int kMaxMetricViews = 512;
constexpr int kTracePerThread = 64;

char g_triage_dir[512] = ".";
char g_last_path[768] = "";
char g_fatal_message[1024] = "";
std::atomic<int> g_in_handler{0};
std::atomic<bool> g_installed{false};

// Scratch snapshot storage. Static (not stack) because the handler may run
// on a small alternate or nearly-exhausted stack; the re-entrancy gate in
// CrashHandler and the single-threaded public path make sharing safe
// enough for crash-time use.
FlightRecord g_records[kMaxFlightRecords];
TraceEvent g_events[kMaxTraceEvents];
CrashMetricView g_views[kMaxMetricViews];

// Warmed by InstallCrashHandler() so the handler never runs a lazy
// function-local-static constructor (whose guard may block).
FlightRecorder* g_flight = nullptr;

void WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = write(fd, data, size);
    if (n <= 0) return;  // silent: nothing sane to do mid-crash
    data += n;
    size -= static_cast<size_t>(n);
  }
}

void WriteStr(int fd, const char* s) {
  if (s == nullptr) return;
  WriteAll(fd, s, strlen(s));
}

/// Formats `v` in decimal into `buf` (at least 24 bytes); returns length.
int FormatInt(char* buf, int64_t v) {
  char tmp[24];
  int n = 0;
  uint64_t u;
  if (v < 0) {
    // Two's-complement-safe negation of INT64_MIN.
    u = static_cast<uint64_t>(~v) + 1;
  } else {
    u = static_cast<uint64_t>(v);
  }
  do {
    tmp[n++] = static_cast<char>('0' + (u % 10));
    u /= 10;
  } while (u != 0);
  int len = 0;
  if (v < 0) buf[len++] = '-';
  while (n > 0) buf[len++] = tmp[--n];
  buf[len] = '\0';
  return len;
}

void WriteInt(int fd, int64_t v) {
  char buf[26];
  WriteAll(fd, buf, static_cast<size_t>(FormatInt(buf, v)));
}

void WriteKeyInt(int fd, const char* key, int64_t v) {
  WriteStr(fd, key);
  WriteStr(fd, " ");
  WriteInt(fd, v);
  WriteStr(fd, "\n");
}

void WriteField(int fd, const char* key, int64_t v) {
  WriteStr(fd, " ");
  WriteStr(fd, key);
  WriteStr(fd, "=");
  WriteInt(fd, v);
}

int64_t NowUnixMicrosRaw() {
  struct timespec ts;
  if (clock_gettime(CLOCK_REALTIME, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

/// Appends `src` to `dst` (capacity `cap`, always NUL-terminated).
void AppendStr(char* dst, size_t cap, const char* src) {
  size_t at = strlen(dst);
  for (size_t i = 0; src[i] != '\0' && at + 1 < cap; ++i) dst[at++] = src[i];
  dst[at] = '\0';
}

void WriteDumpToFd(int fd, const char* reason) {
  WriteStr(fd, "TREESIM_TRIAGE 1\n");
  WriteStr(fd, "reason ");
  WriteStr(fd, reason);
  WriteStr(fd, "\n");
  WriteKeyInt(fd, "ts_unix_micros", NowUnixMicrosRaw());
  WriteKeyInt(fd, "pid", static_cast<int64_t>(getpid()));
  WriteStr(fd, "build_sha ");
  WriteStr(fd, build_info::kGitSha);
  WriteStr(fd, "\n");
  WriteKeyInt(fd, "build_dirty", build_info::kGitDirty ? 1 : 0);
  WriteStr(fd, "build_type ");
  WriteStr(fd, build_info::kBuildType);
  WriteStr(fd, "\n");
  WriteStr(fd, "compiler ");
  WriteStr(fd, build_info::kCompiler);
  WriteStr(fd, "\n");
  WriteKeyInt(fd, "metrics_enabled", kMetricsEnabled ? 1 : 0);
  if (g_fatal_message[0] != '\0') {
    WriteStr(fd, "fatal_message ");
    WriteStr(fd, g_fatal_message);
    WriteStr(fd, "\n");
  }

  WriteStr(fd, "SECTION metrics\n");
  const int views = CrashMetricViews(g_views, kMaxMetricViews);
  for (int i = 0; i < views; ++i) {
    const CrashMetricView& v = g_views[i];
    switch (v.kind) {
      case MetricKind::kCounter:
        if (v.counter == nullptr) break;
        WriteStr(fd, "counter ");
        WriteStr(fd, v.name);
        WriteStr(fd, " ");
        WriteInt(fd, v.counter->value());
        WriteStr(fd, "\n");
        break;
      case MetricKind::kGauge:
        if (v.gauge == nullptr) break;
        WriteStr(fd, "gauge ");
        WriteStr(fd, v.name);
        WriteStr(fd, " ");
        WriteInt(fd, v.gauge->value());
        WriteStr(fd, "\n");
        break;
      case MetricKind::kHistogram:
        if (v.histogram == nullptr) break;
        WriteStr(fd, "histogram ");
        WriteStr(fd, v.name);
        WriteStr(fd, " count ");
        WriteInt(fd, v.histogram->count());
        WriteStr(fd, " sum ");
        WriteInt(fd, v.histogram->sum());
        WriteStr(fd, "\n");
        break;
      case MetricKind::kWindow:
        break;  // windows are not crash-indexed (snapshot would allocate)
    }
  }

  WriteStr(fd, "SECTION flight_recorder\n");
  const FlightRecorder& flight =
      g_flight != nullptr ? *g_flight : FlightRecorder::Global();
  const int records = flight.CrashSnapshot(g_records, kMaxFlightRecords);
  for (int i = 0; i < records; ++i) {
    const FlightRecord& r = g_records[i];
    WriteStr(fd, "record");
    WriteField(fd, "query_id", r.query_id);
    WriteStr(fd, " op=");
    WriteStr(fd, r.op);
    WriteField(fd, "param", r.param);
    WriteField(fd, "db", r.database_size);
    WriteField(fd, "candidates", r.candidates);
    WriteField(fd, "refined", r.refined);
    WriteField(fd, "results", r.results);
    WriteField(fd, "filter_us", r.filter_micros);
    WriteField(fd, "refine_us", r.refine_micros);
    WriteField(fd, "total_us", r.total_micros);
    WriteField(fd, "bounded_cells", r.bounded_cells);
    WriteField(fd, "slow", r.slow ? 1 : 0);
    WriteField(fd, "ts", r.ts_micros);
    WriteStr(fd, "\n");
  }

  WriteStr(fd, "SECTION trace_tail\n");
  const int events = TraceCrashTail(g_events, kMaxTraceEvents,
                                    kTracePerThread);
  for (int i = 0; i < events; ++i) {
    const TraceEvent& e = g_events[i];
    WriteStr(fd, "span");
    WriteField(fd, "thread", e.thread_index);
    WriteField(fd, "query_id", e.query_id);
    WriteField(fd, "depth", e.depth);
    WriteField(fd, "start_ns", e.start_ns);
    WriteField(fd, "dur_ns", e.duration_ns);
    WriteStr(fd, " name=");
    WriteStr(fd, e.name);
    WriteStr(fd, "\n");
  }
  WriteStr(fd, "END\n");
}

bool WriteDumpFile(const char* reason) {
  char path[768];
  path[0] = '\0';
  AppendStr(path, sizeof(path), g_triage_dir);
  AppendStr(path, sizeof(path), "/treesim_triage.");
  char num[26];
  FormatInt(num, NowUnixMicrosRaw() / 1000000);
  AppendStr(path, sizeof(path), num);
  AppendStr(path, sizeof(path), ".");
  FormatInt(num, static_cast<int64_t>(getpid()));
  AppendStr(path, sizeof(path), num);
  AppendStr(path, sizeof(path), ".txt");

  const int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  WriteDumpToFd(fd, reason);
  close(fd);
  memcpy(g_last_path, path, sizeof(path));
  return true;
}

const char* SignalName(int signo) {
  switch (signo) {
    case SIGABRT:
      return "SIGABRT";
    case SIGSEGV:
      return "SIGSEGV";
    case SIGBUS:
      return "SIGBUS";
    case SIGFPE:
      return "SIGFPE";
    case SIGILL:
      return "SIGILL";
    default:
      return "signal";
  }
}

void CrashHandler(int signo) {
  // One shot: a fault inside the dump writer (or a second crashing
  // thread) must not recurse; fall straight through to the default
  // disposition so the process still dies with the right status.
  if (g_in_handler.exchange(1, std::memory_order_acq_rel) == 0) {
    WriteDumpFile(SignalName(signo));
  }
  signal(signo, SIG_DFL);
  raise(signo);
}

/// TREESIM_CHECK fatal hook: stash the diagnostic so the SIGABRT that
/// std::abort raises next dumps it. Newlines flatten to spaces to keep
/// the dump line-oriented.
void StashFatalMessage(const char* message) {
  size_t i = 0;
  for (; message[i] != '\0' && i + 1 < sizeof(g_fatal_message); ++i) {
    const char c = message[i];
    g_fatal_message[i] = (c == '\n' || c == '\r') ? ' ' : c;
  }
  g_fatal_message[i] = '\0';
}

}  // namespace

void InstallCrashHandler() {
  if (g_installed.exchange(true, std::memory_order_acq_rel)) return;
  // Warm every singleton the handler reads, so it never runs a lazy
  // initializer at crash time.
  g_flight = &FlightRecorder::Global();
  internal_logging::SetFatalHook(&StashFatalMessage);
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_handler = &CrashHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  const int signals[] = {SIGABRT, SIGSEGV, SIGBUS, SIGFPE, SIGILL};
  for (const int signo : signals) {
    sigaction(signo, &action, nullptr);
  }
}

void SetTriageDir(const char* dir) {
  if (dir == nullptr || dir[0] == '\0') return;
  size_t i = 0;
  for (; dir[i] != '\0' && i + 1 < sizeof(g_triage_dir); ++i) {
    g_triage_dir[i] = dir[i];
  }
  g_triage_dir[i] = '\0';
}

bool WriteTriageDump(const char* reason) {
  return WriteDumpFile(reason == nullptr ? "requested" : reason);
}

const char* LastTriagePath() { return g_last_path; }

}  // namespace treesim
