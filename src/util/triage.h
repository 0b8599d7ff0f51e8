#ifndef TREESIM_UTIL_TRIAGE_H_
#define TREESIM_UTIL_TRIAGE_H_

/// Crash-time triage: an async-signal-safe fatal handler that preserves
/// the process's in-memory telemetry — metrics, flight-recorder records,
/// per-thread trace-ring tails, build provenance — as a line-oriented
/// text file the moment a TREESIM_CHECK fails or a fatal signal arrives.
/// A flight record is one `record` line: every kFlightFields key as
/// `key=value` (util/flight_recorder.h), then `op=` and `slow=0|1`.
/// Render with tools/triage_report.py.
///
/// The implementation TU (triage.cc) is held to strict async-signal-safety
/// by the `sigsafe` rule in tools/lint_treesim.py: no allocation, no
/// stdio, no locks, no std::string — only write()/open()/close(),
/// clock_gettime(), getpid(), sigaction()/signal()/raise(), and relaxed
/// atomic loads of pre-registered telemetry (see CrashMetricViews,
/// FlightRecorder::CrashSnapshot, TraceCrashTail).
///
/// Everything here works under -DTREESIM_METRICS=OFF too: the dump is
/// still written, with `metrics_enabled 0` and empty telemetry sections.

namespace treesim {

/// Installs the fatal-signal handlers (SIGABRT/SIGSEGV/SIGBUS/SIGFPE/
/// SIGILL) and the TREESIM_CHECK fatal hook, and warms the singletons the
/// handler must not lazily construct. Idempotent; call early in main().
void InstallCrashHandler();

/// Directory triage dumps are written into (copied into fixed storage;
/// default "."). The file name is treesim_triage.<unixsec>.<pid>.txt.
void SetTriageDir(const char* dir);

/// Writes a triage dump now (no crash required — the CLI's
/// --flight-recorder debugging path and tests use this). Async-signal-safe.
/// Returns false when the file could not be created.
bool WriteTriageDump(const char* reason);

/// Path of the most recently written dump ("" when none yet). Points at
/// fixed storage; valid for the process lifetime.
const char* LastTriagePath();

}  // namespace treesim

#endif  // TREESIM_UTIL_TRIAGE_H_
