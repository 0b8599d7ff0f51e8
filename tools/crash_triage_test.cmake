# Crash-diagnostics test, run by ctest:
#   cmake -DCLI=<binary> -DTMP=<scratch dir> -DPYTHON=<python3>
#         -DREPORT=<triage_report.py> -DMETRICS=<ON|OFF>
#         -P crash_triage_test.cmake
#
# Two halves:
#  1. (metrics builds only) One knn run emits --trace, --query-log and
#     Prometheus --metrics simultaneously; triage_report.py --check-join
#     asserts a single query id appears in all three — the end-to-end
#     proof that query-context propagation joins the streams.
#  2. A child treesim_cli is crashed on purpose (crash-selftest drives a
#     TREESIM_CHECK failure -> SIGABRT -> triage handler); the test then
#     requires exactly the triage dump the handler promised: present,
#     parseable by triage_report.py, and — in metrics builds — carrying
#     the flight-recorder records the child seeded before dying.

file(REMOVE_RECURSE ${TMP})
file(MAKE_DIRECTORY ${TMP})
set(data ${TMP}/crash_triage.trees)

function(require_zero code what err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${what} failed (${code}): ${err}")
  endif()
endfunction()

execute_process(
  COMMAND ${CLI} generate --kind=dblp --count=60 --out=${data} --seed=7
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
require_zero(${code} "generate" "${err}")

if(METRICS)
  # --- Half 1: joinable observability streams from one query run. ---
  execute_process(
    COMMAND ${CLI} knn --data=${data}
      "--query=article{author{auth0} title{ttl1} year{y0} journal{venue0}}"
      --k=3
      --flight-recorder=4
      --trace=${TMP}/trace.json
      --query-log=${TMP}/qlog.jsonl
      --metrics=prometheus --metrics-out=${TMP}/metrics.prom
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  require_zero(${code} "knn with full observability" "${err}")
  if(NOT out MATCHES "== flight recorder")
    message(FATAL_ERROR "knn --flight-recorder did not print records: ${out}")
  endif()
  if(NOT out MATCHES "op=knn")
    message(FATAL_ERROR "flight recorder dump is missing the knn record: ${out}")
  endif()

  execute_process(
    COMMAND ${PYTHON} ${REPORT} --check-join
      ${TMP}/trace.json ${TMP}/qlog.jsonl ${TMP}/metrics.prom
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  require_zero(${code} "triage_report.py --check-join" "${out}${err}")
else()
  # Metrics-off builds must refuse the flag rather than silently no-op.
  execute_process(
    COMMAND ${CLI} knn --data=${data} "--query=a{b}" --k=1 --flight-recorder=4
    RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
  if(code EQUAL 0)
    message(FATAL_ERROR
      "--flight-recorder should be an error in a metrics-off build")
  endif()
endif()

# --- Half 2: crash a child and demand a parseable dump. ---
execute_process(
  COMMAND ${CLI} crash-selftest --mode=check --triage-dir=${TMP}
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "crash-selftest --mode=check should die, got exit 0")
endif()

file(GLOB dumps ${TMP}/treesim_triage.*.txt)
list(LENGTH dumps dump_count)
if(dump_count EQUAL 0)
  message(FATAL_ERROR "crash produced no triage dump in ${TMP}")
endif()
list(GET dumps 0 dump)

execute_process(
  COMMAND ${PYTHON} ${REPORT} ${dump}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
require_zero(${code} "triage_report.py on ${dump}" "${out}${err}")
if(NOT out MATCHES "reason: +SIGABRT")
  message(FATAL_ERROR "dump should record SIGABRT as the reason: ${out}")
endif()
if(NOT out MATCHES "fatal message: +CHECK failed")
  message(FATAL_ERROR "dump should carry the TREESIM_CHECK text: ${out}")
endif()
if(METRICS)
  if(NOT out MATCHES "flight records: 3")
    message(FATAL_ERROR
      "dump should hold the 3 records the child seeded: ${out}")
  endif()
else()
  if(NOT out MATCHES "metrics build: +off")
    message(FATAL_ERROR "metrics-off dump should say so: ${out}")
  endif()
endif()

message(STATUS "crash triage test passed (dump: ${dump})")
