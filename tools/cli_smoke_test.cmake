# Smoke test for treesim_cli, run by ctest:
#   cmake -DCLI=<binary> -DTMP=<scratch dir> -P cli_smoke_test.cmake
# Exercises the full command surface on a small generated dataset and fails
# on any non-zero exit or missing expected output.

function(run_cli expect_substring)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "treesim_cli ${ARGN} failed (${code}): ${err}")
  endif()
  if(NOT "${expect_substring}" STREQUAL "" AND
     NOT out MATCHES "${expect_substring}")
    message(FATAL_ERROR
      "treesim_cli ${ARGN}: expected output matching '${expect_substring}', "
      "got: ${out}")
  endif()
endfunction()

file(MAKE_DIRECTORY ${TMP})
set(data ${TMP}/cli_smoke.trees)
set(xml ${TMP}/cli_smoke.xml)

run_cli("build_type" --version)
run_cli("git_sha" version)
run_cli("wrote" generate --kind=dblp --count=80 --out=${data} --seed=5)
run_cli("trees: +80" stats --data=${data})
run_cli("exact edit distance: +3"
        distance "--a=a{b{c d} b{c d} e}" "--b=a{b{c d b{e}} c d e}")
run_cli("cost 2" mapping "--a=a{b c}" "--b=a{x c d}")
run_cli("2 operations" patch "--a=a{b c}" "--b=a{x c d}")
run_cli("matches within distance" range --data=${data}
        "--query=article{author{auth0} title{ttl1} year{y0} journal{venue0}}"
        --tau=3)
run_cli("nearest neighbors" knn --data=${data}
        "--query=article{author{auth0} title{ttl1} year{y0} journal{venue0}}"
        --k=3)
run_cli("pairs within distance" join --data=${data} --tau=1)
run_cli("cost=" cluster --data=${data} --k=3)

file(WRITE ${xml}
  "<dblp><article><author>A</author><title>T</title></article>"
  "<www><author>B</author><url/></www></dblp>")
run_cli("imported 2 records" import --xml=${xml} --out=${TMP}/imported.trees)
run_cli("trees: +2" stats --data=${TMP}/imported.trees)

# An integer flag outside its domain is an InvalidArgument (exit 1), not a
# CHECK abort (134) or a silent wrap: assert the exact code.
function(run_cli_rejects)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT code EQUAL 1 OR NOT err MATCHES "INVALID_ARGUMENT")
    message(FATAL_ERROR
      "treesim_cli ${ARGN}: expected exit 1 with INVALID_ARGUMENT, "
      "got ${code}: ${err}")
  endif()
endfunction()

set(query "--query=article{author{auth0} title{ttl1} year{y0} journal{venue0}}")
set(small ${TMP}/cli_smoke_3.trees)
run_cli("wrote" generate --kind=dblp --count=3 --out=${small} --seed=5)
run_cli_rejects(knn --data=${data} ${query} --k=0)
run_cli_rejects(knn --data=${data} ${query} --k=4294967297)
run_cli_rejects(knn --data=${data} ${query} --k=abc)
run_cli_rejects(range --data=${data} ${query} --tau=4294967296)
run_cli_rejects(range --data=${data} ${query} --tau=-1)
run_cli_rejects(join --data=${data} --tau=1 --threads=-1)
run_cli_rejects(cluster --data=${small} --k=0)
run_cli_rejects(cluster --data=${small} --k=4)
run_cli("cost=" cluster --data=${small} --k=3)
run_cli_rejects(distance "--a=a{b}" "--b=a{c}" --q=1)
run_cli_rejects(generate --kind=synthetic --count=-5 --out=${TMP}/never.trees)
run_cli_rejects(generate --kind=synthetic --labels=0 --out=${TMP}/never.trees)
# Real-valued flags: the generator's decay CHECK, its float-to-int draws,
# and a parse failure must all be refused up front.
foreach(bad --decay=2 --decay=nan --size=nan --size=1e300 --fanout=inf
            --size=-5 --size=abc)
  run_cli_rejects(generate --kind=synthetic ${bad} --out=${TMP}/never.trees)
endforeach()
run_cli("wrote" generate --kind=synthetic --count=5 --size=20 --fanout=3
        --decay=0.1 --out=${TMP}/real_flags.trees)
run_cli_rejects(stats --data=${data} --flight-recorder=-1)
# A flag the command does not read is refused before it runs: a misspelt
# --tau would otherwise answer at the default distance, and range and knn
# have no pool.
run_cli_rejects(range --data=${data} ${query} --tua=5)
run_cli_rejects(range --data=${data} ${query} --threads=4)
run_cli_rejects(knn --data=${data} ${query} --threads=2)
run_cli_rejects(import --xml=${xml} --out=${TMP}/never.trees
                --structure-only=ture)
run_cli("imported 2 records" import --xml=${xml} --out=${TMP}/bare.trees
        --structure-only)

# Error paths exit non-zero.
execute_process(COMMAND ${CLI} stats --data=/no/such/file
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "stats on a missing file should fail")
endif()
execute_process(COMMAND ${CLI} bogus-command
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "unknown command should fail")
endif()

message(STATUS "cli smoke test passed")
