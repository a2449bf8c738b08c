# Reruns a deterministic bench binary and compares its stdout and its
# `--json` report byte for byte against recorded fixtures.
#
#   cmake -DBENCH=<binary> -DFIXTURE=<fixture path prefix> -DOUT=<output prefix>
#         -P compare_fixture.cmake
#
# Expects <FIXTURE>.stdout (stdout of a plain run) and <FIXTURE>.json (the
# file `--json` writes). Outputs land at <OUT>.stdout / <OUT>.json so a
# mismatch can be inspected with diff.

# The benches also honor $LAZYDRAM_JSON; a set variable would add a
# "JSON report written" line to the plain run's stdout.
set(ENV{LAZYDRAM_JSON} "")

execute_process(COMMAND ${BENCH} OUTPUT_FILE ${OUT}.stdout RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND ${BENCH} --json ${OUT}.json OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} --json exited with ${rc}")
endif()

foreach(ext stdout json)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}.${ext} ${FIXTURE}.${ext}
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${OUT}.${ext} differs from the fixture ${FIXTURE}.${ext}")
  endif()
endforeach()
