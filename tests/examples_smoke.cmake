# The examples run on their fastest settings: each exits 0 and prints
# its result line. quickstart --fast ends with the "summary: baseline
# ..." line of its train -> inject -> FaP -> FalVolt flow, and
# vulnerability_report with its "Recommendation: ..." line.
#
# Run with $FALVOLT_CACHE_DIR set (the baseline cache is kept across
# runs):
#
#   cmake -DQUICKSTART=<path to quickstart> \
#         -DVULNERABILITY_REPORT=<path to vulnerability_report> \
#         -P examples_smoke.cmake

# Runs the command ${ARGN}: it must exit 0 and print a line that starts
# with <prefix> (a regex).
function(expect_line prefix)
  execute_process(COMMAND ${ARGN} TIMEOUT 300
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  list(JOIN ARGN " " args)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${args}: exit ${rc}\n${out}\n${err}")
  endif()
  string(REGEX MATCH "(^|\n)${prefix}[^\n]*" line "${out}")
  if(line STREQUAL "")
    message(FATAL_ERROR "${args}: no line starting with '${prefix}'\n${out}")
  endif()
  string(STRIP "${line}" line)
  message(STATUS "${args} -> ${line}")
endfunction()

expect_line("summary: baseline " ${QUICKSTART} --fast)
expect_line("Recommendation:" ${VULNERABILITY_REPORT})
