# Bad command-line flags exit 2 with exactly one
# "<program>: <error> (see --help)" line on stderr — never an abort.
#
#   cmake -DFIG5B=<path to fig5b_fault_count> \
#         -DSWEEP_MERGE=<path to sweep_merge> -P cli_bad_flags.cmake

function(expect_exit_2 program)
  execute_process(COMMAND ${program} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  get_filename_component(name ${program} NAME)
  list(JOIN ARGN " " args)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${name} ${args}: exit '${rc}', want 2\n${err}")
  endif()
  if(NOT err MATCHES "^${name}: [^\n]+ \\(see --help\\)\n$")
    message(FATAL_ERROR "${name} ${args}: want one error line, got:\n${err}")
  endif()
  string(STRIP "${err}" line)
  message(STATUS "${name} ${args} -> ${line}")
endfunction()

expect_exit_2(${FIG5B} --bogus-flag)
expect_exit_2(${FIG5B} --repeats abc)
expect_exit_2(${SWEEP_MERGE} --bogus)
