# Bad command-line flags exit 2 with exactly one
# "<program>: <error> (see --help)" line on stderr — never an abort —
# and before any store I/O: the --store directory is never created.
# --help lists the grids' own flags.
#
#   cmake -DSWEEP_FLEET=<path to sweep_fleet> \
#         -DSWEEP_MERGE=<path to sweep_merge> -DSTORE=<unused dir> \
#         -P cli_bad_flags.cmake

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
  if(EXISTS ${STORE})
    message(FATAL_ERROR "${name} ${args}: a rejected command line created "
                        "the store ${STORE}")
  endif()
  string(STRIP "${err}" line)
  message(STATUS "${name} ${args} -> ${line}")
  set(last_error "${line}" PARENT_SCOPE)
endfunction()

file(REMOVE_RECURSE ${STORE})
expect_exit_2(${SWEEP_FLEET} --store ${STORE} --bogus-flag)
expect_exit_2(${SWEEP_FLEET} --store ${STORE} --repeats abc)
# Bench flags arrive through --set and keep the same contract.
expect_exit_2(${SWEEP_FLEET} --store ${STORE}
              --set fig5b_fault_count.bogus=1)
expect_exit_2(${SWEEP_FLEET} --store ${STORE}
              --set fig5b_fault_count.eval-samples=abc)
expect_exit_2(${SWEEP_FLEET} --store ${STORE} --set nodot)
expect_exit_2(${SWEEP_FLEET} --store ${STORE} --grids no_such_grid)
if(NOT last_error MATCHES "registered: ")
  message(FATAL_ERROR "unknown grid must list the registered ones")
endif()
# Fleet layout flags. Worker i would reject a malformed spec only after
# forking, so the fleet validates it up front. --list-scenarios keeps a
# regression cheap: a command line that slipped through would list the
# grid and exit 0 instead of sweeping it.
expect_exit_2(${SWEEP_FLEET} --store ${STORE} --list-scenarios --hosts 2
              --worker-faults 1:mode=independent)
if(NOT last_error MATCHES "requires p=")
  message(FATAL_ERROR "a malformed --worker-faults spec must say why")
endif()
expect_exit_2(${SWEEP_FLEET} --store ${STORE} --list-scenarios --hosts -1)
expect_exit_2(${SWEEP_FLEET} --store ${STORE} --list-scenarios
              --worker-faults 0:mode=runlength,runlen=1,kill=1)
expect_exit_2(${SWEEP_FLEET} --list-scenarios)
# A substituter that is not a store is a usage error, caught before the
# fleet creates its own store.
expect_exit_2(${SWEEP_FLEET} --store ${STORE} --substituters ${STORE}_nope)
if(NOT last_error MATCHES "is not a store")
  message(FATAL_ERROR "a missing substituter must say why")
endif()
expect_exit_2(${SWEEP_MERGE} --bogus)

# Bench flags are set with --set, so --help lists every grid's own.
execute_process(COMMAND ${SWEEP_FLEET} --help
                RESULT_VARIABLE rc OUTPUT_VARIABLE help ERROR_QUIET)
foreach(flag --eval-samples --faulty-pes --target-drop --chips
        --defect-rate --accept-drop)
  string(FIND "${help}" "${flag} (default" at)
  if(NOT rc EQUAL 0 OR at EQUAL -1)
    message(FATAL_ERROR "sweep_fleet --help (exit ${rc}) lists no ${flag}")
  endif()
endforeach()
