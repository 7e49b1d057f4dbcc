# Bad command-line flags exit 2 with exactly one
# "<program>: <error> (see --help)" line on stderr and nothing on stdout
# — never an abort — and before any store I/O or sweep: the --store
# directory (micro_kernels' --out_dir) is never created. --help lists
# the grids' own flags.
#
#   cmake -DSWEEP_FLEET=<path to sweep_fleet> \
#         -DSWEEP_MERGE=<path to sweep_merge> \
#         -DMICRO_KERNELS=<path to micro_kernels> \
#         -DQUICKSTART=<path to quickstart> -DSTORE=<unused dir> \
#         -P cli_bad_flags.cmake

function(expect_exit_2 program)
  execute_process(COMMAND ${program} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  get_filename_component(name ${program} NAME)
  list(JOIN ARGN " " args)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${name} ${args}: exit '${rc}', want 2\n${err}")
  endif()
  if(NOT err MATCHES "^${name}: [^\n]+ \\(see --help\\)\n$"
     OR NOT out STREQUAL "")
    message(FATAL_ERROR "${name} ${args}: want one error line, got:\n"
                        "${out}${err}")
  endif()
  if(EXISTS ${STORE})
    message(FATAL_ERROR "${name} ${args}: a rejected command line created "
                        "the store ${STORE}")
  endif()
  string(STRIP "${err}" line)
  message(STATUS "${name} ${args} -> ${line}")
  set(last_error "${line}" PARENT_SCOPE)
endfunction()

# The last rejection said why: its error line matches <regex>.
function(expect_error regex)
  if(NOT last_error MATCHES "${regex}")
    message(FATAL_ERROR "want an error matching '${regex}': ${last_error}")
  endif()
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
expect_error("registered: ")
# --set reaches only the selected grids and no fleet-managed flag.
expect_exit_2(${SWEEP_FLEET} --store ${STORE} --list-scenarios
              --set fig5b_fault_count.store=x)
expect_error("fleet-managed flag --store")
expect_exit_2(${SWEEP_FLEET} --store ${STORE} --list-scenarios
              --grids fig5b_fault_count --set fig2_vth_sweep.epochs=1)
expect_error("not among the selected grids")
# Fleet layout flags. Worker i would reject a malformed spec only after
# forking, so the fleet validates it up front. --list-scenarios keeps a
# regression cheap: a command line that slipped through would list the
# grid and exit 0 instead of sweeping it.
expect_exit_2(${SWEEP_FLEET} --store ${STORE} --list-scenarios --hosts 2
              --worker-faults 1:mode=independent)
expect_error("requires p=")
expect_exit_2(${SWEEP_FLEET} --store ${STORE} --list-scenarios --hosts -1)
expect_exit_2(${SWEEP_FLEET} --store ${STORE} --list-scenarios
              --sweep-parallel -5)
expect_error("--sweep-parallel must be >= 0")
# A negative thread count is an error, not the hardware concurrency.
expect_exit_2(${SWEEP_FLEET} --store ${STORE} --grids gesture_pipeline
              --list-scenarios --threads -3)
expect_error("--threads must be >= 0")
expect_exit_2(${SWEEP_FLEET} --store ${STORE} --list-scenarios
              --worker-faults 0:mode=runlength,runlen=1,kill=1)
expect_exit_2(${SWEEP_FLEET} --list-scenarios)
# A substituter that is not a store is a usage error, caught before the
# fleet creates its own store.
expect_exit_2(${SWEEP_FLEET} --store ${STORE} --substituters ${STORE}_nope)
expect_error("is not a store")
# A malformed --faults spec, in both drivers, and a store-less merge.
expect_exit_2(${SWEEP_FLEET} --store ${STORE} --list-scenarios
              --faults mode=independent)
expect_error("requires p=")
expect_exit_2(${SWEEP_MERGE} --into ${STORE} --faults mode=independent)
expect_error("requires p=")
expect_exit_2(${SWEEP_MERGE} --prune)
expect_error("--into is required")
expect_exit_2(${SWEEP_MERGE} --bogus)
# A table needs its grid: checked before --from is read or --into made.
expect_exit_2(${SWEEP_MERGE} --into ${STORE} --from ${STORE}_nope
              --csv ${STORE}.csv)
expect_error("--bench or --manifest")

# micro_kernels takes only --out_dir, --json and --threads: a
# google-benchmark flag is as unknown as any other.
expect_exit_2(${MICRO_KERNELS} --out_dir=${STORE} --benchmark_min_time=0)
expect_exit_2(${MICRO_KERNELS} --out_dir=${STORE} --threads=abc)
expect_exit_2(${MICRO_KERNELS} --out_dir=${STORE} --threads=-2)
expect_error("--threads must be >= 0")

# quickstart keeps the same contract.
expect_exit_2(${QUICKSTART} --fast --threads -3)
expect_error("^quickstart: --threads must be >= 0")

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
