# End-to-end contracts of sweep_fleet on a tiny eval-only fleet: the
# fig5b grid at one repeat and a one-die chip_salvage lot (chip 0 is a
# clean die, so no cell retrains), MNIST only.
#
#   1. a cold, traced run writes both figure CSVs, each in its bench's
#      schema;
#   2. FALVOLT_FORCE_SCALAR=1 into a second store, untraced, gives
#      byte-identical figure CSVs and <store>/tables/ (the vectorized
#      faulty GEMM is bit-identical to the scalar reference, and tracing
#      is observation only);
#   3. a warm re-run computes nothing and rewrites identical CSVs;
#   4. --hosts 2 --resume false recomputes every cell once, on the
#      workers; the daemon's in-process pass only replays them.
#
# Run from a scratch working directory with $FALVOLT_CACHE_DIR set (the
# baseline cache is kept across runs; stores and outputs are not):
#
#   cmake -DSWEEP_FLEET=<path to sweep_fleet> -P fleet_smoke.cmake

set(FLAGS --fast --datasets mnist --repeats 1
    --grids fig5b_fault_count,chip_salvage_triage
    --set fig5b_fault_count.eval-samples=24,chip_salvage_triage.chips=1)
set(FIGURES fig5b_fault_count chip_salvage_triage)
set(root ${CMAKE_CURRENT_BINARY_DIR})

# Runs sweep_fleet ${FLAGS} ${ARGN} in ${root}/<dir>; any failure is fatal.
function(fleet dir)
  execute_process(COMMAND ${SWEEP_FLEET} ${FLAGS} ${ARGN}
                  WORKING_DIRECTORY ${root}/${dir}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    list(JOIN ARGN " " args)
    message(FATAL_ERROR "sweep_fleet ${args} (in ${dir}): exit ${rc}\n"
                        "${out}\n${err}")
  endif()
endfunction()

function(expect_same_file a b)
  file(READ ${a} bytes_a)
  file(READ ${b} bytes_b)
  if(NOT bytes_a STREQUAL bytes_b)
    message(FATAL_ERROR "${a} and ${b} differ")
  endif()
endfunction()

# The figure CSVs in ${root}/<dir> match the cold run's, byte for byte.
function(expect_cold_figures dir)
  foreach(bench ${FIGURES})
    expect_same_file(${root}/cold/${bench}.csv ${root}/${dir}/${bench}.csv)
  endforeach()
endfunction()

foreach(dir cold scalar hosts ref)
  file(REMOVE_RECURSE ${root}/${dir})
  file(MAKE_DIRECTORY ${root}/${dir})
endforeach()

# 1. Cold, traced run: both figures, each in its own schema.
fleet(cold --store S --json cold.json --trace trace.json)
foreach(expect
    "fig5b_fault_count|dataset,faulty_pes,fault_rate_percent,accuracy,stddev"
    "chip_salvage_triage|chip,grade,detected_faults,accuracy")
  string(REPLACE "|" ";" expect "${expect}")
  list(GET expect 0 bench)
  list(GET expect 1 header)
  if(NOT EXISTS ${root}/cold/${bench}.csv)
    message(FATAL_ERROR "the cold fleet wrote no ${bench}.csv")
  endif()
  file(STRINGS ${root}/cold/${bench}.csv first LIMIT_COUNT 1)
  if(NOT first STREQUAL header)
    message(FATAL_ERROR "${bench}.csv header '${first}', want '${header}'")
  endif()
endforeach()

# 2. Forced-scalar faulty GEMM, untraced, into a second store: same
#    bytes.
execute_process(COMMAND ${CMAKE_COMMAND} -E env FALVOLT_FORCE_SCALAR=1
                        ${SWEEP_FLEET} ${FLAGS} --store S
                WORKING_DIRECTORY ${root}/scalar
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "forced-scalar fleet: exit ${rc}\n${out}\n${err}")
endif()
expect_cold_figures(scalar)
file(GLOB cold_tables RELATIVE ${root}/cold/S/tables ${root}/cold/S/tables/*)
file(GLOB scalar_tables RELATIVE ${root}/scalar/S/tables
     ${root}/scalar/S/tables/*)
if(NOT cold_tables STREQUAL scalar_tables OR NOT cold_tables)
  message(FATAL_ERROR "tables/ differ: '${cold_tables}' vs '${scalar_tables}'")
endif()
foreach(table ${cold_tables})
  expect_same_file(${root}/cold/S/tables/${table}
                   ${root}/scalar/S/tables/${table})
endforeach()

# 3. Warm re-run: zero cells computed, the same figures rewritten.
foreach(bench ${FIGURES})
  file(RENAME ${root}/cold/${bench}.csv ${root}/ref/${bench}.csv)
endforeach()
fleet(cold --store S --json warm.json)
file(READ ${root}/cold/warm.json warm)
string(FIND "${warm}" "\"cells_computed\": 0," at)
if(at EQUAL -1)
  message(FATAL_ERROR "the warm re-run computed cells:\n${warm}")
endif()
foreach(bench ${FIGURES})
  expect_same_file(${root}/ref/${bench}.csv ${root}/cold/${bench}.csv)
endforeach()

# 4. Daemon recompute: the workers compute every cell exactly once; the
#    in-process pass that follows replays them (computes nothing).
fleet(hosts --store ${root}/cold/S --hosts 2 --resume false
      --json hosts.json)
file(READ ${root}/hosts/hosts.json json)
string(JSON computed GET "${json}" run cells_computed)
string(JSON grids LENGTH "${json}" grids)
math(EXPR last "${grids} - 1")
set(cells 0)
foreach(g RANGE ${last})
  string(JSON bench GET "${json}" grids ${g} bench)
  string(JSON n GET "${json}" grids ${g} cells)
  string(JSON grid_computed GET "${json}" grids ${g} computed)
  math(EXPR cells "${cells} + ${n}")
  if(NOT grid_computed EQUAL 0)
    message(FATAL_ERROR "--hosts 2 --resume false: the in-process pass "
                        "recomputed ${grid_computed} ${bench} cell(s)")
  endif()
endforeach()
if(NOT computed EQUAL cells)
  message(FATAL_ERROR "--hosts 2 --resume false: run.cells_computed "
                      "${computed}, want every cell (${cells})")
endif()
expect_cold_figures(hosts)
message(STATUS "fleet_smoke: ${cells} cells; cold, forced-scalar, warm "
               "and --hosts 2 figures identical")
