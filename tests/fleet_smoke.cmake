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
#      workers; the daemon's in-process pass only replays them;
#   5. a damaged record in the second store lists as the one MISS and
#      is the one cell the next run recomputes;
#   6. the fig5b grid alone, run as two shards into separate stores,
#      writes no figure; sweep_merge unions the shards into the table
#      the cold store holds, and warm runs over the merged store, the
#      compacted store, and a fresh store substituting from the cold one
#      compute nothing and write the cold figure (the fresh store's
#      --list-scenarios, run before it exists, already lists no MISS).
#      Missing merge sources and substituters fail.
#
# Run from a scratch working directory with $FALVOLT_CACHE_DIR set (the
# baseline cache is kept across runs; stores and outputs are not):
#
#   cmake -DSWEEP_FLEET=<path to sweep_fleet> \
#         -DSWEEP_MERGE=<path to sweep_merge> -P fleet_smoke.cmake

set(FLAGS --fast --datasets mnist --repeats 1
    --grids fig5b_fault_count,chip_salvage_triage
    --set fig5b_fault_count.eval-samples=24,chip_salvage_triage.chips=1)
set(FIGURES fig5b_fault_count chip_salvage_triage)
set(root ${CMAKE_CURRENT_BINARY_DIR})

# Runs the command ${ARGN} in ${root}/<dir>; any failure is fatal. Its
# standard output lands in ${run_out}.
function(run dir)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY ${root}/${dir}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    list(JOIN ARGN " " args)
    message(FATAL_ERROR "${args} (in ${dir}): exit ${rc}\n${out}\n${err}")
  endif()
  set(run_out "${out}" PARENT_SCOPE)
endfunction()

# Runs the command ${ARGN} in ${root}/<dir>; it must fail.
function(expect_failure dir)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY ${root}/${dir}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(rc EQUAL 0)
    list(JOIN ARGN " " args)
    message(FATAL_ERROR "${args} (in ${dir}): exit 0, want a failure")
  endif()
endfunction()

# Runs sweep_fleet ${FLAGS} ${ARGN} in ${root}/<dir>.
function(fleet dir)
  run(${dir} ${SWEEP_FLEET} ${FLAGS} ${ARGN})
  set(run_out "${run_out}" PARENT_SCOPE)
endfunction()

# The fleet summary <json> reports exactly <n> computed cells.
function(expect_computed json n)
  file(READ ${json} body)
  string(FIND "${body}" "\"cells_computed\": ${n}," at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${json}: want ${n} computed cell(s):\n${body}")
  endif()
endfunction()

# No loose record is left under <store>/objects.
function(expect_no_records store)
  file(GLOB_RECURSE recs ${store}/objects/*.rec)
  if(recs)
    message(FATAL_ERROR "${store} holds loose records: ${recs}")
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

foreach(dir cold scalar hosts ref shard)
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
expect_computed(${root}/cold/warm.json 0)
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

# 5. A damaged record reads as a miss: --list-scenarios shows it as the
#    one MISS, and the next run recomputes exactly that cell. Damages
#    the forced-scalar store, which no later leg reads.
file(GLOB_RECURSE recs ${root}/scalar/S/objects/*.rec)
list(GET recs 0 rec)
file(WRITE ${rec} "torn")
fleet(scalar --store S --list-scenarios)
string(REGEX MATCHALL " MISS " misses "${run_out}")
list(LENGTH misses n_miss)
if(NOT n_miss EQUAL 1)
  message(FATAL_ERROR "a damaged record must list as the one MISS, got "
                      "${n_miss}:\n${run_out}")
endif()
fleet(scalar --store S --json damaged.json)
expect_computed(${root}/scalar/damaged.json 1)
expect_cold_figures(scalar)

# 6. Sharded fig5b runs, merged, compacted and substituted. The cold
#    store is the unsharded reference (a fig5b cell has the same
#    fingerprint whichever grids run beside it). fig5b alone: a
#    one-die chip_salvage grid would complete inside shard 0.
set(FLAGS --fast --datasets mnist --repeats 1 --grids fig5b_fault_count
    --set fig5b_fault_count.eval-samples=24)
set(cold_store ${root}/cold/S)
fleet(shard --store A --shard 0/2)
fleet(shard --store B --shard 1/2)
if(EXISTS ${root}/shard/fig5b_fault_count.csv)
  message(FATAL_ERROR "a shard that leaves cells to another wrote a figure")
endif()
run(shard ${SWEEP_MERGE} --into M --from A,B --bench fig5b_fault_count
    --csv merged.csv)
run(shard ${SWEEP_MERGE} --into ${cold_store} --bench fig5b_fault_count
    --csv unsharded.csv)
expect_same_file(${root}/shard/unsharded.csv ${root}/shard/merged.csv)
expect_failure(shard ${SWEEP_MERGE} --into M --from no_such_store)

fleet(shard --store M --json merged.json)
expect_computed(${root}/shard/merged.json 0)
expect_same_file(${root}/ref/fig5b_fault_count.csv
                 ${root}/shard/fig5b_fault_count.csv)

run(shard ${SWEEP_MERGE} --into M --compact)
expect_no_records(${root}/shard/M)
file(REMOVE ${root}/shard/fig5b_fault_count.csv)
fleet(shard --store M --json compacted.json)
expect_computed(${root}/shard/compacted.json 0)
expect_same_file(${root}/ref/fig5b_fault_count.csv
                 ${root}/shard/fig5b_fault_count.csv)

file(REMOVE ${root}/shard/fig5b_fault_count.csv)
fleet(shard --store SUB --substituters ${cold_store} --list-scenarios)
string(REGEX MATCHALL " MISS " misses "${run_out}")
if(misses OR EXISTS ${root}/shard/SUB)
  message(FATAL_ERROR "listing a fresh store over a complete substituter "
                      "must show no MISS and create nothing:\n${run_out}")
endif()
fleet(shard --store SUB --substituters ${cold_store} --json sub.json)
expect_computed(${root}/shard/sub.json 0)
expect_no_records(${root}/shard/SUB)
expect_same_file(${root}/ref/fig5b_fault_count.csv
                 ${root}/shard/fig5b_fault_count.csv)
expect_failure(shard ${SWEEP_FLEET} ${FLAGS} --store SUB2
               --substituters no_such_store)

message(STATUS "fleet_smoke: ${cells} cells; cold, forced-scalar, warm, "
               "--hosts 2, damaged-record, sharded-merge, compacted and "
               "substituted figures identical")
