# End-to-end contracts of sweep_fleet and sweep_merge on a tiny
# eval-only fleet: the fig5b grid at one repeat and a one-die
# chip_salvage lot (chip 0 is a clean die, so no cell retrains), MNIST
# only. Each leg runs in its own directory under the working directory.
#
#   1. a cold run writes both figure CSVs, each in its bench's schema,
#      a trace and a --metrics-json dump: every trace event has phase X
#      or M, a pid and a tid, every X event a name, cat, ts and dur; one
#      cell span per computed cell, with bench, key, fingerprint, worker
#      and cached args; sweep.cells.computed == run.cells_computed; and
#      the dump names the metrics of the summary's metrics block;
#   2. FALVOLT_FORCE_SCALAR=1 into a second store, untraced, gives
#      byte-identical figure CSVs and <store>/tables/ (the vectorized
#      faulty GEMM is bit-identical to the scalar reference, and tracing
#      is observation only);
#   3. a warm re-run computes nothing and rewrites identical CSVs, also
#      after sweep_merge --prune has garbage-collected the store;
#   4. --hosts 2 --resume false recomputes every cell once, on the
#      workers; the daemon's in-process pass only replays them;
#   5. a damaged record in the second store lists as the one MISS and
#      is the one cell the next run recomputes;
#   6. --datasets over every grid skips the grids it shares no dataset
#      with and narrows the rest: mnist lists chip_salvage_triage cells,
#      mnist,nmnist fig2's MNIST and fig5b's N-MNIST cells, neither a
#      gesture_pipeline cell, and neither listing creates the store;
#   7. crash safety with two cells in flight: a run under --faults
#      mode=independent tears and bit-flips store writes and reports
#      [faults]; a runlength kill=1 run dies by SIGKILL at a PullThePlug
#      point and leaves a MISS. After each, the clean resume computes
#      exactly the MISS count and writes the cold figures and tables;
#   8. --hosts 3 with worker 1 SIGKILLed inside its first publish (rerun
#      if worker 1 claimed no cell): one death, a re-queued claim, every
#      cell counted once (run block == grids[] == workers[], stdout
#      total == run block) and the cold figures and tables. A warm
#      --hosts 3 run forks no worker and computes nothing; sweep_merge
#      refuses the store while it holds a live in-progress marker;
#   9. the fig5b grid alone, run as two shards into separate stores,
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

# Runs the command ${ARGN} in ${root}/<dir>; any failure is fatal, and
# so is a run that hangs (a daemon waiting on a lost claim, say). Its
# standard output lands in ${run_out}, its standard error in ${run_err}.
function(run dir)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY ${root}/${dir} TIMEOUT 300
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    list(JOIN ARGN " " args)
    message(FATAL_ERROR "${args} (in ${dir}): exit ${rc}\n${out}\n${err}")
  endif()
  set(run_out "${out}" PARENT_SCOPE)
  set(run_err "${err}" PARENT_SCOPE)
endfunction()

# Runs the command ${ARGN} in ${root}/<dir>; it must fail. Its standard
# error lands in ${run_err}.
function(expect_failure dir)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY ${root}/${dir}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(rc EQUAL 0)
    list(JOIN ARGN " " args)
    message(FATAL_ERROR "${args} (in ${dir}): exit 0, want a failure")
  endif()
  set(run_err "${err}" PARENT_SCOPE)
endfunction()

# Runs sweep_fleet ${FLAGS} ${ARGN} in ${root}/<dir>.
macro(fleet dir)
  run(${dir} ${SWEEP_FLEET} ${FLAGS} ${ARGN})
endmacro()

# Sets <var> to the number of cells `sweep_fleet ${FLAGS} ${ARGN}
# --list-scenarios` lists as MISS in ${root}/<dir>.
function(count_misses var dir)
  fleet(${dir} ${ARGN} --list-scenarios)
  string(REGEX MATCHALL " MISS " misses "${run_out}")
  list(LENGTH misses n)
  set(${var} ${n} PARENT_SCOPE)
  set(run_out "${run_out}" PARENT_SCOPE)
endfunction()

# The fleet summary <json> reports exactly <n> computed cells.
function(expect_computed json n)
  file(READ ${json} body)
  if(NOT body MATCHES "\"cells_computed\": ${n},")
    message(FATAL_ERROR "${json}: want ${n} computed cell(s):\n${body}")
  endif()
endfunction()

# Sets <var> to the sum of <member> over the array <array> of <json>
# (an empty array is an error).
function(json_sum var json array member)
  string(JSON n LENGTH "${json}" ${array})
  math(EXPR last "${n} - 1")
  set(sum 0)
  foreach(i RANGE ${last})
    string(JSON value GET "${json}" ${array} ${i} ${member})
    math(EXPR sum "${sum} + ${value}")
  endforeach()
  set(${var} ${sum} PARENT_SCOPE)
endfunction()

# The JSON object <json> (a <what>) has every member named in ${ARGN}.
function(expect_members what json)
  foreach(member ${ARGN})
    string(JSON value ERROR_VARIABLE missing GET "${json}" ${member})
    if(missing)
      message(FATAL_ERROR "${what} has no '${member}': ${json}")
    endif()
  endforeach()
endfunction()

# Sets <var> to the member names of the "metrics" object of <json> (an
# empty object is an error).
function(metric_names var json)
  string(JSON n LENGTH "${json}" metrics)
  math(EXPR last "${n} - 1")
  foreach(i RANGE ${last})
    string(JSON name MEMBER "${json}" metrics ${i})
    list(APPEND names ${name})
  endforeach()
  set(${var} "${names}" PARENT_SCOPE)
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
    expect_same_file(${root}/ref/${bench}.csv ${root}/${dir}/${bench}.csv)
  endforeach()
endfunction()

# The store ${root}/<dir>/S holds the cold store's generic tables, the
# same files byte for byte.
function(expect_cold_tables dir)
  file(GLOB want RELATIVE ${root}/cold/S/tables ${root}/cold/S/tables/*)
  file(GLOB got RELATIVE ${root}/${dir}/S/tables ${root}/${dir}/S/tables/*)
  if(NOT want OR NOT want STREQUAL got)
    message(FATAL_ERROR "${dir}/S/tables/ holds '${got}', want '${want}'")
  endif()
  foreach(table ${want})
    expect_same_file(${root}/cold/S/tables/${table}
                     ${root}/${dir}/S/tables/${table})
  endforeach()
endfunction()

# A clean resume of ${root}/<dir>/S computes exactly its ${misses} MISS
# cells and writes the cold figures and tables.
function(expect_exact_resume dir)
  count_misses(misses ${dir} --store S)
  fleet(${dir} --store S --json resume.json)
  expect_computed(${root}/${dir}/resume.json ${misses})
  expect_cold_figures(${dir})
  expect_cold_tables(${dir})
  set(misses ${misses} PARENT_SCOPE)
endfunction()

# `--fast --datasets <datasets> --list-scenarios` over every grid lists
# a cell of each "<bench>:<dataset>" in ${ARGN}, no cell of the DVS-only
# gesture_pipeline grid, and creates no store.
function(expect_selection datasets)
  run(select ${SWEEP_FLEET} --fast --datasets ${datasets} --store S
      --list-scenarios)
  foreach(cell ${ARGN})
    if(NOT run_out MATCHES " ${cell}")
      message(FATAL_ERROR "--datasets ${datasets} lists no ${cell} cell:\n"
                          "${run_out}")
    endif()
  endforeach()
  if(run_out MATCHES "gesture_pipeline:" OR EXISTS ${root}/select/S)
    message(FATAL_ERROR "--datasets ${datasets} must skip gesture_pipeline "
                        "and create no store:\n${run_out}")
  endif()
endfunction()

foreach(dir cold ref scalar warm pruned hosts shard select faults kill
        daemon)
  file(REMOVE_RECURSE ${root}/${dir})
  file(MAKE_DIRECTORY ${root}/${dir})
endforeach()

# 1. Cold, traced run: both figures, each in its own schema, kept under
#    ref/ for every later comparison.
fleet(cold --store S --json cold.json --trace trace.json
      --metrics-json metrics.json)
foreach(expect
    "fig5b_fault_count|dataset,faulty_pes,fault_rate_percent,accuracy,stddev"
    "chip_salvage_triage|chip,grade,detected_faults,accuracy")
  string(REPLACE "|" ";" expect "${expect}")
  list(GET expect 0 bench)
  list(GET expect 1 header)
  file(STRINGS ${root}/cold/${bench}.csv first LIMIT_COUNT 1)  # must exist
  if(NOT first STREQUAL header)
    message(FATAL_ERROR "${bench}.csv header '${first}', want '${header}'")
  endif()
  file(RENAME ${root}/cold/${bench}.csv ${root}/ref/${bench}.csv)
endforeach()

# Its telemetry: well-formed trace events, one cell span per computed
# cell, and metrics that reconcile with the run block.
file(READ ${root}/cold/trace.json trace)
file(READ ${root}/cold/cold.json summary)
string(JSON events LENGTH "${trace}" traceEvents)  # 0: GET fails below
set(cell_spans 0)
math(EXPR last "${events} - 1")
foreach(i RANGE ${last})
  string(JSON event GET "${trace}" traceEvents ${i})
  expect_members("trace event" "${event}" ph pid tid)
  string(JSON ph GET "${event}" ph)
  if(ph STREQUAL "X")
    expect_members("trace span" "${event}" name cat ts dur)
    string(JSON name GET "${event}" name)
    if(name STREQUAL "cell")
      string(JSON args GET "${event}" args)
      expect_members("cell span" "${args}" bench key fingerprint worker
                     cached)
      math(EXPR cell_spans "${cell_spans} + 1")
    endif()
  elseif(NOT ph STREQUAL "M")
    message(FATAL_ERROR "trace event of phase '${ph}': ${event}")
  endif()
endforeach()
string(JSON computed GET "${summary}" run cells_computed)
string(JSON counted GET "${summary}" metrics sweep.cells.computed)
if(NOT cell_spans EQUAL computed OR NOT counted EQUAL computed)
  message(FATAL_ERROR "run.cells_computed ${computed}, but ${cell_spans} "
                      "cell span(s) and sweep.cells.computed ${counted}")
endif()
file(READ ${root}/cold/metrics.json dump)
metric_names(summary_names "${summary}")
metric_names(dump_names "${dump}")
if(NOT summary_names OR NOT summary_names STREQUAL dump_names)
  message(FATAL_ERROR "--metrics-json names '${dump_names}', the summary's "
                      "metrics block '${summary_names}'")
endif()

# 2. Forced-scalar faulty GEMM, untraced, into a second store: same
#    bytes.
run(scalar ${CMAKE_COMMAND} -E env FALVOLT_FORCE_SCALAR=1 ${SWEEP_FLEET}
    ${FLAGS} --store S)
expect_cold_figures(scalar)
expect_cold_tables(scalar)

# 3. Warm re-runs over the cold store, before and after a GC: zero cells
#    computed, the same figures rewritten.
set(cold_store ${root}/cold/S)
fleet(warm --store ${cold_store} --json warm.json)
expect_computed(${root}/warm/warm.json 0)
expect_cold_figures(warm)
run(pruned ${SWEEP_MERGE} --into ${cold_store} --prune)
fleet(pruned --store ${cold_store} --json pruned.json)
expect_computed(${root}/pruned/pruned.json 0)
expect_cold_figures(pruned)

# 4. Daemon recompute: the workers compute every cell exactly once; the
#    in-process pass that follows replays them (computes nothing).
fleet(hosts --store ${cold_store} --hosts 2 --resume false
      --json hosts.json)
file(READ ${root}/hosts/hosts.json json)
string(JSON computed GET "${json}" run cells_computed)
json_sum(cells "${json}" grids cells)
json_sum(replay_computed "${json}" grids computed)
if(NOT computed EQUAL cells OR NOT replay_computed EQUAL 0)
  message(FATAL_ERROR "--hosts 2 --resume false: run.cells_computed "
                      "${computed}, want every cell (${cells}); the "
                      "in-process pass recomputed ${replay_computed}")
endif()
expect_cold_figures(hosts)

# 5. A damaged record reads as a miss: --list-scenarios shows it as the
#    one MISS, and the next run recomputes exactly that cell. Damages
#    the forced-scalar store, which no later leg reads.
file(GLOB_RECURSE recs ${root}/scalar/S/objects/*.rec)
list(GET recs 0 rec)
file(WRITE ${rec} "torn")
count_misses(misses scalar --store S)
if(NOT misses EQUAL 1)
  message(FATAL_ERROR "a damaged record must list as the one MISS, got "
                      "${misses}:\n${run_out}")
endif()
fleet(scalar --store S --json damaged.json)
expect_computed(${root}/scalar/damaged.json 1)
expect_cold_figures(scalar)

# 6. Grid selection by dataset over every registered grid.
expect_selection(mnist chip_salvage_triage:)
expect_selection(mnist,nmnist fig2_vth_sweep:MNIST fig5b_fault_count:N-MNIST)

# 7. Crash safety with two cells publishing side by side: torn writes
#    and bit flips (which writes they hit, and so the MISS count, varies
#    with the interleaving), then a pulled plug.
fleet(faults --store S --sweep-parallel 2
      --faults mode=independent,p=0.2,seed=7)
if(NOT run_err MATCHES "\\[faults\\]")
  message(FATAL_ERROR "an injected run must report [faults]:\n${run_err}")
endif()
expect_exact_resume(faults)

execute_process(COMMAND ${SWEEP_FLEET} ${FLAGS} --store S --sweep-parallel 2
                --faults mode=runlength,runlen=30,kill=1,torn=0,bitflip=0
                WORKING_DIRECTORY ${root}/kill
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_exact_resume(kill)
if(NOT rc STREQUAL "Subprocess killed" OR NOT err MATCHES "PullThePlug" OR
   misses EQUAL 0)
  message(FATAL_ERROR "a kill=1 spec must SIGKILL the fleet at a PullThePlug "
                      "point and leave a MISS, got '${rc}', ${misses}:\n${err}")
endif()

# 8. The fleet daemon loses a worker: its fault spec's 16th point falls
#    inside its first cell's publish (after the two grid manifests).
#    Nothing makes the daemon wait for worker 1: if workers 0 and 2
#    drain the queue first, worker 1 exits cleanly with its [faults]
#    report, and the run is repeated in a fresh store (five at most).
foreach(attempt RANGE 1 5)
  file(REMOVE_RECURSE ${root}/daemon/S)
  fleet(daemon --store S --hosts 3 --json daemon.json
        --worker-faults 1:mode=runlength,runlen=16,kill=1,torn=0,bitflip=0)
  if(NOT run_err MATCHES "\\[faults\\] mode=")
    break()
  endif()
endforeach()
file(READ ${root}/daemon/daemon.json json)
string(JSON deaths GET "${json}" daemon worker_deaths)
string(JSON requeued GET "${json}" daemon requeued)
string(JSON computed GET "${json}" run cells_computed)
string(JSON cached GET "${json}" run cells_cached)
json_sum(cells "${json}" grids cells)
json_sum(worker_cells "${json}" workers cells)
math(EXPR ledger "${computed} + ${cached}")
string(REGEX MATCH "\\[fleet\\] total: ([0-9]+) computed" total "${run_out}")
if(NOT deaths EQUAL 1 OR requeued LESS 1 OR NOT ledger EQUAL cells OR
   NOT worker_cells EQUAL cells OR NOT CMAKE_MATCH_1 EQUAL computed)
  message(FATAL_ERROR "--hosts 3 with worker 1 killed: want 1 death, a "
                      "re-queued claim and ${cells} cells counted once, "
                      "got '${total}' and\n${json}")
endif()
expect_cold_figures(daemon)
expect_cold_tables(daemon)

fleet(daemon --store S --hosts 3 --json warm.json)
expect_computed(${root}/daemon/warm.json 0)
if(NOT run_out MATCHES "no workers forked")
  message(FATAL_ERROR "a warm --hosts 3 run forked workers:\n${run_out}")
endif()
file(WRITE ${root}/daemon/S/tmp/inprogress.1 "1\n")
expect_failure(daemon ${SWEEP_MERGE} --into S)
if(NOT run_err MATCHES "still publishing")
  message(FATAL_ERROR "sweep_merge over a store with a live marker must "
                      "refuse:\n${run_err}")
endif()

# 9. Sharded fig5b runs, merged, compacted and substituted. The cold
#    store is the unsharded reference (a fig5b cell has the same
#    fingerprint whichever grids run beside it). fig5b alone: a
#    one-die chip_salvage grid would complete inside shard 0. Last, as
#    it narrows ${FLAGS} and ${FIGURES}.
set(FLAGS --fast --datasets mnist --repeats 1 --grids fig5b_fault_count
    --set fig5b_fault_count.eval-samples=24)
set(FIGURES fig5b_fault_count)
fleet(shard --store A --shard 0/2)
fleet(shard --store B --shard 1/2)
if(EXISTS ${root}/shard/fig5b_fault_count.csv)
  message(FATAL_ERROR "a shard that leaves cells to another wrote a figure")
endif()
# One shard alone lacks the other's cells: a runtime failure, exit 1.
execute_process(COMMAND ${SWEEP_MERGE} --into H --from A
                        --bench fig5b_fault_count --csv half.csv
                WORKING_DIRECTORY ${root}/shard
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "missing")
  message(FATAL_ERROR "sweep_merge over one of two shards: exit '${rc}', "
                      "want 1 and a 'missing' line:\n${err}")
endif()
run(shard ${SWEEP_MERGE} --into M --from A,B --bench fig5b_fault_count
    --csv merged.csv)
run(shard ${SWEEP_MERGE} --into ${cold_store} --bench fig5b_fault_count
    --csv unsharded.csv)
expect_same_file(${root}/shard/unsharded.csv ${root}/shard/merged.csv)
expect_failure(shard ${SWEEP_MERGE} --into M --from no_such_store)

fleet(shard --store M --json merged.json)
expect_computed(${root}/shard/merged.json 0)
expect_cold_figures(shard)

run(shard ${SWEEP_MERGE} --into M --compact)
expect_no_records(${root}/shard/M)
file(REMOVE ${root}/shard/fig5b_fault_count.csv)
fleet(shard --store M --json compacted.json)
expect_computed(${root}/shard/compacted.json 0)
expect_cold_figures(shard)

file(REMOVE ${root}/shard/fig5b_fault_count.csv)
count_misses(misses shard --store SUB --substituters ${cold_store})
if(misses OR EXISTS ${root}/shard/SUB)
  message(FATAL_ERROR "listing a fresh store over a complete substituter "
                      "must show no MISS and create nothing:\n${run_out}")
endif()
fleet(shard --store SUB --substituters ${cold_store} --json sub.json)
expect_computed(${root}/shard/sub.json 0)
expect_no_records(${root}/shard/SUB)
expect_cold_figures(shard)
expect_failure(shard ${SWEEP_FLEET} ${FLAGS} --store SUB2
               --substituters no_such_store)

message(STATUS "fleet_smoke: ${cells} cells; every leg wrote the cold "
               "figures")
