#pragma once
// Shared plumbing for the registered grids (bench/grids/) and the
// drivers that run them (sweep_fleet, sweep_merge): the common and
// execution-only flag sets, fingerprint configuration, store options,
// telemetry/fault-injection scopes, dataset selection, and the helpers
// grids use to build cells and render figures.

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/csv.h"
#include "common/env.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/experiment.h"
#include "core/falvolt.h"
#include "core/fap.h"
#include "core/grid_registry.h"
#include "core/sweep.h"
#include "fault/fault_generator.h"
#include "io/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace falvolt::bench {

/// Split a separator-joined list, dropping empty tokens — the one
/// tokenizer behind --datasets, --grids, --set, and --from.
inline std::vector<std::string> split_list(const std::string& spec,
                                           char sep = ',') {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t next = spec.find(sep, pos);
    const std::string tok =
        spec.substr(pos, next == std::string::npos ? next : next - pos);
    if (!tok.empty()) out.push_back(tok);
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return out;
}

// ----------------------------------------------------- execution flags
// Execution-only flags — knobs that change HOW a run executes (where
// telemetry goes, how processes are laid out, what I/O faults are
// injected), never WHAT any cell computes. Declaring one here is the
// whole job: registration (add_exec_flags), the fingerprint exemption
// (flag_affects_results), and the fleet driver's managed/not-forwarded
// bookkeeping all read this one table. Adding a new execution-only
// flag anywhere else is a bug.

enum ExecFlagGroup : unsigned {
  kExecObs = 1u << 0,    ///< telemetry + fault injection (every driver)
  kExecFleet = 1u << 1,  ///< daemon/worker process layout (sweep_fleet)
};

struct ExecFlagDef {
  const char* name;
  enum Kind { kString, kInt } kind;
  const char* str_default;
  int int_default;
  unsigned groups;
  const char* help;
};

inline const std::vector<ExecFlagDef>& exec_flag_defs() {
  static const std::vector<ExecFlagDef> defs = {
      {"trace", ExecFlagDef::kString, "", 0, kExecObs,
       "Chrome trace-event JSON output path ('' = disabled). Spans "
       "cover baselines, cells, and store I/O; load the file in "
       "Perfetto or chrome://tracing. Observation only — tables and "
       "fingerprints are byte-identical with tracing on or off"},
      {"metrics-json", ExecFlagDef::kString, "", 0, kExecObs,
       "write the process metrics registry (counters/timers) as "
       "JSON to this path on exit ('' = disabled)"},
      {"faults", ExecFlagDef::kString, "", 0, kExecObs,
       "I/O fault-injection spec, e.g. "
       "'mode=independent,p=0.01,seed=7' or "
       "'mode=runlength,runlen=12,kill=1' ('' = disabled). "
       "Tears/bit-flips store writes and arms PullThePlug "
       "process-kill points to exercise the store's crash-safety "
       "guarantees. Execution only: never fingerprinted, and "
       "surviving output is byte-identical to an uninjected run"},
      {"hosts", ExecFlagDef::kInt, nullptr, 0, kExecFleet,
       "run the fleet as a scheduler daemon over N forked worker "
       "processes claiming cells over a UNIX socket (0 = in-process; "
       "results are byte-identical either way)"},
      {"daemon-socket", ExecFlagDef::kString, "", 0, kExecFleet,
       "fleet daemon socket path. With --hosts: where the daemon "
       "listens ('' = /tmp/falvolt-fleet-<pid>.sock). Without "
       "--hosts: run as a WORKER claiming cells from the daemon at "
       "this path (workers are normally forked by the daemon, not "
       "launched by hand)"},
      {"worker-faults", ExecFlagDef::kString, "", 0, kExecFleet,
       "per-worker fault-injection spec 'i:spec' passed as --faults "
       "to forked worker i only, e.g. "
       "'1:mode=runlength,runlen=30,kill=1' — the crash-harness "
       "hook for killing one fleet worker while the rest run clean"},
  };
  return defs;
}

/// Register the execution-only flags of the given groups.
inline void add_exec_flags(common::CliFlags& cli,
                           unsigned groups = kExecObs) {
  for (const ExecFlagDef& def : exec_flag_defs()) {
    if (!(def.groups & groups)) continue;
    switch (def.kind) {
      case ExecFlagDef::kString:
        cli.add_string(def.name, def.str_default, def.help);
        break;
      case ExecFlagDef::kInt:
        cli.add_int(def.name, def.int_default, def.help);
        break;
    }
  }
}

/// True when `name` is declared in the exec-flag table (any group by
/// default).
inline bool is_exec_flag(const std::string& name, unsigned groups = ~0u) {
  for (const ExecFlagDef& def : exec_flag_defs()) {
    if ((def.groups & groups) && name == def.name) return true;
  }
  return false;
}

/// The flags every grid shares. sweep_fleet registers them once and
/// forwards them to each grid's own flag set (common + the grid's
/// add_flags), so a cell's fingerprint does not depend on which grids
/// were selected with it.
inline void add_common_flags(common::CliFlags& cli) {
  cli.add_bool("fast", common::fast_mode(),
               "shrink datasets/epochs ~2x (also via FALVOLT_FAST=1)");
  cli.add_int("seed", 7, "workload seed");
  cli.add_int("repeats", 0, "fault maps per point (0 = bench default)");
  cli.add_int("array-size", 64,
              "systolic array dimension N (NxN). The paper uses 256x256 "
              "with ~128-channel networks (~50% column utilization); our "
              "CPU-scaled networks are ~16x narrower, so the default "
              "array is scaled to 64x64 to preserve utilization — see "
              "EXPERIMENTS.md");
  cli.add_int("threads", 0,
              "compute worker threads (0 = $FALVOLT_THREADS, else the "
              "hardware concurrency)");
  cli.add_int("sweep-parallel", 0,
              "concurrent cells across all selected grids (1 = serial; 0 "
              "= the hardware concurrency). Result tables are "
              "byte-identical at any value");
  cli.add_string("datasets", "all",
                 "comma list of mnist,nmnist,dvs to subset the grid "
                 "(all = the bench's paper grid)");
  cli.add_string("store", "",
                 "content-addressed scenario result store directory ('' "
                 "= disabled). Cells already in the store are replayed "
                 "instead of recomputed");
  cli.add_string("substituters", "",
                 "comma list of store directories consulted read-only, "
                 "in order, behind --store: cells computed elsewhere "
                 "replay from the first substituter that has them, "
                 "exactly like local hits. Needs --store; substituters "
                 "are never written to and must already exist");
  cli.add_bool("resume", true,
               "replay cells already present in --store; 'false' "
               "recomputes every owned cell and overwrites its record");
  cli.add_string("shard", "",
                 "deterministic grid partition 'i/n': this run computes "
                 "only shard i's cells of a cost-balanced greedy LPT "
                 "(longest-processing-time first) partition into n "
                 "shards ('' = whole grid). Union the shard stores with "
                 "the sweep_merge tool");
  cli.add_bool("list-scenarios", false,
               "print the scenario grid (index, owning shard, "
               "fingerprint, store status) and exit without computing");
  add_exec_flags(cli, kExecObs);
}

/// Flags that never change a cell's value — execution knobs and output
/// paths. Everything else a bench registers is hashed into the cell
/// fingerprints, so forgetting to list a new result-affecting flag here
/// costs only spurious recomputes, never a stale hit.
inline bool flag_affects_results(const std::string& name) {
  static const std::set<std::string> kExecutionOnly = {
      "threads", "sweep-parallel", "datasets",       "repeats",
      "store",   "resume",         "shard",          "list-scenarios",
      "substituters"};
  if (is_exec_flag(name)) return false;
  // --substituters only changes WHERE a fingerprint-addressed record is
  // read from, never what any cell computes, so it must not split the
  // cache (see SweepStoreOptions::substituters).
  // --faults corrupts I/O, never values: damaged records degrade to
  // recompute and the recompute produces the same bytes, so an injected
  // run must address (and eventually publish) the SAME cells as a clean
  // run — fingerprinting the spec would defeat the resume harness.
  // --datasets subsets the grid and --repeats sizes it; neither changes
  // what any one (dataset, ..., rep) cell computes, so shards/subsets
  // of a grid share cache entries with the full run.
  return kExecutionOnly.find(name) == kExecutionOnly.end();
}

/// The (flag, value) pairs hashed into every cell fingerprint.
/// `aggregation_only` lets a bench exempt flags that shape only its
/// post-sweep summary, never a cell value (e.g. fig8's --target-drop) —
/// hashing those would recompute expensive cells to change a label.
inline std::vector<std::pair<std::string, std::string>> fingerprint_config(
    const common::CliFlags& cli,
    const std::set<std::string>& aggregation_only = {}) {
  std::vector<std::pair<std::string, std::string>> out;
  for (auto& [name, value] : cli.items()) {
    if (flag_affects_results(name) && !aggregation_only.count(name)) {
      out.emplace_back(name, value);
    }
  }
  return out;
}

/// A command-line mistake. A driver reports it with usage_exit before
/// any store I/O, so a bench flag set through --set, a malformed
/// --faults spec and an unknown flag all fail the same way.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Prints `e` as "<program>: <error> (see --help)" and returns 2 — the
/// CliFlags::parse_or_exit contract for every command-line mistake.
inline int usage_exit(const char* program, const UsageError& e) {
  std::fprintf(stderr, "%s: %s (see --help)\n", program, e.what());
  return 2;
}

/// The process's --faults spec, parsed before any work: injection
/// misconfiguration must never be discovered hours into a sweep (and a
/// typo'd spec silently running clean would be worse), so a malformed
/// spec is a UsageError.
inline io::FaultSpec parse_faults_flag(const common::CliFlags& cli) {
  try {
    return io::parse_fault_spec(cli.get_string("faults"));
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
}

/// RAII fault injection: arms io::FaultInjector with the --faults spec
/// (parse_faults_flag) for the process lifetime; on destruction disarms
/// and prints the FaultTestReport-style summary line. No-op for a
/// disabled spec.
class FaultScope {
 public:
  explicit FaultScope(const io::FaultSpec& spec) {
    if (!spec.enabled()) return;
    io::arm_faults(spec);
    armed_ = true;
    std::fprintf(stderr, "[faults] armed: %s\n",
                 io::to_string(spec).c_str());
  }
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;
  ~FaultScope() {
    if (!armed_) return;
    io::disarm_faults();
    std::fprintf(stderr, "%s\n", io::fault_report_line().c_str());
  }

 private:
  bool armed_ = false;
};

/// RAII session for the exec-flag table's kExecObs group — THE scope
/// helper a driver constructs right after CliFlags::parse so every
/// baseline/cell/store span lands inside the session: starts Chrome
/// tracing when --trace names a file, and on destruction stops the
/// trace and dumps the process metrics registry to --metrics-json when
/// set. All knobs are execution-only (flag_affects_results) — they
/// never reach a cell fingerprint, and with none set this is a no-op.
///
/// Also owns the process's FaultScope (--faults): every program that
/// constructs an ExecScope gets fault injection armed before any store
/// I/O and the injection report on exit, with the io.faults.* counters
/// landing in the same --metrics-json dump.
class ExecScope {
 public:
  /// `faults` is the driver's parse_faults_flag(cli).
  ExecScope(const common::CliFlags& cli, const io::FaultSpec& faults)
      : faults_(faults),
        metrics_path_(cli.get_string("metrics-json")) {
    const std::string& path = cli.get_string("trace");
    if (!path.empty()) {
      obs::trace_start(path);  // fail-fast: bad path dies before compute
      trace_path_ = path;
    }
  }
  ExecScope(const ExecScope&) = delete;
  ExecScope& operator=(const ExecScope&) = delete;
  ~ExecScope() {
    if (!trace_path_.empty()) {
      const std::size_t events = obs::trace_stop();
      std::fprintf(stderr, "[obs] %zu trace event(s) written to %s\n",
                   events, trace_path_.c_str());
    }
    if (metrics_path_.empty()) return;
    try {
      obs::write_metrics_json(metrics_path_);
      std::fprintf(stderr, "[obs] metrics written to %s\n",
                   metrics_path_.c_str());
    } catch (const std::exception& e) {
      // The bench's results are already on disk; a failed metrics dump
      // must not turn a finished sweep into an error exit.
      std::fprintf(stderr, "[obs] metrics dump failed: %s\n", e.what());
    }
  }

 private:
  FaultScope faults_;  // first member: armed before, disarmed after,
                       // everything else in the session
  std::string metrics_path_;
  std::string trace_path_;
};

/// Build a grid's store/shard configuration from the CLI.
inline core::SweepStoreOptions store_options(
    const common::CliFlags& cli, const std::string& bench_name,
    const std::set<std::string>& aggregation_only = {}) {
  core::SweepStoreOptions st;
  st.dir = cli.get_string("store");
  st.bench = bench_name;
  st.config = fingerprint_config(cli, aggregation_only);
  st.substituters = split_list(cli.get_string("substituters"));
  st.resume = cli.get_bool("resume");
  const auto [index, count] = core::parse_shard_spec(cli.get_string("shard"));
  st.shard_index = index;
  st.shard_count = count;
  if (st.dir.empty() && count > 1) {
    throw std::invalid_argument(
        "--shard needs --store: a shard's results are only useful once "
        "published to a store");
  }
  if (st.dir.empty() && !st.substituters.empty()) {
    throw std::invalid_argument(
        "--substituters needs --store: substituted cells replay through "
        "the local store's read chain");
  }
  return st;
}

/// Shared, read-only per-dataset eval subsets, built lazily on first use
/// by a scenario function. Lazy matters: on a warm store re-run no
/// scenario computes, so no dataset is prepared and no subset is built —
/// eagerly touching ctx.workload() there would either throw or force
/// baseline preparation the sweep proved unnecessary.
class EvalSets {
 public:
  /// `n` samples per dataset; n <= 0 means the full test split.
  EvalSets(const core::SweepContext& ctx, int n) : ctx_(ctx), n_(n) {}

  /// The subset as one prebuilt whole-set EvalBatch (batched eval
  /// mode): built once per dataset and shared read-only by every
  /// scenario cell, so the per-time-step batch tensors are assembled
  /// once per grid instead of once per evaluation and each cell's
  /// engine resolves one fault plan per time step for ALL samples.
  /// Thread-safe: scenario functions call this concurrently.
  const snn::EvalBatch& batch(core::DatasetKind kind);

 private:
  /// The `n`-sample subset itself; the caller holds mu_.
  const data::Dataset& of_locked(core::DatasetKind kind);

  const core::SweepContext& ctx_;
  int n_;
  std::mutex mu_;
  std::map<core::DatasetKind, data::Dataset> sets_;
  std::map<core::DatasetKind, snn::EvalBatch> batches_;
};

/// The experiment array: paper-equivalent geometry at our network scale.
inline systolic::ArrayConfig experiment_array(const common::CliFlags& cli) {
  systolic::ArrayConfig array;
  array.rows = array.cols = static_cast<int>(cli.get_int("array-size"));
  return array;
}

inline core::WorkloadOptions workload_options(const common::CliFlags& cli) {
  core::WorkloadOptions opts;
  opts.fast = cli.get_bool("fast");
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  opts.threads = static_cast<int>(cli.get_int("threads"));
  opts.sweep_parallel = static_cast<int>(cli.get_int("sweep-parallel"));
  return opts;
}

inline void print_baseline(const core::Workload& w) {
  std::printf("[%s] baseline accuracy %.2f%% (train %d / test %d, T=%d)\n",
              core::dataset_name(w.kind), w.baseline_accuracy,
              w.data.train.size(), w.data.test.size(),
              w.data.train.time_steps());
}

/// Parse a --datasets spec into dataset kinds. An empty or "all" spec
/// returns an empty vector, meaning "no filter". Throws on unknown
/// tokens. Shared by dataset_list (per-bench strict subsetting) and the
/// fleet driver (which uses the filter to SKIP grids whose axis does
/// not intersect it).
inline std::vector<core::DatasetKind> parse_dataset_spec(
    const std::string& spec) {
  std::vector<core::DatasetKind> requested;
  if (spec.empty() || spec == "all") return requested;
  for (const std::string& tok : split_list(spec)) {
    if (tok == "mnist") {
      requested.push_back(core::DatasetKind::kMnist);
    } else if (tok == "nmnist") {
      requested.push_back(core::DatasetKind::kNMnist);
    } else if (tok == "dvs" || tok == "dvs-gesture") {
      requested.push_back(core::DatasetKind::kDvsGesture);
    } else {
      throw std::invalid_argument("--datasets: unknown dataset '" + tok +
                                  "' (want mnist,nmnist,dvs)");
    }
  }
  if (requested.empty()) {
    throw std::invalid_argument("--datasets: no datasets in '" + spec + "'");
  }
  return requested;
}

/// The --datasets token naming a kind (inverse of parse_dataset_spec).
inline const char* dataset_flag_token(core::DatasetKind kind) {
  switch (kind) {
    case core::DatasetKind::kMnist:
      return "mnist";
    case core::DatasetKind::kNMnist:
      return "nmnist";
    default:
      return "dvs";
  }
}

/// Resolve a bench's --epochs flag: the explicit value when positive,
/// else `extra` + the dataset's default retrain epochs — the defaulting
/// rule shared by every retraining grid (ablation passes extra = 2).
inline int retrain_epochs_flag(const common::CliFlags& cli,
                               core::DatasetKind kind, int extra = 0) {
  return cli.get_int("epochs") > 0
             ? static_cast<int>(cli.get_int("epochs"))
             : extra + core::default_retrain_epochs(kind,
                                                    cli.get_bool("fast"));
}

/// The bench's dataset axis, optionally subset by --datasets (handy for
/// CI smoke runs and quick local iterations). Strictly a subset: asking
/// for a dataset the bench's paper grid does not contain is an error,
/// never a silent grid extension.
inline std::vector<core::DatasetKind> dataset_list(
    const common::CliFlags& cli, std::vector<core::DatasetKind> def) {
  const std::vector<core::DatasetKind> requested =
      parse_dataset_spec(cli.get_string("datasets"));
  if (requested.empty()) return def;
  for (const auto kind : requested) {
    if (std::find(def.begin(), def.end(), kind) == def.end()) {
      throw std::invalid_argument(
          std::string("--datasets: ") + core::dataset_name(kind) +
          " is not part of this bench's grid");
    }
  }
  std::vector<core::DatasetKind> out;  // keep the bench's axis order
  for (const auto kind : def) {
    if (std::find(requested.begin(), requested.end(), kind) !=
        requested.end()) {
      out.push_back(kind);
    }
  }
  return out;
}

/// Append printf-formatted text to a scenario's buffered log or a
/// figure's report.
inline void logf(std::string& log, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
inline void logf(std::string& log, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  log += buf;
}

/// The first metric of the cell at `key` — the value a figure plots.
inline double cell_value(const core::ResultTable& results,
                         const std::string& key) {
  return results.get(key).metrics.front().second;
}

/// A figure whose CSV rows are its cells' own csv_rows, in scenario
/// order (byte-identical at any sweep parallelism).
inline core::Figure scenario_rows_figure(std::vector<std::string> header,
                                         const core::ResultTable& results) {
  core::Figure fig;
  fig.csv_header = std::move(header);
  for (const core::ScenarioResult& r : results.rows()) {
    fig.csv_rows.insert(fig.csv_rows.end(), r.csv_rows.begin(),
                        r.csv_rows.end());
  }
  return fig;
}

/// First `n` samples of a dataset (vulnerability sweeps evaluate through
/// the bit-level engine, so a subset keeps runtimes reasonable; samples
/// are class-round-robin, so any prefix is balanced).
inline data::Dataset subset(const data::Dataset& ds, int n) {
  data::Dataset out(ds.name() + "-subset", ds.num_classes(),
                    ds.time_steps(), ds.channels(), ds.height(), ds.width());
  const int count = std::min(n, ds.size());
  for (int i = 0; i < count; ++i) out.add(ds[i]);
  return out;
}

inline const data::Dataset& EvalSets::of_locked(core::DatasetKind kind) {
  auto it = sets_.find(kind);
  if (it == sets_.end()) {
    const data::Dataset& test = ctx_.workload(kind).data.test;
    it = sets_.emplace(kind, subset(test, n_ > 0 ? n_ : test.size()))
             .first;
  }
  return it->second;
}

inline const snn::EvalBatch& EvalSets::batch(core::DatasetKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = batches_.find(kind);
  if (it == batches_.end()) {
    it = batches_.emplace(kind, snn::make_eval_batch(of_locked(kind)))
             .first;
  }
  return it->second;
}

}  // namespace falvolt::bench
