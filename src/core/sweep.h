#pragma once
// Scenario-parallel sweep orchestration for the figure benches and the
// fleet driver.
//
// Every figure in the paper is a grid of independent scenarios —
// threshold-voltage points x fault maps x datasets. SweepRunner executes
// one or more such grids (a figure bench adds its own; sweep_fleet adds
// every registered one) as a single cost-ordered work queue on a
// compute::ThreadPool while keeping each grid's result table
// byte-identical to a serial run:
//
//  - The baseline model of each dataset is prepared exactly once per
//    run, serially, with full GEMM-level parallelism, however many
//    grids need it: restored from the grid's store chain when it holds
//    the baseline record, else trained and published there (see
//    prepare_workload); every scenario then works on an independent
//    clone restored from the immutable parameter snapshot.
//  - All randomness inside a scenario is seeded from the scenario itself
//    (its explicit `fault_seed`), never from shared mutable state, so
//    results do not depend on execution order or worker count.
//  - Scenario- and GEMM-level parallelism compose without oversubscribing
//    the machine: when scenarios run on pool workers, nested GEMM
//    parallel_for calls degrade to inline execution (see ThreadPool), so
//    a sweep uses `sweep_parallel` threads total; a serial sweep
//    (`sweep_parallel == 1`) keeps the full `threads`-wide GEMM pool.
//  - Workers claim cells most-expensive-first (scenario_cost_estimate)
//    from one queue shared by every grid, so a retrain cell never
//    strands one worker after the cheap evals drained. Claim order is
//    pure scheduling: results, per-scenario logs, and CSV rows land in
//    one thread-safe ResultTable per grid and are emitted in scenario
//    order.
//
// On top of that, each grid can run against a persistent
// content-addressed result store, opened through the store::StoreApi
// interface as a layered chain: writable loose objects over the root's
// indexed segments, with optional read-only substituter stores behind
// them (store_api.h). Every cell is fingerprinted by everything that
// determines its output (fingerprint_cell); a hit (lookup_cell) replays
// the stored result into the table, a miss computes and publishes it.
// Because a cell is only ever skipped when its fingerprint matches,
// cache hits are correct by construction — and re-running a killed sweep
// resumes with only the missing cells. A `shard i/n` spec partitions a
// grid deterministically for multi-machine runs whose stores are later
// unioned by the sweep_merge tool.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/experiment.h"
#include "fixed/stuck_bits.h"

namespace falvolt::store {
class StoreApi;
}  // namespace falvolt::store

namespace falvolt::core {

/// One cell of a figure's scenario grid. `key` must be unique within a
/// sweep; the typed fields carry the grid coordinates a bench's scenario
/// function needs (unused fields keep their defaults).
struct Scenario {
  std::string key;  ///< canonical id, e.g. "MNIST/rate=30/vth=0.45"
  std::string tag;  ///< free-form label (mitigation method, ablation arm)
  DatasetKind dataset = DatasetKind::kMnist;
  double vth = 0.0;          ///< threshold-voltage point (fig2)
  double fault_rate = 0.0;   ///< faulty-PE fraction (fig2/6/7, ablation)
  int fault_count = -1;      ///< absolute faulty-PE count (fig5a/b/c)
  int bit = -1;              ///< stuck bit position (fig5a)
  fx::StuckType stuck = fx::StuckType::kStuckAt1;  ///< stuck level (fig5a)
  int array_size = 0;        ///< NxN array override (fig5c); 0 = bench flag
  int repeat = 0;            ///< fault-map iteration index
  std::uint64_t fault_seed = 0;  ///< explicit fault-map RNG seed
  bool retrain = false;      ///< scenario runs a retraining mitigation
  int epochs = 0;            ///< retraining epochs when `retrain`
  /// Estimated compute cost of this cell in abstract units (an eval cell
  /// is ~1). Scheduling metadata ONLY: drives the cost-ordered work
  /// queue, never enters the cell fingerprint or the stored record (two
  /// scenarios differing only in cost_hint are the same cell). 0 lets
  /// scenario_cost_estimate() derive a default from retrain/epochs;
  /// grids with better knowledge (e.g. fig5c's array-size-dependent
  /// eval latency from systolic::cost_model) tag cells explicitly.
  double cost_hint = 0.0;
};

/// Estimated cost of one cell in abstract units: the explicit cost_hint
/// when set, else ~1 for an eval cell and kRetrainCostPerEpoch per
/// retraining epoch (a retrain cell costs orders of magnitude more than
/// an eval cell — the queue must drain retrains first or a late retrain
/// claim strands one worker long after the rest of the fleet idles).
inline constexpr double kRetrainCostPerEpoch = 100.0;
double scenario_cost_estimate(const Scenario& s);

/// Per-worker accounting of one SweepRunner::run(): how many cells worker
/// `i` claimed and how long it was busy computing them. busy_seconds /
/// the run's total_seconds is that worker's utilization — the fleet
/// tail shows up as one worker near 1.0 while the rest idle.
struct WorkerStats {
  std::size_t cells = 0;
  double busy_seconds = 0.0;
};

/// Where, when, and by which build a cell was computed. Stamped by
/// SweepRunner when the scenario function returns, stored in the
/// record, and replayed byte-for-byte from the store on warm runs —
/// fleet-debugging metadata that never enters a figure table (CSV) and
/// never contributes to a cell fingerprint.
struct Provenance {
  std::string host;     ///< hostname of the machine that computed the cell
  std::string version;  ///< falvolt version string of the computing build
  std::uint64_t unix_time = 0;  ///< wall clock (s since epoch) at compute
  std::uint32_t store_epoch = 0;  ///< store format epoch the record was written under
};

/// What one scenario produced. The scenario function fills metrics /
/// csv_rows / log; SweepRunner attaches the scenario, its store
/// fingerprint, its wall time, and the compute provenance.
struct ScenarioResult {
  Scenario scenario;
  /// Content-address of this cell in the result store (64 hex chars);
  /// empty when the sweep ran without a store.
  std::string fingerprint;
  /// Ordered (name, value) pairs — the JSON summary and generic CSV
  /// columns. Names should be stable across scenarios of one sweep.
  std::vector<std::pair<std::string, double>> metrics;
  /// Rows for the bench's own CSV schema, emitted in scenario order.
  std::vector<std::vector<std::string>> csv_rows;
  /// Buffered console output, printed in scenario order after the sweep
  /// (so logs are deterministic under any worker count).
  std::string log;
  /// Compute wall time of this cell. Replayed cells carry the seconds
  /// recorded when the cell was originally computed, so a warm re-run
  /// reproduces the cold run's per-cell timings byte for byte.
  double seconds = 0.0;
  /// Who computed this cell (replayed from the record like `seconds`).
  Provenance provenance;
};

/// Serialize a ScenarioResult into the store's payload bytes. The frame
/// is length-prefixed throughout; decode validates every length against
/// the remaining bytes and returns false on any malformation (the store
/// then treats the record as a miss — recompute, never throw).
std::string encode_scenario_result(const ScenarioResult& result);
bool decode_scenario_result(const std::string& bytes, ScenarioResult& out);

/// How a sweep uses the persistent result store.
struct SweepStoreOptions {
  /// Store root directory (see store::open_store); empty disables the
  /// store entirely.
  std::string dir;
  /// Grid owner — the bench name; part of every cell fingerprint.
  std::string bench;
  /// Bench configuration that affects cell values (flag name/value
  /// pairs, canonical text). Execution-only knobs (threads, parallelism,
  /// output paths, shard spec) must NOT be listed: they would split the
  /// cache without changing any result.
  std::vector<std::pair<std::string, std::string>> config;
  /// Read-only substituter store roots consulted (in order) behind the
  /// local store: a cell computed elsewhere replays from the first
  /// substituter that has it, exactly like a local hit. Substituters
  /// are never written to and must already exist (store::open_store
  /// throws on a missing one). Execution-only: reads through the chain
  /// are fingerprint-addressed, so WHERE a record came from cannot
  /// change any result — the flag stays out of cell fingerprints.
  std::vector<std::string> substituters;
  /// Replay cells already present in the store (true) or recompute and
  /// overwrite them (false).
  bool resume = true;
  /// Deterministic grid partition: this run computes the cells
  /// shard_partition() assigns to shard_index (cost-balanced greedy LPT
  /// over the static cost estimates — NOT index-modulo, so a shard's
  /// share of retrain cells matches its share of total cost). Cached
  /// cells of other shards are still replayed when available.
  int shard_index = 0;
  int shard_count = 1;
};

/// Parse a "i/n" shard spec (e.g. "0/4") into {index, count}. An empty
/// spec means the whole grid ({0, 1}). Throws std::invalid_argument on
/// malformed specs or i >= n.
std::pair<int, int> parse_shard_spec(const std::string& spec);

/// Cost-balanced deterministic grid partition: owner shard of every grid
/// index, by greedy LPT (longest-processing-time) over `costs` — walk
/// the cells most-expensive-first (stable: equal costs keep index order)
/// and assign each to the shard with the smallest cumulative cost so far
/// (ties to the lowest shard id). With equal costs this degenerates to
/// round-robin (index % shard_count); with skewed costs no shard ends up
/// more than ~4/3 of the optimal max load (the classic LPT bound), where
/// index-modulo can be arbitrarily unbalanced. Deterministic in `costs`
/// alone, and every shard MUST derive costs from the same static
/// scenario_cost_estimate() so independently launched shards agree on
/// the partition — never from store-refined timings, which differ per
/// machine.
std::vector<int> shard_partition(const std::vector<double>& costs,
                                 int shard_count);

/// Content-address of one cell: SHA-256 over the store format epoch,
/// the bench name, the bench config, the workload identity
/// (dataset/fast/seed), and every result-affecting Scenario field
/// (cost_hint is scheduling metadata and deliberately excluded).
/// Anything that can change the cell's output is in here — a hit is
/// therefore safe to replay — and nothing execution-only is (thread
/// counts, shard spec, output paths, queue order), so reruns on other
/// machines still hit. Shared by SweepRunner, the fleet daemon, and the
/// shard-planning listings, so a bench run standalone and the same grid
/// run by the fleet driver address identical cells.
std::string fingerprint_cell(const SweepStoreOptions& store,
                             const WorkloadOptions& opts, const Scenario& s);

/// The one cell lookup: the record stored under `fp`, decoded, if it
/// exists, decodes, and carries scenario key `key`; nullopt otherwise.
/// A fingerprint collision with a foreign key and a record the codec
/// rejects (truncated, foreign codec version...) both read as a miss —
/// recompute, never throw.
std::optional<ScenarioResult> lookup_cell(const store::StoreApi& rs,
                                          const std::string& fp,
                                          const std::string& key);

/// Where a sweep's workers get their next cell. SweepRunner's built-in
/// queue (the pending cells sorted most-expensive-first, drained through
/// one atomic counter) is the in-process default; the fleet daemon's
/// socket-fed workers install a fleet::SocketCellQueue instead — both
/// feed the same claim loop, so triage, baseline sharing, compute,
/// publish, and accounting are identical either way, which is what keeps
/// daemon-fed and in-process runs byte-identical.
class CellQueue {
 public:
  /// One claimed cell: which added grid, which grid-local scenario
  /// index, and the cost estimate that scheduled it.
  struct Claim {
    int grid = 0;
    int index = 0;
    double cost = 0.0;
  };

  virtual ~CellQueue() = default;

  /// Next cell for worker slot `worker`, or nullopt when the queue is
  /// drained (the worker then exits its claim loop). May block (the
  /// socket queue waits on the daemon). Must be callable concurrently
  /// from several worker slots.
  virtual std::optional<Claim> claim(int worker) = 0;

  /// The claimed cell's record is durably published (cached=false) or
  /// was found already published by someone else (cached=true — the
  /// at-least-once re-check hit). Either way the cell is done.
  virtual void complete(const Claim& claim, bool cached,
                        double seconds) = 0;

  /// The claimed cell's scenario function threw. The runner still fails
  /// the sweep fast afterwards; an external queue uses this to tell the
  /// scheduler before the process exits.
  virtual void fail(const Claim& claim, const std::string& error) = 0;

  /// True when claims come from an external scheduler that may deliver
  /// a cell more than once (at-least-once: a worker killed after
  /// publishing but before reporting gets its in-flight cell re-queued).
  /// The runner then re-checks the store before computing every claim,
  /// so duplicate delivery replays the paid-for record instead of
  /// recomputing it.
  virtual bool at_least_once() const = 0;
};

/// Thread-safe, order-preserving aggregation of scenario results plus
/// CSV / JSON emission. Slot `i` belongs to scenario `i` of the sweep.
/// Each slot tracks its provenance: computed this run, replayed from
/// the store, or absent (owned by another shard and not yet cached).
class ResultTable {
 public:
  ResultTable() : mu_(std::make_unique<std::mutex>()) {}
  explicit ResultTable(std::size_t n) : ResultTable() {
    rows_.resize(n);
    state_.assign(n, kAbsent);
  }

  /// Store a freshly computed `result` into slot `index` (thread-safe).
  void put(std::size_t index, ScenarioResult result);
  /// Store a result replayed from the store into slot `index`.
  void put_cached(std::size_t index, ScenarioResult result);

  std::size_t size() const { return rows_.size(); }
  const ScenarioResult& at(std::size_t index) const;
  const std::vector<ScenarioResult>& rows() const { return rows_; }
  /// First filled result whose scenario key matches, or nullptr.
  const ScenarioResult* find(const std::string& key) const;
  /// Like find(), but throws std::out_of_range on a missing key — the
  /// lookup benches use to rebuild their tables, so a key-scheme edit
  /// (or aggregating a shard-partial table) fails loudly instead of
  /// silently transposing figure cells.
  const ScenarioResult& get(const std::string& key) const;

  /// Slot provenance.
  bool is_filled(std::size_t index) const;
  bool is_cached(std::size_t index) const;
  /// True when every slot is filled — i.e. this table is the full grid,
  /// not one shard's slice. Benches aggregate only complete tables.
  bool complete() const;
  std::size_t computed_cells() const { return count(kComputed); }
  std::size_t cached_cells() const { return count(kCached); }
  std::size_t absent_cells() const { return count(kAbsent); }

  /// Wall-clock of the whole sweep and the parallelism it ran at (set by
  /// SweepRunner; timing is reported in JSON only, never in CSV).
  double total_seconds() const { return total_seconds_; }
  int sweep_parallel() const { return sweep_parallel_; }
  int shard_index() const { return shard_index_; }
  int shard_count() const { return shard_count_; }

  /// Generic CSV: key,tag,dataset + one column per metric name (the
  /// union across all filled scenarios, first-seen order; a scenario
  /// missing a metric leaves an empty cell). Absent slots are skipped.
  /// Fields are RFC-4180-escaped. Deterministic (contains no timings).
  std::string to_csv() const;

  /// Machine-readable summary. The per-scenario entries are fully
  /// deterministic for a given set of computed values (replayed cells
  /// reproduce their original compute seconds), while everything
  /// run-specific — parallelism, total wall-clock, shard spec, and the
  /// cache-hit/computed accounting — lives in a single-line "run"
  /// object, so warm/cold runs of one grid can be diffed by dropping
  /// that one line.
  std::string to_json(const std::string& bench_name) const;
  void write_json(const std::string& path,
                  const std::string& bench_name) const;

 private:
  friend class SweepRunner;
  enum SlotState : char { kAbsent = 0, kComputed = 1, kCached = 2 };

  void set_slot(std::size_t index, ScenarioResult result, SlotState state);
  std::size_t count(SlotState state) const;

  std::unique_ptr<std::mutex> mu_;
  std::vector<ScenarioResult> rows_;
  std::vector<char> state_;
  double total_seconds_ = 0.0;
  int sweep_parallel_ = 1;
  int threads_ = 0;
  int shard_index_ = 0;
  int shard_count_ = 1;
};

/// Shared immutable state scenarios read: per-dataset workloads (data +
/// trained baseline) and the parameter snapshots used for cloning.
class SweepContext {
 public:
  /// The prepared workload for `kind`; throws if it was never prepared.
  /// Read-only by design: scenarios share it and must mutate only their
  /// own clone_network() copies.
  const Workload& workload(DatasetKind kind) const;

  /// Independent copy of the trained baseline network for `kind`
  /// (rebuilds the architecture deterministically, then restores the
  /// trained parameter snapshot). Safe to call concurrently.
  snn::Network clone_network(DatasetKind kind) const;

 private:
  friend class SweepRunner;
  struct Baseline {
    Workload workload;
    std::vector<tensor::Tensor> snapshot;
  };
  WorkloadOptions opts_;
  std::map<DatasetKind, Baseline> baselines_;
};

/// Computes ScenarioResult for one scenario. Runs concurrently with other
/// scenarios: it must only read the context (clone_network for a private
/// network) and derive randomness from the scenario.
using ScenarioFn =
    std::function<ScenarioResult(const Scenario&, const SweepContext&)>;

/// One bench's grid: its store identity (bench name + fingerprint config
/// + shard spec; an empty store dir runs the grid store-less), its
/// scenarios, and its scenario function. The function must be built
/// against the runner's context() so the baselines the runner prepares
/// are the ones it clones from.
struct SweepGrid {
  SweepStoreOptions store;
  std::vector<Scenario> scenarios;
  ScenarioFn fn;
};

/// Executes one or more grids as one cost-ordered work queue.
///
/// All grids share one SweepContext, so a dataset baseline is trained or
/// restored once per run no matter how many grids need it. Every
/// cell is fingerprinted exactly as its owning bench would fingerprint it
/// standalone (same bench name, config, and workload identity), so a
/// store is interchangeable between a figure bench and the fleet driver:
/// cells computed by one replay in the other. Per-grid shard specs are
/// honored (shard_partition assigns each cell a cost-balanced owner), so
/// a multi-grid run can itself be sharded across machines and merged
/// with sweep_merge like any other sweep.
class SweepRunner {
 public:
  /// `opts.sweep_parallel` is the worker count across all grids: 0 means
  /// the hardware concurrency; run() clamps it to [1, min(cells to
  /// compute, kMaxThreads)].
  explicit SweepRunner(WorkloadOptions opts);

  /// Shared baseline context — build each grid's scenario function
  /// against this (valid for the lifetime of the runner and populated
  /// lazily during run(), only for datasets with cells to compute).
  const SweepContext& context() const { return ctx_; }

  void set_on_baseline(std::function<void(const Workload&)> cb) {
    on_baseline_ = std::move(cb);
  }

  /// Skip workload preparation entirely — for grids whose scenario
  /// functions never touch a dataset or baseline network (pure cost
  /// models, wall-clock harnesses). clone_network/workload then throw.
  void set_prepare_baselines(bool enabled) { prepare_baselines_ = enabled; }

  /// Replace the built-in cost-ordered queue with an external one (the
  /// fleet daemon's socket queue). `queue` must outlive run(); nullptr
  /// restores the built-in queue. The runner still triages and replays
  /// cached cells itself, but computes only the cells the queue hands it
  /// — re-checking the store before each when the queue is
  /// at_least_once().
  void set_cell_queue(CellQueue* queue) { cell_queue_ = queue; }

  /// Register one grid. Scenario keys must be unique within a grid
  /// (validated at run(); across grids the bench name disambiguates).
  /// Throws std::invalid_argument on a bad shard spec or a missing fn.
  void add_grid(SweepGrid grid);

  /// Per-worker accounting of the last run() (empty before any run).
  const std::vector<WorkerStats>& worker_stats() const {
    return worker_stats_;
  }

  /// Run every added grid: replay each store hit, prepare the baselines
  /// of the datasets that still have cells to compute, execute those
  /// cells most-expensive-first (concurrently when more than one worker
  /// resolves), publish each to its grid's store, write every grid's
  /// manifest, print the buffered per-scenario logs grid-major in
  /// scenario order, and return one filled table per grid in add_grid
  /// order (complete unless sharded with uncached foreign cells).
  /// A scenario that throws fails the run fast: no further cells are
  /// claimed (in-flight ones finish), then run() throws a runtime_error
  /// carrying every collected error. With more than one grid, progress
  /// lines and errors name the bench of each cell.
  std::vector<ResultTable> run();

 private:
  struct GridState;

  /// Each dataset's baseline, through its store chain (or in memory).
  void prepare_kinds(const std::map<DatasetKind, store::StoreApi*>& kinds);
  /// Fingerprint, manifest, and triage grid `g`: replayed cells fill its
  /// table, owned misses are appended to `pending`.
  GridState triage(std::size_t g, bool labeled,
                   std::vector<CellQueue::Claim>& pending) const;

  WorkloadOptions opts_;
  SweepContext ctx_;
  std::vector<SweepGrid> grids_;
  std::function<void(const Workload&)> on_baseline_;
  bool prepare_baselines_ = true;
  CellQueue* cell_queue_ = nullptr;
  std::vector<WorkerStats> worker_stats_;
};

}  // namespace falvolt::core
