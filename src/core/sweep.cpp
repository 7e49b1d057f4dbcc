#include "core/sweep.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "common/bytes.h"
#include "common/csv.h"
#include "common/json.h"
#include "common/timer.h"
#include "common/version.h"
#include "compute/thread_pool.h"
#include "io/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/fingerprint.h"
#include "store/manifest.h"
#include "store/result_store.h"
#include "store/store_api.h"

namespace falvolt::core {

namespace {

using common::json_escape;

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// --------------------------------------------- ScenarioResult byte codec
//
// Little-endian, length-prefixed throughout (common/bytes.h — the same
// primitives the fleet wire protocol frames with). The store frame
// around the payload already carries magic/epoch/checksum
// (record_frame.h), so the codec only needs a version word of its own
// plus per-field lengths that the reader validates against the
// remaining bytes.

// v2 appended the provenance block (host, version, unix_time,
// store_epoch). decode rejects foreign versions, so a store written by
// an older build degrades to recompute-on-read — never an error.
// POLICY: every codec bump must bump store::kStoreFormatEpoch with it
// (see fingerprint.h) so old and new records never share an address.
constexpr std::uint32_t kCodecVersion = 2;

// Hostname of this process, resolved once (records are stamped from
// worker threads; gethostname on every cell would be wasted syscalls).
const std::string& process_hostname() {
  static const std::string host = [] {
    char buf[256] = {0};
    if (::gethostname(buf, sizeof(buf) - 1) != 0) {
      return std::string("unknown");
    }
    return std::string(buf);
  }();
  return host;
}

Provenance make_provenance() {
  Provenance p;
  p.host = process_hostname();
  p.version = kFalvoltVersion;
  p.unix_time = static_cast<std::uint64_t>(std::time(nullptr));
  p.store_epoch = store::kStoreFormatEpoch;
  return p;
}

using common::ByteReader;
using common::put_f64;
using common::put_i32;
using common::put_str;
using common::put_u32;
using common::put_u64;

}  // namespace

std::string encode_scenario_result(const ScenarioResult& r) {
  std::string b;
  put_u32(b, kCodecVersion);
  put_str(b, r.scenario.key);
  put_str(b, r.scenario.tag);
  put_u32(b, static_cast<std::uint32_t>(r.scenario.dataset));
  put_f64(b, r.scenario.vth);
  put_f64(b, r.scenario.fault_rate);
  put_i32(b, r.scenario.fault_count);
  put_i32(b, r.scenario.bit);
  put_u32(b, static_cast<std::uint32_t>(r.scenario.stuck));
  put_i32(b, r.scenario.array_size);
  put_i32(b, r.scenario.repeat);
  put_u64(b, r.scenario.fault_seed);
  put_u32(b, r.scenario.retrain ? 1 : 0);
  put_i32(b, r.scenario.epochs);
  put_str(b, r.fingerprint);
  put_u32(b, static_cast<std::uint32_t>(r.metrics.size()));
  for (const auto& [name, value] : r.metrics) {
    put_str(b, name);
    put_f64(b, value);
  }
  put_u32(b, static_cast<std::uint32_t>(r.csv_rows.size()));
  for (const auto& row : r.csv_rows) {
    put_u32(b, static_cast<std::uint32_t>(row.size()));
    for (const std::string& cell : row) put_str(b, cell);
  }
  put_str(b, r.log);
  put_f64(b, r.seconds);
  put_str(b, r.provenance.host);
  put_str(b, r.provenance.version);
  put_u64(b, r.provenance.unix_time);
  put_u32(b, r.provenance.store_epoch);
  return b;
}

bool decode_scenario_result(const std::string& bytes, ScenarioResult& out) {
  ByteReader in{bytes};
  std::uint32_t version = 0;
  if (!in.u32(version) || version != kCodecVersion) return false;
  ScenarioResult r;
  std::uint32_t dataset = 0;
  std::uint32_t stuck = 0;
  std::uint32_t retrain = 0;
  if (!in.str(r.scenario.key) || !in.str(r.scenario.tag) ||
      !in.u32(dataset) || !in.f64(r.scenario.vth) ||
      !in.f64(r.scenario.fault_rate) || !in.i32(r.scenario.fault_count) ||
      !in.i32(r.scenario.bit) || !in.u32(stuck) ||
      !in.i32(r.scenario.array_size) || !in.i32(r.scenario.repeat) ||
      !in.u64(r.scenario.fault_seed) || !in.u32(retrain) ||
      !in.i32(r.scenario.epochs) || !in.str(r.fingerprint)) {
    return false;
  }
  if (dataset > static_cast<std::uint32_t>(DatasetKind::kDvsGesture) ||
      stuck > 1 || retrain > 1) {
    return false;
  }
  r.scenario.dataset = static_cast<DatasetKind>(dataset);
  r.scenario.stuck = static_cast<fx::StuckType>(stuck);
  r.scenario.retrain = retrain != 0;

  std::uint32_t metric_count = 0;
  if (!in.u32(metric_count)) return false;
  r.metrics.reserve(std::min<std::size_t>(metric_count, in.remaining()));
  for (std::uint32_t m = 0; m < metric_count; ++m) {
    std::string name;
    double value = 0.0;
    if (!in.str(name) || !in.f64(value)) return false;
    r.metrics.emplace_back(std::move(name), value);
  }
  std::uint32_t row_count = 0;
  if (!in.u32(row_count)) return false;
  for (std::uint32_t i = 0; i < row_count; ++i) {
    std::uint32_t cell_count = 0;
    if (!in.u32(cell_count)) return false;
    std::vector<std::string> row;
    row.reserve(std::min<std::size_t>(cell_count, in.remaining()));
    for (std::uint32_t c = 0; c < cell_count; ++c) {
      std::string cell;
      if (!in.str(cell)) return false;
      row.push_back(std::move(cell));
    }
    r.csv_rows.push_back(std::move(row));
  }
  if (!in.str(r.log) || !in.f64(r.seconds)) return false;
  if (!in.str(r.provenance.host) || !in.str(r.provenance.version) ||
      !in.u64(r.provenance.unix_time) || !in.u32(r.provenance.store_epoch)) {
    return false;
  }
  // Trailing garbage means the record is not what encode() wrote.
  if (in.remaining() != 0) return false;
  out = std::move(r);
  return true;
}

std::pair<int, int> parse_shard_spec(const std::string& spec) {
  if (spec.empty()) return {0, 1};
  const std::size_t slash = spec.find('/');
  if (slash == std::string::npos || slash == 0 ||
      slash + 1 >= spec.size()) {
    throw std::invalid_argument("shard spec must be 'i/n', got '" + spec +
                                "'");
  }
  int index = 0;
  int count = 0;
  try {
    std::size_t used = 0;
    index = std::stoi(spec.substr(0, slash), &used);
    if (used != slash) throw std::invalid_argument("trailing junk");
    const std::string count_part = spec.substr(slash + 1);
    count = std::stoi(count_part, &used);
    if (used != count_part.size()) throw std::invalid_argument("junk");
  } catch (const std::exception&) {
    throw std::invalid_argument("shard spec must be 'i/n', got '" + spec +
                                "'");
  }
  if (count < 1 || index < 0 || index >= count) {
    throw std::invalid_argument("shard spec '" + spec +
                                "' needs 0 <= i < n");
  }
  return {index, count};
}

std::vector<int> shard_partition(const std::vector<double>& costs,
                                 int shard_count) {
  if (shard_count < 1) {
    throw std::invalid_argument("shard_partition: shard_count must be >= 1");
  }
  std::vector<int> owners(costs.size(), 0);
  if (shard_count == 1) return owners;
  // Greedy LPT: visit cells most-expensive-first (stable sort, so equal
  // costs keep grid order and the partition is deterministic), assign
  // each to the least-loaded shard so far (ties to the lowest shard id).
  std::vector<int> order(costs.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  std::stable_sort(order.begin(), order.end(), [&costs](int a, int b) {
    return costs[static_cast<std::size_t>(a)] >
           costs[static_cast<std::size_t>(b)];
  });
  std::vector<double> load(static_cast<std::size_t>(shard_count), 0.0);
  for (const int i : order) {
    int best = 0;
    for (int s = 1; s < shard_count; ++s) {
      if (load[static_cast<std::size_t>(s)] <
          load[static_cast<std::size_t>(best)]) {
        best = s;
      }
    }
    owners[static_cast<std::size_t>(i)] = best;
    load[static_cast<std::size_t>(best)] +=
        costs[static_cast<std::size_t>(i)];
  }
  return owners;
}

double scenario_cost_estimate(const Scenario& s) {
  if (s.cost_hint > 0.0) return s.cost_hint;
  if (s.retrain) {
    return kRetrainCostPerEpoch * static_cast<double>(std::max(1, s.epochs));
  }
  return 1.0;
}

// ------------------------------------------------------------ ResultTable

void ResultTable::set_slot(std::size_t index, ScenarioResult result,
                           SlotState state) {
  std::lock_guard<std::mutex> lock(*mu_);
  rows_.at(index) = std::move(result);
  state_.at(index) = state;
}

void ResultTable::put(std::size_t index, ScenarioResult result) {
  set_slot(index, std::move(result), kComputed);
}

void ResultTable::put_cached(std::size_t index, ScenarioResult result) {
  set_slot(index, std::move(result), kCached);
}

std::size_t ResultTable::count(SlotState state) const {
  std::size_t n = 0;
  for (const char s : state_) {
    if (s == state) ++n;
  }
  return n;
}

bool ResultTable::is_filled(std::size_t index) const {
  return state_.at(index) != kAbsent;
}

bool ResultTable::is_cached(std::size_t index) const {
  return state_.at(index) == kCached;
}

bool ResultTable::complete() const {
  return count(kAbsent) == 0;
}

const ScenarioResult& ResultTable::at(std::size_t index) const {
  return rows_.at(index);
}

const ScenarioResult* ResultTable::find(const std::string& key) const {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (state_[i] != kAbsent && rows_[i].scenario.key == key) {
      return &rows_[i];
    }
  }
  return nullptr;
}

const ScenarioResult& ResultTable::get(const std::string& key) const {
  const ScenarioResult* r = find(key);
  if (!r) throw std::out_of_range("ResultTable: no scenario " + key);
  return *r;
}

std::string ResultTable::to_csv() const {
  // Columns are the union of all metric names in first-seen order, so
  // sweeps with heterogeneous metrics (e.g. the ablation arms) still
  // emit rectangular CSV — a scenario missing a metric gets an empty
  // cell. Absent slots (cells of other shards) are skipped.
  std::vector<std::string> columns;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (state_[i] == kAbsent) continue;
    for (const auto& [name, value] : rows_[i].metrics) {
      (void)value;
      if (std::find(columns.begin(), columns.end(), name) ==
          columns.end()) {
        columns.push_back(name);
      }
    }
  }
  std::string out = "key,tag,dataset";
  for (const std::string& name : columns) {
    out += ',';
    out += common::csv_escape(name);
  }
  out += '\n';
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (state_[i] == kAbsent) continue;
    const ScenarioResult& r = rows_[i];
    out += common::csv_escape(r.scenario.key);
    out += ',';
    out += common::csv_escape(r.scenario.tag);
    out += ',';
    out += common::csv_escape(dataset_name(r.scenario.dataset));
    for (const std::string& name : columns) {
      out += ',';
      for (const auto& [metric, value] : r.metrics) {
        if (metric == name) {
          out += common::CsvWriter::format(value);
          break;
        }
      }
    }
    out += '\n';
  }
  return out;
}

std::string ResultTable::to_json(const std::string& bench_name) const {
  // The per-scenario entries below are deterministic for a given set of
  // computed cell values (replayed cells reproduce the compute seconds
  // stored in their record); everything run-specific stays on the
  // single "run" line so warm/cold runs diff clean without it.
  std::string computed_keys = "[";
  bool first = true;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (state_[i] != kComputed) continue;
    computed_keys += first ? "\"" : ", \"";
    computed_keys += json_escape(rows_[i].scenario.key);
    computed_keys += '"';
    first = false;
  }
  computed_keys += ']';

  std::string json =
      "{\n  \"bench\": \"" + json_escape(bench_name) +
      "\",\n  \"scenario_count\": " + std::to_string(rows_.size()) +
      ",\n  \"run\": {\"sweep_parallel\": " +
      std::to_string(sweep_parallel_) +
      ", \"threads\": " + std::to_string(threads_) +
      ", \"total_seconds\": " + json_number(total_seconds_) +
      ", \"shard_index\": " + std::to_string(shard_index_) +
      ", \"shard_count\": " + std::to_string(shard_count_) +
      ", \"cells_computed\": " + std::to_string(computed_cells()) +
      ", \"cells_cached\": " + std::to_string(cached_cells()) +
      ", \"cells_absent\": " + std::to_string(absent_cells()) +
      ", \"computed_keys\": " + computed_keys + "},\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const ScenarioResult& r = rows_[i];
    if (state_[i] == kAbsent) {
      json += "    {\"key\": \"" + json_escape(r.scenario.key) +
              "\", \"fingerprint\": \"" + json_escape(r.fingerprint) +
              "\", \"absent\": true}";
    } else {
      json += "    {\"key\": \"" + json_escape(r.scenario.key) +
              "\", \"tag\": \"" + json_escape(r.scenario.tag) +
              "\", \"dataset\": \"" + dataset_name(r.scenario.dataset) +
              "\", \"repeat\": " + std::to_string(r.scenario.repeat) +
              ", \"retrain\": " +
              (r.scenario.retrain ? "true" : "false") +
              ", \"fingerprint\": \"" + json_escape(r.fingerprint) +
              "\", \"seconds\": " + json_number(r.seconds) +
              ", \"provenance\": {\"host\": \"" +
              json_escape(r.provenance.host) + "\", \"version\": \"" +
              json_escape(r.provenance.version) + "\", \"unix_time\": " +
              std::to_string(r.provenance.unix_time) +
              ", \"store_epoch\": " +
              std::to_string(r.provenance.store_epoch) + "}, \"metrics\": {";
      for (std::size_t m = 0; m < r.metrics.size(); ++m) {
        json += (m ? ", \"" : "\"") + json_escape(r.metrics[m].first) +
                "\": " + json_number(r.metrics[m].second);
      }
      json += "}}";
    }
    json += i + 1 == rows_.size() ? "\n" : ",\n";
  }
  json += "  ]\n}\n";
  return json;
}

void ResultTable::write_json(const std::string& path,
                             const std::string& bench_name) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("ResultTable: cannot open " + path);
  out << to_json(bench_name);
}

// ----------------------------------------------------------- SweepContext

const Workload& SweepContext::workload(DatasetKind kind) const {
  const auto it = baselines_.find(kind);
  if (it == baselines_.end()) {
    throw std::logic_error(std::string("SweepContext: workload ") +
                           dataset_name(kind) + " was never prepared");
  }
  return it->second.workload;
}

snn::Network SweepContext::clone_network(DatasetKind kind) const {
  const auto it = baselines_.find(kind);
  if (it == baselines_.end()) {
    throw std::logic_error(std::string("SweepContext: workload ") +
                           dataset_name(kind) + " was never prepared");
  }
  snn::Network net =
      build_network(kind, it->second.workload.data.train, opts_.seed);
  net.restore_params(it->second.snapshot);
  return net;
}

std::string fingerprint_cell(const SweepStoreOptions& store,
                             const WorkloadOptions& opts, const Scenario& s) {
  // Everything that determines the cell's output, nothing that is
  // execution-only (cost_hint drives only queue order, so it is absent —
  // two scenarios differing only in cost estimate are the same cell).
  // Field ORDER is part of the hash — append new fields at the end (any
  // change here re-addresses the whole store, which is safe but
  // discards every cached cell).
  store::Fingerprinter fp;
  fp.add("bench", store.bench);
  for (const auto& [name, value] : store.config) {
    fp.add("cfg:" + name, value);
  }
  fp.add("workload", workload_id(s.dataset, opts));
  fp.add("key", s.key);
  fp.add("tag", s.tag);
  fp.add("vth", s.vth);
  fp.add("fault_rate", s.fault_rate);
  fp.add("fault_count", static_cast<std::int64_t>(s.fault_count));
  fp.add("bit", static_cast<std::int64_t>(s.bit));
  fp.add("stuck", static_cast<std::int64_t>(s.stuck));
  fp.add("array_size", static_cast<std::int64_t>(s.array_size));
  fp.add("repeat", static_cast<std::int64_t>(s.repeat));
  fp.add("fault_seed", std::uint64_t{s.fault_seed});
  fp.add("retrain", s.retrain);
  fp.add("epochs", static_cast<std::int64_t>(s.epochs));
  return fp.digest();
}

std::optional<ScenarioResult> lookup_cell(const store::StoreApi& rs,
                                          const std::string& fp,
                                          const std::string& key) {
  const std::optional<std::string> payload = rs.get(fp);
  ScenarioResult r;
  if (!payload || !decode_scenario_result(*payload, r) ||
      r.scenario.key != key) {
    return std::nullopt;
  }
  return r;
}

// ------------------------------------------------------------ SweepRunner

namespace {

// The built-in work queue: every grid's pending cells, sorted
// most-expensive-first (stable, so equal-cost cells keep grid-major
// order) and claimed one at a time through a shared counter. A worker
// done with one bench's cheap cells immediately steals the next pending
// cell whatever its grid — no per-grid barrier — and a retrain cell is
// claimed while the cheap evals still cover the other workers: claimed
// LAST it would strand one worker for its whole duration after everyone
// else drained the queue. Claim order is pure scheduling — tables are
// emitted in grid order, so it never reaches a CSV or JSON value.
class CostOrderedQueue final : public CellQueue {
 public:
  explicit CostOrderedQueue(std::vector<Claim> cells)
      : cells_(std::move(cells)) {
    std::stable_sort(cells_.begin(), cells_.end(),
                     [](const Claim& a, const Claim& b) {
                       return a.cost > b.cost;
                     });
  }

  std::optional<Claim> claim(int /*worker*/) override {
    const std::size_t i = next_.fetch_add(1);
    if (i >= cells_.size()) return std::nullopt;
    return cells_[i];
  }
  void complete(const Claim&, bool, double) override {}
  void fail(const Claim&, const std::string&) override {}
  bool at_least_once() const override { return false; }

 private:
  std::vector<Claim> cells_;
  std::atomic<std::size_t> next_{0};
};

// Scenario-level worker count for `n` cells to compute:
// opts.sweep_parallel, with 0 meaning the hardware concurrency, clamped
// to [1, min(n, kMaxThreads)].
int resolve_parallel(const WorkloadOptions& opts, std::size_t n) {
  int want = opts.sweep_parallel;
  if (want <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    want = hw == 0 ? 1 : static_cast<int>(hw);
  }
  want = std::min(want, compute::ThreadPool::kMaxThreads);
  if (n < static_cast<std::size_t>(want)) want = static_cast<int>(n);
  return std::max(1, want);
}

}  // namespace

// Per-grid working state of one run().
struct SweepRunner::GridState {
  const SweepGrid* grid = nullptr;
  std::string label;  // non-empty => bench-prefixed progress/error lines
  std::unique_ptr<store::StoreApi> rs;
  std::vector<std::string> fps;
  ResultTable table;
  std::size_t pending = 0;  // owned misses this run computes
};

SweepRunner::SweepRunner(WorkloadOptions opts) : opts_(std::move(opts)) {
  ctx_.opts_ = opts_;
}

void SweepRunner::add_grid(SweepGrid grid) {
  if (grid.store.shard_count < 1 || grid.store.shard_index < 0 ||
      grid.store.shard_index >= grid.store.shard_count) {
    throw std::invalid_argument(
        "SweepRunner: shard index " + std::to_string(grid.store.shard_index) +
        " out of range for " + std::to_string(grid.store.shard_count) +
        " shard(s)");
  }
  if (!grid.fn) {
    throw std::invalid_argument("SweepRunner: grid '" + grid.store.bench +
                                "' has no scenario function");
  }
  grids_.push_back(std::move(grid));
}

void SweepRunner::prepare_kinds(const std::set<DatasetKind>& kinds) {
  static obs::Counter& ns = obs::counter("sweep.baseline.ns");
  static obs::Counter& count = obs::counter("sweep.baseline.count");
  for (const DatasetKind kind : kinds) {
    if (ctx_.baselines_.count(kind)) continue;
    obs::TraceSpan span("sweep", std::string("baseline:") + dataset_name(kind));
    obs::ScopedTimer timed(ns, count);
    Workload wl = prepare_workload(kind, opts_);
    std::vector<tensor::Tensor> snapshot = wl.net.snapshot_params();
    if (on_baseline_) on_baseline_(wl);
    ctx_.order_.push_back(kind);
    ctx_.baselines_.emplace(
        kind, SweepContext::Baseline{std::move(wl), std::move(snapshot)});
  }
}

SweepRunner::GridState SweepRunner::triage(
    std::size_t g, bool labeled,
    std::vector<CellQueue::Claim>& pending) const {
  GridState st;
  st.grid = &grids_[g];
  const SweepStoreOptions& store = st.grid->store;
  const std::vector<Scenario>& scenarios = st.grid->scenarios;
  if (labeled) {
    st.label = store.bench.empty() ? "grid" + std::to_string(g) : store.bench;
  }
  {
    std::set<std::string> keys;
    for (const Scenario& s : scenarios) {
      if (!keys.insert(s.key).second) {
        throw std::invalid_argument("SweepRunner: duplicate scenario key " +
                                    s.key);
      }
    }
  }
  const std::size_t total = scenarios.size();
  st.table = ResultTable(total);
  st.table.shard_index_ = store.shard_index;
  st.table.shard_count_ = store.shard_count;
  st.fps.assign(total, "");

  const bool use_store = !store.dir.empty();
  if (use_store) {
    st.rs = store::open_store(store.dir, store.substituters);
    for (std::size_t i = 0; i < total; ++i) {
      st.fps[i] = fingerprint_cell(store, opts_, scenarios[i]);
    }
    // The manifest lists the FULL grid (all shards) and is identical
    // across the shards of one grid; written before any compute so a
    // killed sweep still leaves the merge/plan tooling its grid.
    store::Manifest manifest;
    manifest.bench = store.bench.empty() ? "sweep" : store.bench;
    for (std::size_t i = 0; i < total; ++i) {
      manifest.entries.emplace_back(st.fps[i], scenarios[i].key);
    }
    st.rs->put_manifest(manifest);
  }
  // Cost-balanced shard ownership over the STATIC cost estimates (every
  // independently launched shard derives the identical partition).
  std::vector<int> owners;
  if (store.shard_count > 1) {
    std::vector<double> est(total);
    for (std::size_t i = 0; i < total; ++i) {
      est[i] = scenario_cost_estimate(scenarios[i]);
    }
    owners = shard_partition(est, store.shard_count);
  }

  // Triage every cell: replay a valid cached record (any shard's),
  // otherwise compute it if this shard owns it, otherwise leave the slot
  // absent for sweep_merge to fill from the other shards' stores.
  static obs::Counter& cached_cells = obs::counter("sweep.cells.cached");
  static obs::Counter& get_ns = obs::counter("sweep.store.get.ns");
  static obs::Counter& get_count = obs::counter("sweep.store.get.count");
  obs::TraceSpan triage_span(
      "sweep", "triage:" + (store.bench.empty() ? "sweep" : store.bench));
  for (std::size_t i = 0; i < total; ++i) {
    st.table.rows_[i].scenario = scenarios[i];
    st.table.rows_[i].fingerprint = st.fps[i];
    if (use_store && store.resume) {
      obs::TraceSpan span("store", "triage.get");
      if (obs::trace_enabled()) {
        span.arg("key", scenarios[i].key);
        span.arg("fingerprint", st.fps[i].substr(0, 16));
      }
      std::optional<ScenarioResult> cached;
      {
        obs::ScopedTimer timed(get_ns, get_count);
        cached = lookup_cell(*st.rs, st.fps[i], scenarios[i].key);
      }
      span.arg("cached", cached.has_value());
      if (cached) {
        cached->scenario = scenarios[i];
        cached->fingerprint = st.fps[i];
        st.table.set_slot(i, std::move(*cached), ResultTable::kCached);
        cached_cells.add(1);
        continue;
      }
    }
    if (store.shard_count == 1 || owners[i] == store.shard_index) {
      // Estimated cost for the cost-ordered queue. On a warm store a
      // recompute run (--resume false) refines the grid's static estimate
      // with the wall-clock the cell took last time — the most accurate
      // predictor available. (With resume on, a cell that has a usable
      // record was replayed above, so every pending cell is a true miss
      // with no history.)
      double cost = scenario_cost_estimate(scenarios[i]);
      if (use_store && !store.resume) {
        const std::optional<ScenarioResult> prior =
            lookup_cell(*st.rs, st.fps[i], scenarios[i].key);
        if (prior && prior->seconds > 0.0) cost = prior->seconds;
      }
      pending.push_back(
          CellQueue::Claim{static_cast<int>(g), static_cast<int>(i), cost});
      ++st.pending;
    }
  }
  if (use_store) {
    const std::string where = st.label.empty()
                                  ? "store " + store.dir
                                  : st.label + " @ store " + store.dir;
    std::fprintf(stderr,
                 "[sweep] %s: %zu cached, %zu to compute, %zu "
                 "foreign-shard cell(s) (shard %d/%d)\n",
                 where.c_str(), st.table.cached_cells(), st.pending,
                 total - st.table.cached_cells() - st.pending,
                 store.shard_index, store.shard_count);
  }
  return st;
}

std::vector<ResultTable> SweepRunner::run() {
  if (grids_.empty()) {
    throw std::logic_error("SweepRunner: no grids added");
  }
  // Bench-prefixed progress and error lines only when there is more than
  // one bench to tell apart.
  const bool labeled = grids_.size() > 1;
  std::vector<GridState> gs;
  gs.reserve(grids_.size());
  std::vector<CellQueue::Claim> pending;
  for (std::size_t g = 0; g < grids_.size(); ++g) {
    gs.push_back(triage(g, labeled, pending));
  }

  // Baselines only for datasets some grid actually computes — shared
  // across grids through ctx_, so a multi-grid run trains/loads each
  // dataset once no matter how many benches need it, and a fully warm
  // re-run trains/loads nothing at all.
  if (prepare_baselines_ && !pending.empty()) {
    std::set<DatasetKind> kinds;
    for (const CellQueue::Claim& c : pending) {
      kinds.insert(grids_[static_cast<std::size_t>(c.grid)]
                       .scenarios[static_cast<std::size_t>(c.index)]
                       .dataset);
    }
    prepare_kinds(kinds);
  }

  const int np = static_cast<int>(pending.size());
  const int parallel = resolve_parallel(opts_, pending.size());
  // Workload-free and fully-cached sweeps must not spawn the
  // process-wide GEMM pool just to report its size in the JSON summary;
  // when baselines were prepared the pool already exists (training ran
  // on it).
  const int threads =
      prepare_baselines_ && np > 0 ? compute::global_threads() : 0;
  for (GridState& st : gs) {
    st.table.sweep_parallel_ = parallel;
    st.table.threads_ = threads;
  }

  // While this run still has cells to publish, mark every destination
  // store in-progress (a pid-stamped marker under tmp/):
  // sweep_merge refuses to emit a partial table from a store a live
  // fleet is still publishing into. RAII — markers vanish on every exit
  // path, and a SIGKILL leaves only a dead-pid marker later runs ignore.
  std::vector<std::unique_ptr<store::InProgressGuard>> inprogress;
  {
    std::set<std::string> marked;
    for (const GridState& st : gs) {
      if (st.pending == 0 || !st.rs) continue;
      const std::string& root = st.grid->store.dir;
      if (marked.insert(root).second) {
        inprogress.push_back(std::make_unique<store::InProgressGuard>(root));
      }
    }
  }

  // The built-in queue, unless an external one (the daemon's socket
  // queue) hands out the claims; the local pending list then only
  // seeded baseline preparation and the worker count.
  CostOrderedQueue own_queue(cell_queue_ ? std::vector<CellQueue::Claim>{}
                                         : std::move(pending));
  CellQueue& queue = cell_queue_ ? *cell_queue_ : own_queue;

  common::Timer timer;
  std::mutex err_mu;
  std::vector<std::string> errors;
  std::atomic<int> done{0};
  worker_stats_.assign(static_cast<std::size_t>(parallel), WorkerStats{});
  // A failed scenario stops further claims (in-flight scenarios finish,
  // then run() throws) — a deterministic error affecting every cell must
  // not burn hours draining the rest of the grid first.
  std::atomic<bool> failed{false};
  const auto run_one = [&](const CellQueue::Claim& claim, int worker) {
    static obs::Counter& computed_cells = obs::counter("sweep.cells.computed");
    static obs::Counter& failed_cells = obs::counter("sweep.cells.failed");
    static obs::Counter& put_ns = obs::counter("sweep.store.put.ns");
    static obs::Counter& put_count = obs::counter("sweep.store.put.count");
    static obs::Counter& recheck_cells =
        obs::counter("sweep.cells.recheck_cached");
    GridState& st = gs[static_cast<std::size_t>(claim.grid)];
    const std::size_t idx = static_cast<std::size_t>(claim.index);
    const Scenario& scenario = st.grid->scenarios[idx];
    // An at-least-once queue may deliver a cell twice (a SIGKILLed
    // worker's in-flight claims are re-queued, and the original may in
    // fact have published before dying). Re-probing the shared store
    // before computing turns the duplicate into a replay of the paid-for
    // record — the "zero lost paid work" half of the crash contract costs
    // one store read, not a recompute.
    if (queue.at_least_once() && st.rs && st.grid->store.resume) {
      if (std::optional<ScenarioResult> r =
              lookup_cell(*st.rs, st.fps[idx], scenario.key)) {
        r->scenario = scenario;
        r->fingerprint = st.fps[idx];
        st.table.put_cached(idx, std::move(*r));
        recheck_cells.add(1);
        std::fprintf(stderr, "[sweep %d/?] %s%s%s (already published)\n",
                     done.fetch_add(1) + 1, st.label.c_str(),
                     st.label.empty() ? "" : ":", scenario.key.c_str());
        queue.complete(claim, /*cached=*/true, 0.0);
        return;
      }
    }
    // One span per computed cell, on the claiming worker's track; the
    // args are exactly what an operator needs to find the cell again
    // (bench, key, fingerprint prefix) plus the schedule facts (worker,
    // cached=false — cached cells replay during triage, not here).
    obs::TraceSpan cell_span("sweep", "cell");
    if (obs::trace_enabled()) {
      cell_span.arg("bench", st.grid->store.bench.empty()
                                 ? (st.label.empty() ? "sweep" : st.label)
                                 : st.grid->store.bench);
      cell_span.arg("key", scenario.key);
      if (!st.fps[idx].empty()) {
        cell_span.arg("fingerprint", st.fps[idx].substr(0, 16));
      }
      cell_span.arg("worker", worker);
      cell_span.arg("cached", false);
    }
    common::Timer t;
    const char* status = "";
    try {
      ScenarioResult r;
      {
        obs::TraceSpan eval_span("sweep", "eval");
        r = st.grid->fn(scenario, ctx_);
      }
      r.scenario = scenario;
      r.fingerprint = st.fps[idx];
      r.seconds = t.seconds();
      r.provenance = make_provenance();
      if (st.rs) {
        obs::TraceSpan put_span("store", "put");
        obs::ScopedTimer timed(put_ns, put_count);
        // Plug-pull points bracketing the cell's publish: a kill before
        // loses exactly this (unpublished) cell to recompute on resume; a
        // kill after must lose nothing — the paid work is durable.
        FALVOLT_PTP(io::FaultSensitivity::kHigh);
        st.rs->put(st.fps[idx], encode_scenario_result(r));
        FALVOLT_PTP();
      }
      st.table.put(idx, std::move(r));
      computed_cells.add(1);
      queue.complete(claim, /*cached=*/false, t.seconds());
    } catch (const std::exception& e) {
      failed.store(true);
      failed_cells.add(1);
      status = " FAILED";
      {
        std::lock_guard<std::mutex> lock(err_mu);
        errors.push_back((st.label.empty() ? "" : st.label + ": ") +
                         scenario.key + ": " + e.what());
      }
      queue.fail(claim, scenario.key + ": " + e.what());
    }
    // Each worker slot writes only its own entry — no lock needed.
    WorkerStats& ws = worker_stats_[static_cast<std::size_t>(worker)];
    ws.cells += 1;
    ws.busy_seconds += t.seconds();
    // Live progress goes to stderr in completion order (retraining grids
    // run for hours otherwise silent); the deterministic per-scenario
    // logs still print to stdout in scenario order below.
    std::fprintf(stderr, "[sweep %d/%d] %s%s%s (%.1f s)%s\n",
                 done.fetch_add(1) + 1, np, st.label.c_str(),
                 st.label.empty() ? "" : ":", scenario.key.c_str(),
                 t.seconds(), status);
  };

  // The claim loop, shared by every worker slot and by both queue kinds:
  // claim one cell at a time until the queue is drained (the socket
  // queue answers with the daemon's SHUTDOWN) or a cell failed.
  const auto drain = [&](int worker) {
    while (!failed.load()) {
      const std::optional<CellQueue::Claim> c = queue.claim(worker);
      if (!c) break;
      if (c->grid < 0 || c->grid >= static_cast<int>(gs.size()) ||
          c->index < 0 ||
          c->index >= static_cast<int>(
              gs[static_cast<std::size_t>(c->grid)].grid->scenarios.size())) {
        failed.store(true);
        const std::string what = "claim (" + std::to_string(c->grid) + ", " +
                                 std::to_string(c->index) +
                                 ") is out of range for this worker's grids";
        {
          std::lock_guard<std::mutex> lock(err_mu);
          errors.push_back(what);
        }
        queue.fail(*c, what);
        break;
      }
      run_one(*c, worker);
    }
  };
  if (parallel <= 1) {
    drain(0);
  } else {
    // Scenario bodies run on pool workers, so nested GEMM parallel_for
    // calls execute inline — the sweep never runs more than `parallel`
    // threads of compute at once. parallel_for dispatches one worker slot
    // per thread and each slot claims cells one at a time: its own chunk
    // heuristic would batch several cells per claim, and cells are far
    // too coarse and heterogeneous for that — a cheap eval cell must not
    // wait behind a slow retraining cell in the same chunk.
    compute::ThreadPool pool(parallel);
    pool.parallel_for(0, parallel, 1, [&](int wb, int we) {
      for (int w = wb; w < we; ++w) {
        if (obs::trace_enabled()) {
          obs::set_trace_thread_name("worker " + std::to_string(w));
        }
        drain(w);
      }
    });
  }
  if (!errors.empty()) {
    std::string what =
        "sweep failed (" + std::to_string(errors.size()) + " scenario(s))";
    for (const std::string& e : errors) {
      what += "\n  ";
      what += e;
    }
    throw std::runtime_error(what);
  }
  const double total_seconds = timer.seconds();

  // Buffered logs, grid-major in scenario order: deterministic under any
  // worker count (replayed cells print the log recorded when they were
  // first computed).
  std::vector<ResultTable> tables;
  tables.reserve(gs.size());
  for (GridState& st : gs) {
    st.table.total_seconds_ = total_seconds;
    for (std::size_t i = 0; i < st.table.size(); ++i) {
      if (st.table.is_filled(i) && !st.table.rows()[i].log.empty()) {
        std::fputs(st.table.rows()[i].log.c_str(), stdout);
      }
    }
    tables.push_back(std::move(st.table));
  }
  return tables;
}

}  // namespace falvolt::core
