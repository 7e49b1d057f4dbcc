// SweepRunner x LocalDirStore integration: resume/warm-run semantics,
// deterministic sharding, fingerprint invalidation, the one cell lookup
// (lookup_cell) and its at-least-once re-check, the codec the records
// travel through, and baseline records. Uses workload-free scenario
// functions so the store machinery is exercised without training
// anything, except where a damaged baseline record must be retrained.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>

#include "core/sweep.h"
#include "obs/metrics.h"
#include "store/compact.h"
#include "store/manifest.h"
#include "store/result_store.h"

namespace fs = std::filesystem;

namespace falvolt::core {
namespace {

// Strip the volatile single-line "run" object: everything else in the
// sweep JSON is deterministic for a fixed set of computed cell values.
std::string without_run_line(const std::string& json) {
  std::istringstream in(json);
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("\"run\": {") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

class SweepStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "falvolt_sweep_store_test";
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::vector<Scenario> grid(int n = 6) {
    std::vector<Scenario> scenarios;
    for (int i = 0; i < n; ++i) {
      Scenario s;
      s.key = "cell=" + std::to_string(i);
      s.fault_count = i;
      s.fault_seed = 100 + static_cast<std::uint64_t>(i);
      scenarios.push_back(s);
    }
    return scenarios;
  }

  static SweepStoreOptions store_opts(const std::string& dir,
                                      int shard_index = 0,
                                      int shard_count = 1) {
    SweepStoreOptions st;
    st.dir = dir;
    st.bench = "grid_test";
    st.config = {{"epochs", "4"}};
    st.shard_index = shard_index;
    st.shard_count = shard_count;
    return st;
  }

  // Deterministic cell computation whose invocations we can count.
  ScenarioFn counting_fn(std::atomic<int>& computed) {
    return [&computed](const Scenario& s, const SweepContext&) {
      ++computed;
      ScenarioResult out;
      out.metrics = {
          {"value", 10.0 * static_cast<double>(s.fault_count)}};
      out.csv_rows = {{s.key, "row"}};
      out.log = "log " + s.key + "\n";
      return out;
    };
  }

  // One grid through a fresh workload-free runner: the table it returns.
  static ResultTable sweep(const SweepStoreOptions& st,
                           const std::vector<Scenario>& scenarios,
                           ScenarioFn fn) {
    SweepRunner r{WorkloadOptions{}};
    r.set_prepare_baselines(false);
    r.add_grid({st, scenarios, std::move(fn)});
    return std::move(r.run().front());
  }

  static std::string fingerprint(const SweepStoreOptions& st,
                                 const Scenario& s) {
    return fingerprint_cell(st, WorkloadOptions{}, s);
  }

  std::string dir_;
};

TEST_F(SweepStoreTest, WarmRerunComputesNothingAndIsByteIdentical) {
  const std::vector<Scenario> scenarios = grid();
  std::atomic<int> computed{0};

  const ResultTable t_cold =
      sweep(store_opts(dir_), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6);
  EXPECT_TRUE(t_cold.complete());
  EXPECT_EQ(t_cold.computed_cells(), 6u);
  EXPECT_EQ(t_cold.cached_cells(), 0u);

  const ResultTable t_warm =
      sweep(store_opts(dir_), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6) << "warm run must not recompute";
  EXPECT_TRUE(t_warm.complete());
  EXPECT_EQ(t_warm.computed_cells(), 0u);
  EXPECT_EQ(t_warm.cached_cells(), 6u);

  EXPECT_EQ(t_cold.to_csv(), t_warm.to_csv());
  EXPECT_EQ(without_run_line(t_cold.to_json("grid_test")),
            without_run_line(t_warm.to_json("grid_test")));
  // Replayed cells reproduce the original compute seconds exactly.
  for (std::size_t i = 0; i < t_cold.size(); ++i) {
    EXPECT_EQ(t_cold.at(i).seconds, t_warm.at(i).seconds);
    EXPECT_EQ(t_cold.at(i).log, t_warm.at(i).log);
    EXPECT_EQ(t_cold.at(i).csv_rows, t_warm.at(i).csv_rows);
  }
}

TEST_F(SweepStoreTest, ResumeFalseRecomputesEverything) {
  const std::vector<Scenario> scenarios = grid();
  std::atomic<int> computed{0};
  sweep(store_opts(dir_), scenarios, counting_fn(computed));
  SweepStoreOptions st = store_opts(dir_);
  st.resume = false;
  const ResultTable t = sweep(st, scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 12);
  EXPECT_EQ(t.computed_cells(), 6u);
}

TEST_F(SweepStoreTest, ShardsPartitionDeterministicallyAndMergeExactly) {
  const std::vector<Scenario> scenarios = grid();
  std::atomic<int> computed{0};

  // The unsharded reference table.
  const ResultTable t_full =
      sweep(store_opts(dir_ + "_u"), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6);

  // Two shards, separate stores (separate machines).
  const ResultTable t0 =
      sweep(store_opts(dir_ + "_a", 0, 2), scenarios, counting_fn(computed));
  const ResultTable t1 =
      sweep(store_opts(dir_ + "_b", 1, 2), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6 + 6);  // each shard computed half
  EXPECT_FALSE(t0.complete());
  EXPECT_FALSE(t1.complete());
  EXPECT_EQ(t0.computed_cells(), 3u);  // indices 0, 2, 4
  EXPECT_EQ(t1.computed_cells(), 3u);  // indices 1, 3, 5
  EXPECT_EQ(t0.absent_cells(), 3u);
  EXPECT_TRUE(t0.is_filled(0));
  EXPECT_FALSE(t0.is_filled(1));

  // Union the shard stores and rebuild the grid from the manifest —
  // exactly what the sweep_merge tool does.
  store::LocalDirStore merged(dir_ + "_m");
  const store::LocalDirStore a(dir_ + "_a"), b(dir_ + "_b");
  store::merge_records(merged, a);
  store::merge_records(merged, b);
  const auto manifest =
      store::read_manifest(store::list_manifests(a, "grid_test").front());
  ASSERT_TRUE(manifest.has_value());
  ASSERT_EQ(manifest->entries.size(), scenarios.size());

  ResultTable rebuilt(manifest->entries.size());
  for (std::size_t i = 0; i < manifest->entries.size(); ++i) {
    const std::optional<std::string> payload =
        merged.get(manifest->entries[i].first);
    ASSERT_TRUE(payload.has_value()) << manifest->entries[i].second;
    ScenarioResult r;
    ASSERT_TRUE(decode_scenario_result(*payload, r));
    rebuilt.put_cached(i, std::move(r));
  }
  EXPECT_TRUE(rebuilt.complete());
  EXPECT_EQ(rebuilt.to_csv(), t_full.to_csv());

  for (const std::string suffix : {"_u", "_a", "_b", "_m"}) {
    fs::remove_all(dir_ + suffix);
  }
}

TEST_F(SweepStoreTest, ResumeComputesOnlyTheMissingCells) {
  const std::vector<Scenario> scenarios = grid();
  std::atomic<int> computed{0};
  // A "killed" sweep: only shard 0/2's cells made it into the store.
  sweep(store_opts(dir_, 0, 2), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 3);
  // The rerun resumes: replays the 3 cached cells, computes the rest.
  const ResultTable t =
      sweep(store_opts(dir_), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6);
  EXPECT_TRUE(t.complete());
  EXPECT_EQ(t.cached_cells(), 3u);
  EXPECT_EQ(t.computed_cells(), 3u);
}

TEST_F(SweepStoreTest, ForeignShardCachedCellsAreReplayed) {
  const std::vector<Scenario> scenarios = grid();
  std::atomic<int> computed{0};
  // Shard 1's cells land in the SHARED store first...
  sweep(store_opts(dir_, 1, 2), scenarios, counting_fn(computed));
  // ...so shard 0 pointed at the same store replays them for free and
  // its table is already complete.
  const ResultTable t =
      sweep(store_opts(dir_, 0, 2), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6);
  EXPECT_TRUE(t.complete());
  EXPECT_EQ(t.cached_cells(), 3u);
}

TEST_F(SweepStoreTest, FingerprintInvalidationOnConfigAndRetrainChange) {
  std::vector<Scenario> scenarios = grid();
  std::atomic<int> computed{0};
  sweep(store_opts(dir_), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6);

  // Result-affecting bench config changed (e.g. --epochs 4 -> 8): every
  // cell re-addresses, nothing stale hits.
  SweepStoreOptions st = store_opts(dir_);
  st.config = {{"epochs", "8"}};
  sweep(st, scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 12);

  // Per-scenario retrain config changed: only via the fingerprint.
  const SweepStoreOptions probe = store_opts(dir_);
  Scenario s = scenarios[0];
  const std::string base = fingerprint(probe, s);
  s.epochs = 9;
  EXPECT_NE(fingerprint(probe, s), base);
  s = scenarios[0];
  s.retrain = true;
  EXPECT_NE(fingerprint(probe, s), base);
  s = scenarios[0];
  s.vth = 0.55;
  EXPECT_NE(fingerprint(probe, s), base);
  EXPECT_EQ(fingerprint(probe, scenarios[0]), base);

  // Workload seed is part of the address too (it retrains the baseline).
  WorkloadOptions other_seed;
  other_seed.seed = 8;
  EXPECT_NE(fingerprint_cell(probe, other_seed, scenarios[0]), base);
}

TEST_F(SweepStoreTest, CorruptRecordIsRecomputedNotTrusted) {
  const std::vector<Scenario> scenarios = grid();
  std::atomic<int> computed{0};
  sweep(store_opts(dir_), scenarios, counting_fn(computed));

  // Truncate one record in place (mid-download crash, disk rot...).
  const store::LocalDirStore rs(dir_);
  const std::string fp = fingerprint(store_opts(dir_), scenarios[2]);
  ASSERT_TRUE(rs.contains(fp));
  fs::resize_file(rs.object_path(fp), 20);

  const ResultTable t =
      sweep(store_opts(dir_), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 7);  // exactly the damaged cell
  EXPECT_TRUE(t.complete());
  EXPECT_EQ(t.cached_cells(), 5u);
  EXPECT_EQ(t.computed_cells(), 1u);
  EXPECT_TRUE(rs.get(fp).has_value()) << "record must be healed";
}

TEST_F(SweepStoreTest, CompactedStoreWarmRerunComputesNothing) {
  const std::vector<Scenario> scenarios = grid();
  std::atomic<int> computed{0};
  const ResultTable t_cold =
      sweep(store_opts(dir_), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6);

  // Pack every cell into a segment; no loose record remains.
  const store::LocalDirStore rs(dir_);
  const store::CompactStats stats = store::compact_store(rs);
  EXPECT_EQ(stats.packed, 6);
  EXPECT_TRUE(rs.fingerprints().empty());

  // The warm run is served entirely from the segment — zero cells
  // computed, tables byte-identical to the loose-store run.
  const ResultTable t_warm =
      sweep(store_opts(dir_), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6) << "compacted store must not recompute";
  EXPECT_TRUE(t_warm.complete());
  EXPECT_EQ(t_warm.computed_cells(), 0u);
  EXPECT_EQ(t_warm.cached_cells(), 6u);
  EXPECT_EQ(t_cold.to_csv(), t_warm.to_csv());
  EXPECT_EQ(without_run_line(t_cold.to_json("grid_test")),
            without_run_line(t_warm.to_json("grid_test")));
}

TEST_F(SweepStoreTest, SubstitutersServeCellsComputedElsewhere) {
  const std::vector<Scenario> scenarios = grid();
  std::atomic<int> computed{0};
  // Machine A computes the grid into its own store (then compacts, so
  // the substituter path is exercised through segments too).
  const std::string dir_a = dir_ + "_a";
  const ResultTable t_a =
      sweep(store_opts(dir_a), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6);
  store::compact_store(store::LocalDirStore(dir_a));

  // Machine B starts empty but substitutes from A: zero recompute, and
  // nothing is ever written into A.
  SweepStoreOptions st_b = store_opts(dir_);
  st_b.substituters = {dir_a};
  const ResultTable t_b = sweep(st_b, scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6) << "every cell substituted";
  EXPECT_TRUE(t_b.complete());
  EXPECT_EQ(t_b.computed_cells(), 0u);
  EXPECT_EQ(t_b.cached_cells(), 6u);
  EXPECT_EQ(t_a.to_csv(), t_b.to_csv());
  EXPECT_TRUE(store::LocalDirStore(dir_a, /*create=*/false)
                  .fingerprints()
                  .empty())
      << "substituter stays read-only (records live in its segment)";

  // A typo'd substituter fails loudly instead of missing everything.
  SweepStoreOptions st_typo = store_opts(dir_ + "_fresh");
  st_typo.substituters = {dir_ + "_nope"};
  EXPECT_THROW(sweep(st_typo, scenarios, counting_fn(computed)),
               std::invalid_argument);
  fs::remove_all(dir_a);
  fs::remove_all(dir_ + "_fresh");
}

// ------------------------------------------------------------ lookup_cell

TEST_F(SweepStoreTest, LookupCellHitsOnlyIntactRecordsOfTheExpectedKey) {
  store::LocalDirStore rs(dir_);
  ScenarioResult r;
  r.scenario.key = "cell=1";
  r.metrics = {{"value", 10.0}};
  r.log = "log cell=1\n";
  const std::string bytes = encode_scenario_result(r);
  const std::string fp(64, 'a');
  const std::string truncated_fp(64, 'b');
  rs.put(fp, bytes);
  rs.put(truncated_fp, bytes.substr(0, bytes.size() - 1));

  // Hit: the decoded record, every field intact.
  const std::optional<ScenarioResult> hit = lookup_cell(rs, fp, "cell=1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->scenario.key, "cell=1");
  EXPECT_EQ(hit->metrics, r.metrics);
  EXPECT_EQ(hit->log, r.log);

  // Miss: nothing stored under the fingerprint.
  EXPECT_FALSE(lookup_cell(rs, std::string(64, 'c'), "cell=1").has_value());
  // A record whose decoded key is not the expected key (a fingerprint
  // collision) is a miss, never a wrong replay.
  EXPECT_FALSE(lookup_cell(rs, fp, "cell=2").has_value());
  // A frame-valid record whose payload the codec rejects is a miss.
  ASSERT_TRUE(rs.get(truncated_fp).has_value());
  EXPECT_FALSE(lookup_cell(rs, truncated_fp, "cell=1").has_value());
}

// An in-process at-least-once queue: hands out grid 0's cells in index
// order and delivers cell `dup` a second time right after the first,
// like a daemon re-queueing the cell of a worker killed after publishing.
class DuplicatingQueue final : public CellQueue {
 public:
  DuplicatingQueue(int cells, int dup) {
    for (int i = 0; i < cells; ++i) {
      claims_.push_back(Claim{0, i, 1.0});
      if (i == dup) claims_.push_back(Claim{0, i, 1.0});
    }
  }

  std::optional<Claim> claim(int /*worker*/) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (next_ >= claims_.size()) return std::nullopt;
    return claims_[next_++];
  }
  void complete(const Claim& claim, bool cached, double) override {
    std::lock_guard<std::mutex> lock(mu_);
    completed_.emplace_back(claim.index, cached);
  }
  void fail(const Claim&, const std::string&) override { ++failed_; }
  bool at_least_once() const override { return true; }

  std::vector<std::pair<int, bool>> completed() const { return completed_; }
  int failed() const { return failed_; }

 private:
  std::mutex mu_;
  std::vector<Claim> claims_;
  std::size_t next_ = 0;
  std::vector<std::pair<int, bool>> completed_;
  std::atomic<int> failed_{0};
};

TEST_F(SweepStoreTest, DuplicateDeliveryReplaysThePublishedRecord) {
  const std::vector<Scenario> scenarios = grid();
  std::atomic<int> computed{0};
  // Single-delivery reference through the built-in queue.
  const ResultTable reference =
      sweep(store_opts(dir_ + "_ref"), scenarios, counting_fn(computed));
  ASSERT_EQ(computed.load(), 6);

  obs::Counter& rechecked = obs::counter("sweep.cells.recheck_cached");
  const std::uint64_t rechecked_before = rechecked.value();
  DuplicatingQueue queue(static_cast<int>(scenarios.size()), /*dup=*/2);
  WorkloadOptions serial;
  serial.sweep_parallel = 1;  // the duplicate arrives after the publish
  SweepRunner runner(serial);
  runner.set_prepare_baselines(false);
  runner.set_cell_queue(&queue);
  runner.add_grid({store_opts(dir_), scenarios, counting_fn(computed)});
  const ResultTable table = std::move(runner.run().front());

  EXPECT_EQ(computed.load(), 12) << "the duplicated cell must run once";
  EXPECT_EQ(rechecked.value() - rechecked_before, 1u);
  EXPECT_EQ(queue.failed(), 0);
  const std::vector<std::pair<int, bool>> done = queue.completed();
  ASSERT_EQ(done.size(), 7u);
  EXPECT_EQ(done[2], std::make_pair(2, false));
  EXPECT_EQ(done[3], std::make_pair(2, true)) << "re-check hit is cached";
  EXPECT_TRUE(table.complete());
  EXPECT_EQ(table.to_csv(), reference.to_csv());
  fs::remove_all(dir_ + "_ref");
}

// Baseline records through the runner. `--resume false` recomputes the
// cells, so every run prepares the MNIST baseline from its store chain.
class SweepBaselineTest : public SweepStoreTest {
 protected:
  static WorkloadOptions fast() {
    WorkloadOptions opts;
    opts.fast = true;
    return opts;
  }

  // Baselines trained by one recomputing run of two MNIST cells.
  static std::uint64_t trained_by_run(SweepStoreOptions st) {
    obs::Counter& trained = obs::counter("sweep.baseline.trained");
    const std::uint64_t before = trained.value();
    st.resume = false;
    SweepRunner r{fast()};
    r.add_grid({st, grid(2), [](const Scenario&, const SweepContext&) {
                  return ScenarioResult{};
                }});
    r.run();
    return trained.value() - before;
  }

  // The stored record of the MNIST baseline under `root`.
  static std::string record_path(const std::string& root) {
    return store::LocalDirStore(root).object_path(
        baseline_fingerprint(DatasetKind::kMnist, fast()));
  }
};

TEST_F(SweepBaselineTest, StoredBaselineIsRestoredRetrainedAndSubstituted) {
  // A store holding a baseline record (an untrained network's: restoring
  // it costs no training) serves it to every run.
  Workload untrained = build_workload(DatasetKind::kMnist, fast());
  store::LocalDirStore(dir_).put(
      baseline_fingerprint(DatasetKind::kMnist, fast()),
      encode_baseline(untrained.net));
  EXPECT_EQ(trained_by_run(store_opts(dir_)), 0u);

  // One flipped payload byte in a copy: that run retrains and
  // republishes, and the next one restores again.
  const std::string flipped = dir_ + "_flipped";
  fs::remove_all(flipped);
  fs::copy(dir_, flipped, fs::copy_options::recursive);
  {
    std::fstream rec(record_path(flipped),
                     std::ios::binary | std::ios::in | std::ios::out);
    rec.seekg(-1, std::ios::end);
    const char last = static_cast<char>(rec.get());
    rec.seekp(-1, std::ios::end);
    rec.put(static_cast<char>(last ^ 0x40));
  }
  EXPECT_EQ(trained_by_run(store_opts(flipped)), 1u);
  EXPECT_EQ(trained_by_run(store_opts(flipped)), 0u);
  // The republished record is a garbage-collection root.
  const std::vector<store::Manifest> roots =
      store::LocalDirStore(flipped).manifests(kBaselinesManifest);
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].entries.front().first,
            baseline_fingerprint(DatasetKind::kMnist, fast()));

  // A fresh store substituting from the intact one trains nothing.
  SweepStoreOptions sub = store_opts(dir_ + "_sub");
  sub.substituters = {dir_};
  EXPECT_EQ(trained_by_run(sub), 0u);
  EXPECT_FALSE(fs::exists(record_path(dir_ + "_sub")));
  fs::remove_all(flipped);
  fs::remove_all(dir_ + "_sub");
}

TEST(SweepStoreCodec, RoundTripsEveryField) {
  ScenarioResult r;
  r.scenario.key = "MNIST/rate=30/vth=0.45";
  r.scenario.tag = "FalVolt";
  r.scenario.dataset = DatasetKind::kDvsGesture;
  r.scenario.vth = 0.45;
  r.scenario.fault_rate = 0.30;
  r.scenario.fault_count = 8;
  r.scenario.bit = 15;
  r.scenario.stuck = fx::StuckType::kStuckAt0;
  r.scenario.array_size = 64;
  r.scenario.repeat = 3;
  r.scenario.fault_seed = 0xdeadbeefcafeULL;
  r.scenario.retrain = true;
  r.scenario.epochs = 8;
  r.fingerprint = std::string(64, 'a');
  r.metrics = {{"accuracy", 97.25}, {"vth:conv1", 0.5}};
  r.csv_rows = {{"a", "b,c", "d\"e"}, {}};
  r.log = "line1\nline2\n";
  r.seconds = 12.5;
  r.provenance.host = "fleet-node-07";
  r.provenance.version = "0.4.0";
  r.provenance.unix_time = 1753660800;
  r.provenance.store_epoch = 1;

  ScenarioResult back;
  ASSERT_TRUE(decode_scenario_result(encode_scenario_result(r), back));
  EXPECT_EQ(back.scenario.key, r.scenario.key);
  EXPECT_EQ(back.scenario.tag, r.scenario.tag);
  EXPECT_EQ(back.scenario.dataset, r.scenario.dataset);
  EXPECT_EQ(back.scenario.vth, r.scenario.vth);
  EXPECT_EQ(back.scenario.fault_rate, r.scenario.fault_rate);
  EXPECT_EQ(back.scenario.fault_count, r.scenario.fault_count);
  EXPECT_EQ(back.scenario.bit, r.scenario.bit);
  EXPECT_EQ(back.scenario.stuck, r.scenario.stuck);
  EXPECT_EQ(back.scenario.array_size, r.scenario.array_size);
  EXPECT_EQ(back.scenario.repeat, r.scenario.repeat);
  EXPECT_EQ(back.scenario.fault_seed, r.scenario.fault_seed);
  EXPECT_EQ(back.scenario.retrain, r.scenario.retrain);
  EXPECT_EQ(back.scenario.epochs, r.scenario.epochs);
  EXPECT_EQ(back.fingerprint, r.fingerprint);
  EXPECT_EQ(back.metrics, r.metrics);
  EXPECT_EQ(back.csv_rows, r.csv_rows);
  EXPECT_EQ(back.log, r.log);
  EXPECT_EQ(back.seconds, r.seconds);
  EXPECT_EQ(back.provenance.host, r.provenance.host);
  EXPECT_EQ(back.provenance.version, r.provenance.version);
  EXPECT_EQ(back.provenance.unix_time, r.provenance.unix_time);
  EXPECT_EQ(back.provenance.store_epoch, r.provenance.store_epoch);
}

TEST(SweepStoreCodec, RejectsDamageInsteadOfThrowing) {
  ScenarioResult r;
  r.scenario.key = "k";
  r.metrics = {{"m", 1.0}};
  const std::string bytes = encode_scenario_result(r);
  ScenarioResult out;
  EXPECT_FALSE(decode_scenario_result("", out));
  EXPECT_FALSE(decode_scenario_result("garbage", out));
  for (const std::size_t keep : {bytes.size() - 1, bytes.size() / 2,
                                 std::size_t{5}}) {
    EXPECT_FALSE(decode_scenario_result(bytes.substr(0, keep), out))
        << "kept " << keep;
  }
  EXPECT_FALSE(decode_scenario_result(bytes + "x", out));  // trailing
  // Foreign codec version.
  std::string wrong_version = bytes;
  wrong_version[0] = static_cast<char>(99);
  EXPECT_FALSE(decode_scenario_result(wrong_version, out));
}

TEST(SweepShard, ParseShardSpec) {
  EXPECT_EQ(parse_shard_spec(""), (std::pair<int, int>{0, 1}));
  EXPECT_EQ(parse_shard_spec("0/1"), (std::pair<int, int>{0, 1}));
  EXPECT_EQ(parse_shard_spec("2/4"), (std::pair<int, int>{2, 4}));
  EXPECT_THROW(parse_shard_spec("2"), std::invalid_argument);
  EXPECT_THROW(parse_shard_spec("4/4"), std::invalid_argument);
  EXPECT_THROW(parse_shard_spec("-1/4"), std::invalid_argument);
  EXPECT_THROW(parse_shard_spec("0/0"), std::invalid_argument);
  EXPECT_THROW(parse_shard_spec("a/b"), std::invalid_argument);
  EXPECT_THROW(parse_shard_spec("1/2x"), std::invalid_argument);
}

}  // namespace
}  // namespace falvolt::core
