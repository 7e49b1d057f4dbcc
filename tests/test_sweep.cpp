#include "core/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>
#include <thread>

#include "common/timer.h"
#include "core/falvolt.h"
#include "core/mitigation.h"
#include "data/dataset.h"
#include "fault/fault_generator.h"
#include "store/manifest.h"
#include "store/result_store.h"
#include "tensor/tensor_ops.h"

namespace falvolt::core {
namespace {

TEST(Sweep, ResultTableAggregatesInScenarioOrder) {
  ResultTable table(3);
  for (const std::size_t i : {2u, 0u, 1u}) {  // out-of-order puts
    ScenarioResult r;
    r.scenario.key = std::string("k") + std::to_string(i);
    r.metrics = {{"accuracy", 10.0 * static_cast<double>(i)}};
    if (i == 2) r.metrics.emplace_back("extra", 1.0);  // heterogeneous
    table.put(i, std::move(r));
  }
  EXPECT_EQ(table.at(0).scenario.key, "k0");
  EXPECT_EQ(table.at(2).scenario.key, "k2");
  ASSERT_NE(table.find("k1"), nullptr);
  EXPECT_EQ(table.find("k1")->metrics.front().second, 10.0);
  EXPECT_EQ(table.find("nope"), nullptr);
  // Columns are the union of metric names; missing metrics leave an
  // empty cell, so heterogeneous sweeps still emit rectangular CSV.
  EXPECT_EQ(table.to_csv(),
            "key,tag,dataset,accuracy,extra\n"
            "k0,,MNIST,0,\n"
            "k1,,MNIST,10,\n"
            "k2,,MNIST,20,1\n");
}

TEST(Sweep, ResultTableCsvEscapesKeysTagsAndMetricNames) {
  ResultTable table(1);
  ScenarioResult r;
  r.scenario.key = "MNIST/odd,key";
  r.scenario.tag = "say \"hi\"";
  r.metrics = {{"acc,uracy", 1.5}};
  table.put(0, std::move(r));
  EXPECT_EQ(table.to_csv(),
            "key,tag,dataset,\"acc,uracy\"\n"
            "\"MNIST/odd,key\",\"say \"\"hi\"\"\",MNIST,1.5\n");
}

TEST(Sweep, ShardPartialTableSkipsAbsentRowsAndFailsLookups) {
  ResultTable table(3);
  ScenarioResult r;
  r.scenario.key = "k1";
  r.metrics = {{"v", 2.0}};
  table.put_cached(1, std::move(r));
  EXPECT_FALSE(table.complete());
  EXPECT_EQ(table.cached_cells(), 1u);
  EXPECT_EQ(table.absent_cells(), 2u);
  EXPECT_TRUE(table.is_cached(1));
  EXPECT_FALSE(table.is_filled(0));
  // Absent rows are invisible to CSV and key lookups.
  EXPECT_EQ(table.to_csv(), "key,tag,dataset,v\nk1,,MNIST,2\n");
  EXPECT_EQ(table.find(""), nullptr);
  EXPECT_THROW(table.get("k0"), std::out_of_range);
}

// One grid through a fresh runner: the table it returns.
ResultTable sweep(const WorkloadOptions& opts,
                  const std::vector<Scenario>& scenarios, ScenarioFn fn,
                  const SweepStoreOptions& store = {},
                  bool prepare_baselines = true) {
  SweepRunner runner(opts);
  runner.set_prepare_baselines(prepare_baselines);
  runner.add_grid({store, scenarios, std::move(fn)});
  return std::move(runner.run().front());
}

TEST(Sweep, DuplicateScenarioKeyThrows) {
  std::vector<Scenario> scenarios(2);
  scenarios[0].key = scenarios[1].key = "dup";
  EXPECT_THROW(sweep(WorkloadOptions{}, scenarios,
                     [](const Scenario&, const SweepContext&) {
                       return ScenarioResult{};
                     },
                     {}, /*prepare_baselines=*/false),
               std::invalid_argument);
}

TEST(Sweep, ScenarioFailureFailsTheSweepAndStopsClaiming) {
  WorkloadOptions opts;
  opts.sweep_parallel = 2;
  std::vector<Scenario> scenarios(8);
  for (int i = 0; i < 8; ++i) {
    scenarios[i].key = std::string("s") + std::to_string(i);
  }
  // s0 fails instantly; every other scenario sleeps long enough that a
  // worker cannot claim a second one before the failure is visible —
  // so at most s0 and the one already-claimed sibling ever start.
  std::atomic<int> started{0};
  try {
    sweep(opts, scenarios,
          [&](const Scenario& s, const SweepContext&) {
            ++started;
            if (s.key == "s0") throw std::runtime_error("boom");
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
            return ScenarioResult{};
          },
          {}, /*prepare_baselines=*/false);
    FAIL() << "expected the sweep to fail";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("s0"), std::string::npos);
  }
  // Fail-fast: the grid was not drained. The bound leaves slack for the
  // failing thread being descheduled between starting and throwing —
  // exceeding it would need a >400 ms stall while the sibling worker
  // chews through 200 ms scenarios.
  EXPECT_LE(started.load(), 4);
}

// Scenarios genuinely overlap at sweep-parallel >= 4: blocking (not
// CPU-bound) scenarios demonstrate the runner's concurrency even on a
// 1-core CI box — compute-bound grids additionally scale with physical
// cores. Asserted via an observed-concurrency high-water mark rather
// than a wall-clock ratio, which can flake on loaded CI runners (the
// timings are still printed for the bench log).
TEST(Sweep, ParallelSweepOverlapsScenarios) {
  std::atomic<int> in_flight{0};
  std::atomic<int> high_water{0};
  const auto sleeper = [&](const Scenario&, const SweepContext&) {
    const int now = in_flight.fetch_add(1) + 1;
    int seen = high_water.load();
    while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    in_flight.fetch_sub(1);
    return ScenarioResult{};
  };
  std::vector<Scenario> scenarios(8);
  for (int i = 0; i < 8; ++i) {
    scenarios[i].key = std::string("s") + std::to_string(i);
  }

  WorkloadOptions serial;
  serial.sweep_parallel = 1;
  common::Timer t1;
  sweep(serial, scenarios, sleeper, {}, /*prepare_baselines=*/false);
  const double serial_s = t1.seconds();
  EXPECT_EQ(high_water.load(), 1);  // serial sweeps never overlap

  high_water.store(0);
  WorkloadOptions par;
  par.sweep_parallel = 4;
  common::Timer t4;
  sweep(par, scenarios, sleeper, {}, /*prepare_baselines=*/false);
  const double parallel_s = t4.seconds();

  std::printf("[sweep] 8-scenario grid: serial %.2f s, sweep-parallel=4 "
              "%.2f s (%.1fx, peak concurrency %d)\n",
              serial_s, parallel_s, serial_s / parallel_s,
              high_water.load());
  EXPECT_GE(serial_s, 0.8 - 0.05);   // 8 x 100ms back to back
  EXPECT_GE(high_water.load(), 3);   // >= 3 of 4 workers overlapped
}

// The end-to-end determinism regression the sweep subsystem promises:
// identical result tables at every --sweep-parallel, and identical to a
// hand-rolled serial loop over the same scenario computation (the shape
// of the pre-migration benches).
//
// The suite trains one MNIST baseline, into a store that every sweep
// below reads as a substituter behind its own fresh store.
class SweepWorkloadTest : public ::testing::Test {
 protected:
  static WorkloadOptions options() {
    WorkloadOptions opts;
    opts.fast = true;
    return opts;
  }
  static std::string root() {
    return ::testing::TempDir() + "falvolt_sweep_workload";
  }
  static std::string baseline_store() { return root() + "/baseline"; }
  static void SetUpTestSuite() {
    std::filesystem::remove_all(root());
    const Workload wl = prepare_workload(
        DatasetKind::kMnist, options(),
        store::open_store(baseline_store()).get());
    EXPECT_TRUE(wl.trained);
    EXPECT_GT(wl.baseline_accuracy, 50.0);  // trained well above chance
  }
  static void TearDownTestSuite() { std::filesystem::remove_all(root()); }

  // A fresh store named `name` with the suite's baseline behind it.
  static SweepStoreOptions fresh_store(const std::string& name) {
    SweepStoreOptions st;
    st.dir = root() + "/" + name;
    std::filesystem::remove_all(st.dir);
    st.bench = name;
    st.substituters = {baseline_store()};
    return st;
  }
};

std::vector<Scenario> small_grid() {
  std::vector<Scenario> scenarios;
  for (const int count : {0, 4, 8}) {
    for (int rep = 0; rep < 2; ++rep) {
      Scenario s;
      s.key = std::string("MNIST/faulty=") + std::to_string(count) +
              "/rep=" + std::to_string(rep);
      s.dataset = DatasetKind::kMnist;
      s.fault_count = count;
      s.repeat = rep;
      s.fault_seed = 2000 + static_cast<std::uint64_t>(31 * count + rep);
      scenarios.push_back(s);
    }
  }
  return scenarios;
}

// Shared scenario computation: unmitigated accuracy on a 16x16 array.
double eval_scenario(const Scenario& s, snn::Network net,
                     const data::Dataset& eval_set) {
  systolic::ArrayConfig array;
  array.rows = array.cols = 16;
  common::Rng rng(s.fault_seed);
  const fault::FaultMap map = fault::random_fault_map(
      array.rows, array.cols, s.fault_count,
      fault::worst_case_spec(array.format.total_bits()), rng);
  return evaluate_with_faults(
      net, eval_set, array, map,
      systolic::SystolicGemmEngine::FaultHandling::kCorrupt);
}

data::Dataset eval_subset(const Workload& wl, int n) {
  const data::Dataset& test = wl.data.test;
  data::Dataset out("subset", test.num_classes(), test.time_steps(),
                    test.channels(), test.height(), test.width());
  for (int i = 0; i < n && i < test.size(); ++i) out.add(test[i]);
  return out;
}

TEST_F(SweepWorkloadTest, TablesAreByteIdenticalAcrossParallelism) {
  const std::vector<Scenario> scenarios = small_grid();

  std::vector<std::string> csvs;
  std::vector<ResultTable> tables;
  for (const int parallel : {1, 2, 8}) {
    WorkloadOptions opts = options();
    opts.sweep_parallel = parallel;
    ResultTable table = sweep(
        opts, scenarios,
        [](const Scenario& s, const SweepContext& ctx) {
          ScenarioResult out;
          out.metrics = {
              {"accuracy",
               eval_scenario(s, ctx.clone_network(s.dataset),
                             eval_subset(ctx.workload(s.dataset), 16))}};
          return out;
        },
        fresh_store("eval_parallel" + std::to_string(parallel)));
    EXPECT_EQ(table.sweep_parallel(), std::min<int>(parallel, 6));
    csvs.push_back(table.to_csv());
    tables.push_back(std::move(table));
  }
  EXPECT_EQ(csvs[0], csvs[1]);
  EXPECT_EQ(csvs[0], csvs[2]);

  // ... and identical to the pre-migration shape: a plain serial loop
  // over the same scenario computation.
  WorkloadOptions opts = options();
  Workload wl = prepare_workload(DatasetKind::kMnist, opts,
                                 store::open_store(baseline_store()).get());
  const std::vector<tensor::Tensor> snapshot = wl.net.snapshot_params();
  const data::Dataset eval_set = eval_subset(wl, 16);
  std::size_t idx = 0;
  for (const Scenario& s : scenarios) {
    snn::Network net = build_network(DatasetKind::kMnist, wl.data.train,
                                     opts.seed);
    net.restore_params(snapshot);
    const double serial_acc = eval_scenario(s, std::move(net), eval_set);
    EXPECT_DOUBLE_EQ(serial_acc,
                     tables[0].at(idx++).metrics.front().second)
        << s.key;
  }
}

// Same guarantee for the riskier retraining path (fig2/6/7 and the
// ablations run snn::Trainer concurrently on clones): concurrent
// retraining must reproduce the serial run bit for bit.
TEST_F(SweepWorkloadTest, RetrainScenariosAreByteIdenticalAcrossParallelism) {
  std::vector<Scenario> scenarios;
  for (const double vth : {0.5, 1.0}) {
    Scenario s;
    s.key = std::string("MNIST/vth=") + std::to_string(vth);
    s.dataset = DatasetKind::kMnist;
    s.vth = vth;
    s.fault_rate = 0.30;
    s.fault_seed = 4030;
    s.retrain = true;
    s.epochs = 1;
    scenarios.push_back(s);
  }

  std::vector<std::string> csvs;
  for (const int parallel : {1, 2}) {
    WorkloadOptions opts = options();
    opts.sweep_parallel = parallel;
    ResultTable table = sweep(
        opts, scenarios,
        [](const Scenario& s, const SweepContext& ctx) {
          const Workload& wl = ctx.workload(s.dataset);
          snn::Network net = ctx.clone_network(s.dataset);
          common::Rng rng(s.fault_seed);
          systolic::ArrayConfig array;
          array.rows = array.cols = 16;
          const fault::FaultMap map = fault::fault_map_at_rate(
              array.rows, array.cols, s.fault_rate,
              fault::worst_case_spec(array.format.total_bits()), rng);
          MitigationConfig cfg;
          cfg.array = array;
          cfg.retrain_epochs = s.epochs;
          cfg.eval_each_epoch = false;
          const MitigationResult r = run_fixed_vth_retraining(
              net, map, wl.data.train, wl.data.test, cfg,
              static_cast<float>(s.vth));
          ScenarioResult out;
          out.metrics = {{"accuracy", r.final_accuracy},
                         {"pruned", r.pruned_accuracy}};
          return out;
        },
        fresh_store("retrain_parallel" + std::to_string(parallel)));
    csvs.push_back(table.to_csv());
  }
  EXPECT_EQ(csvs[0], csvs[1]);
}

// The store acceptance contract on a real (fig5b-shaped) eval grid:
// a sharded-and-merged run is byte-identical to one unsharded sweep,
// and a warm-store re-run computes zero scenarios while producing
// identical CSV (and JSON, modulo the volatile "run" line).
TEST_F(SweepWorkloadTest, StoreShardsMergeAndWarmRunsAreByteIdentical) {
  const std::vector<Scenario> scenarios = small_grid();
  const std::string store_root = ::testing::TempDir() + "falvolt_ev_store";
  std::filesystem::remove_all(store_root + "_u");
  std::filesystem::remove_all(store_root + "_a");
  std::filesystem::remove_all(store_root + "_b");
  std::filesystem::remove_all(store_root + "_m");

  std::atomic<int> computed{0};
  // Scenario function of the shape every eval bench uses; the eval
  // subset is derived lazily from the context so warm runs touch no
  // workload at all.
  const auto fn = [&](const Scenario& s, const SweepContext& ctx) {
    ++computed;
    ScenarioResult out;
    out.metrics = {
        {"accuracy",
         eval_scenario(s, ctx.clone_network(s.dataset),
                       eval_subset(ctx.workload(s.dataset), 16))}};
    return out;
  };
  const auto store_opts = [&](const std::string& dir, int index,
                              int count) {
    SweepStoreOptions st;
    st.dir = dir;
    st.bench = "fig5b_like";
    st.config = {{"eval-samples", "16"}};
    st.substituters = {baseline_store()};
    st.shard_index = index;
    st.shard_count = count;
    return st;
  };
  const auto run_with = [&](const std::string& dir, int index, int count) {
    WorkloadOptions opts = options();
    opts.sweep_parallel = 2;
    return sweep(opts, scenarios, fn, store_opts(dir, index, count));
  };

  const ResultTable full = run_with(store_root + "_u", 0, 1);
  const int cold_computed = computed.load();
  EXPECT_EQ(cold_computed, static_cast<int>(scenarios.size()));

  // Warm re-run: zero scenarios computed, identical CSV and JSON.
  const ResultTable warm = run_with(store_root + "_u", 0, 1);
  EXPECT_EQ(computed.load(), cold_computed);
  EXPECT_EQ(warm.computed_cells(), 0u);
  EXPECT_EQ(warm.to_csv(), full.to_csv());
  const auto strip_run = [](const std::string& json) {
    std::string out;
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("\"run\": {") == std::string::npos) out += line + "\n";
    }
    return out;
  };
  EXPECT_EQ(strip_run(warm.to_json("fig5b_like")),
            strip_run(full.to_json("fig5b_like")));

  // Two shards into separate stores, then a sweep_merge-style union.
  const ResultTable t0 = run_with(store_root + "_a", 0, 2);
  const ResultTable t1 = run_with(store_root + "_b", 1, 2);
  EXPECT_EQ(t0.computed_cells() + t1.computed_cells(), scenarios.size());
  EXPECT_FALSE(t0.complete());

  store::LocalDirStore merged(store_root + "_m");
  store::merge_records(merged, store::LocalDirStore(store_root + "_a"));
  store::merge_records(merged, store::LocalDirStore(store_root + "_b"));
  const auto manifest = store::read_manifest(
      store::list_manifests(store::LocalDirStore(store_root + "_a"),
                            "fig5b_like")
          .front());
  ASSERT_TRUE(manifest.has_value());
  ResultTable rebuilt(manifest->entries.size());
  for (std::size_t i = 0; i < manifest->entries.size(); ++i) {
    const auto payload = merged.get(manifest->entries[i].first);
    ASSERT_TRUE(payload.has_value());
    ScenarioResult r;
    ASSERT_TRUE(decode_scenario_result(*payload, r));
    rebuilt.put_cached(i, std::move(r));
  }
  EXPECT_TRUE(rebuilt.complete());
  EXPECT_EQ(rebuilt.to_csv(), full.to_csv());

  for (const char* suffix : {"_u", "_a", "_b", "_m"}) {
    std::filesystem::remove_all(store_root + suffix);
  }
}

// Same contract for a retraining figure (the fig2 shape): concurrent
// retraining cells round-trip through the store bit for bit.
TEST_F(SweepWorkloadTest, RetrainGridShardsAndWarmRunsAreByteIdentical) {
  std::vector<Scenario> scenarios;
  for (const double vth : {0.5, 1.0}) {
    Scenario s;
    s.key = std::string("MNIST/vth=") + std::to_string(vth);
    s.dataset = DatasetKind::kMnist;
    s.vth = vth;
    s.fault_rate = 0.30;
    s.fault_seed = 4030;
    s.retrain = true;
    s.epochs = 1;
    scenarios.push_back(s);
  }
  const std::string store_root = ::testing::TempDir() + "falvolt_rt_store";
  std::filesystem::remove_all(store_root + "_u");
  std::filesystem::remove_all(store_root + "_a");
  std::filesystem::remove_all(store_root + "_b");

  std::atomic<int> computed{0};
  const auto fn = [&](const Scenario& s, const SweepContext& ctx) {
    ++computed;
    const Workload& wl = ctx.workload(s.dataset);
    snn::Network net = ctx.clone_network(s.dataset);
    common::Rng rng(s.fault_seed);
    systolic::ArrayConfig array;
    array.rows = array.cols = 16;
    const fault::FaultMap map = fault::fault_map_at_rate(
        array.rows, array.cols, s.fault_rate,
        fault::worst_case_spec(array.format.total_bits()), rng);
    MitigationConfig cfg;
    cfg.array = array;
    cfg.retrain_epochs = s.epochs;
    cfg.eval_each_epoch = false;
    const MitigationResult r = run_fixed_vth_retraining(
        net, map, wl.data.train, wl.data.test, cfg,
        static_cast<float>(s.vth));
    ScenarioResult out;
    out.metrics = {{"accuracy", r.final_accuracy},
                   {"pruned", r.pruned_accuracy}};
    return out;
  };
  const auto run_with = [&](const std::string& dir, int index, int count) {
    SweepStoreOptions st;
    st.dir = dir;
    st.bench = "fig2_like";
    st.substituters = {baseline_store()};
    st.shard_index = index;
    st.shard_count = count;
    return sweep(options(), scenarios, fn, st);
  };

  const ResultTable full = run_with(store_root + "_u", 0, 1);
  EXPECT_EQ(computed.load(), 2);

  // Warm: zero retraining runs, identical table.
  const ResultTable warm = run_with(store_root + "_u", 0, 1);
  EXPECT_EQ(computed.load(), 2);
  EXPECT_EQ(warm.computed_cells(), 0u);
  EXPECT_EQ(warm.to_csv(), full.to_csv());

  // Shard, merge into shard A's store, and replay the merged store.
  run_with(store_root + "_a", 0, 2);
  run_with(store_root + "_b", 1, 2);
  EXPECT_EQ(computed.load(), 4);
  {
    store::LocalDirStore merge_dst(store_root + "_a");
    store::merge_records(merge_dst, store::LocalDirStore(store_root + "_b"));
  }
  const ResultTable merged = run_with(store_root + "_a", 0, 1);
  EXPECT_EQ(computed.load(), 4) << "merged store must satisfy every cell";
  EXPECT_EQ(merged.computed_cells(), 0u);
  EXPECT_EQ(merged.to_csv(), full.to_csv());

  for (const char* suffix : {"_u", "_a", "_b"}) {
    std::filesystem::remove_all(store_root + suffix);
  }
}

TEST_F(SweepWorkloadTest, CloneNetworkGivesIndependentBaselineCopies) {
  // A one-cell sweep prepares the MNIST baseline into the runner's
  // context, which stays readable after run().
  SweepRunner runner(options());
  std::vector<Scenario> scenarios(1);
  scenarios[0].key = "probe";
  scenarios[0].dataset = DatasetKind::kMnist;
  runner.add_grid({fresh_store("clone"), scenarios,
                   [](const Scenario&, const SweepContext&) {
                     return ScenarioResult{};
                   }});
  runner.run();
  const SweepContext& ctx = runner.context();

  snn::Network a = ctx.clone_network(DatasetKind::kMnist);
  snn::Network b = ctx.clone_network(DatasetKind::kMnist);
  const auto pa = a.params();
  const auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  ASSERT_GT(pa.size(), 0u);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(tensor::max_abs_diff(pa[i]->value, pb[i]->value), 0.0);
  }
  // Clones carry the trained baseline, not a fresh initialization.
  snn::Network fresh = build_network(
      DatasetKind::kMnist,
      ctx.workload(DatasetKind::kMnist).data.train, options().seed);
  double diff_from_fresh = 0.0;
  const auto pf = fresh.params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    diff_from_fresh += tensor::max_abs_diff(pa[i]->value, pf[i]->value);
  }
  EXPECT_GT(diff_from_fresh, 0.0);
  // Mutating one clone must not leak into the other.
  pa.front()->value[0] += 1.0f;
  EXPECT_NE(tensor::max_abs_diff(pa.front()->value, pb.front()->value),
            0.0);
}

}  // namespace
}  // namespace falvolt::core
