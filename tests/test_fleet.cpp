// SweepRunner over several grids (cross-bench work-stealing sweeps), the
// GridRegistry the grids publish themselves through (including their
// figure aggregation), and the provenance block the record codec carries
// for fleet debugging.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <sstream>
#include <thread>

#include "bench_common.h"
#include "common/version.h"
#include "core/grid_registry.h"
#include "core/sweep.h"
#include "grids/grids.h"
#include "store/fingerprint.h"
#include "store/result_store.h"

namespace fs = std::filesystem;

namespace falvolt::core {
namespace {

std::vector<Scenario> grid(const std::string& prefix, int n) {
  std::vector<Scenario> scenarios;
  for (int i = 0; i < n; ++i) {
    Scenario s;
    s.key = prefix + "=" + std::to_string(i);
    s.fault_count = i;
    scenarios.push_back(s);
  }
  return scenarios;
}

std::vector<Scenario> retrain_grid(const std::string& prefix, int n,
                                   int epochs) {
  std::vector<Scenario> scenarios = grid(prefix, n);
  for (Scenario& s : scenarios) {
    s.retrain = true;
    s.epochs = epochs;
  }
  return scenarios;
}

SweepStoreOptions store_opts(const std::string& dir,
                             const std::string& bench) {
  SweepStoreOptions st;
  st.dir = dir;
  st.bench = bench;
  st.config = {{"epochs", "4"}};
  return st;
}

ScenarioFn counting_fn(std::atomic<int>& computed) {
  return [&computed](const Scenario& s, const SweepContext&) {
    ++computed;
    ScenarioResult out;
    out.metrics = {{"value", 10.0 * static_cast<double>(s.fault_count)}};
    out.log = "log " + s.key + "\n";
    return out;
  };
}

class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "falvolt_fleet_test";
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  SweepRunner fleet(int workers) {
    WorkloadOptions opts;
    opts.sweep_parallel = workers;
    SweepRunner f(opts);
    f.set_prepare_baselines(false);
    return f;
  }

  std::string dir_;
};

TEST_F(FleetTest, RunsSeveralGridsAgainstOneStoreInterchangeably) {
  std::atomic<int> computed{0};
  SweepRunner cold = fleet(2);
  cold.add_grid({store_opts(dir_, "bench_a"), grid("a", 4),
                 counting_fn(computed)});
  cold.add_grid({store_opts(dir_, "bench_b"), grid("b", 3),
                 counting_fn(computed)});
  const std::vector<ResultTable> tables = cold.run();
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(computed.load(), 7);
  EXPECT_EQ(tables[0].computed_cells(), 4u);
  EXPECT_EQ(tables[1].computed_cells(), 3u);
  EXPECT_TRUE(tables[0].complete());

  // Warm fleet re-run: everything replays.
  SweepRunner warm = fleet(2);
  warm.add_grid({store_opts(dir_, "bench_a"), grid("a", 4),
                 counting_fn(computed)});
  warm.add_grid({store_opts(dir_, "bench_b"), grid("b", 3),
                 counting_fn(computed)});
  const std::vector<ResultTable> warmed = warm.run();
  EXPECT_EQ(computed.load(), 7);
  EXPECT_EQ(warmed[0].cached_cells(), 4u);
  EXPECT_EQ(warmed[1].cached_cells(), 3u);
  EXPECT_EQ(warmed[0].to_csv(), tables[0].to_csv());
  EXPECT_EQ(warmed[1].to_csv(), tables[1].to_csv());

  // Interchangeability with per-bench runs: a one-grid run against the
  // fleet store replays the fleet's cells — and its table is
  // byte-identical to a cold one-grid run in a private store (the fleet
  // computes values, it never changes them).
  SweepRunner solo = fleet(1);
  solo.add_grid({store_opts(dir_, "bench_a"), grid("a", 4),
                 counting_fn(computed)});
  const ResultTable replayed = std::move(solo.run().front());
  EXPECT_EQ(computed.load(), 7);
  EXPECT_EQ(replayed.computed_cells(), 0u);

  SweepRunner standalone = fleet(1);
  standalone.add_grid({store_opts(dir_ + "_solo", "bench_a"), grid("a", 4),
                       counting_fn(computed)});
  const ResultTable reference = std::move(standalone.run().front());
  EXPECT_EQ(computed.load(), 11);
  EXPECT_EQ(replayed.to_csv(), reference.to_csv());
  fs::remove_all(dir_ + "_solo");
}

// Cells of DIFFERENT grids run concurrently from one work queue: with 4
// workers over two 2-cell grids, all 4 cells must be in flight at once
// (each cell blocks until it sees full concurrency, with a timeout so a
// regression fails rather than hangs).
TEST_F(FleetTest, WorkersStealAcrossGrids) {
  std::atomic<int> in_flight{0};
  std::atomic<int> high_water{0};
  const auto blocking = [&](const Scenario&, const SweepContext&) {
    const int now = in_flight.fetch_add(1) + 1;
    int seen = high_water.load();
    while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (high_water.load() < 4 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    in_flight.fetch_sub(1);
    return ScenarioResult{};
  };
  SweepRunner f = fleet(4);
  f.add_grid({store_opts(dir_, "bench_a"), grid("a", 2), blocking});
  f.add_grid({store_opts(dir_, "bench_b"), grid("b", 2), blocking});
  f.run();
  EXPECT_EQ(high_water.load(), 4)
      << "cells of both grids must share one worker pool";
}

// ------------------------------------------------- cost-aware scheduling

TEST(ScenarioCost, DefaultsScaleWithRetrainEpochsAndHintWins) {
  Scenario eval;
  EXPECT_DOUBLE_EQ(scenario_cost_estimate(eval), 1.0);
  Scenario retrain;
  retrain.retrain = true;
  retrain.epochs = 4;
  EXPECT_DOUBLE_EQ(scenario_cost_estimate(retrain),
                   4.0 * kRetrainCostPerEpoch);
  Scenario retrain_no_epochs;
  retrain_no_epochs.retrain = true;  // epochs unset still beats an eval
  EXPECT_DOUBLE_EQ(scenario_cost_estimate(retrain_no_epochs),
                   kRetrainCostPerEpoch);
  Scenario hinted = retrain;
  hinted.cost_hint = 2.5;
  EXPECT_DOUBLE_EQ(scenario_cost_estimate(hinted), 2.5);
}

TEST(ScenarioCost, CostHintNeverEntersFingerprints) {
  SweepStoreOptions st;
  st.bench = "bench_a";
  Scenario a;
  a.key = "x=0";
  Scenario b = a;
  b.cost_hint = 512.0;
  EXPECT_EQ(fingerprint_cell(st, WorkloadOptions{}, a),
            fingerprint_cell(st, WorkloadOptions{}, b));
}

// With one worker the claim order IS the queue order: the retrain
// grid's cells run first even though the eval grid was added first, and
// equal-cost cells keep grid-major add order.
TEST_F(FleetTest, CostOrderedQueueClaimsExpensiveCellsFirst) {
  std::vector<std::string> order;
  std::mutex mu;
  const auto recording = [&](const Scenario& s, const SweepContext&) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(s.key);
    return ScenarioResult{};
  };
  SweepRunner f = fleet(1);
  f.add_grid({store_opts(dir_, "bench_eval"), grid("e", 3), recording});
  f.add_grid({store_opts(dir_, "bench_retrain"), retrain_grid("r", 2, 4),
              recording});
  f.run();
  EXPECT_EQ(order, (std::vector<std::string>{"r=0", "r=1", "e=0", "e=1",
                                              "e=2"}));
}

// Mixed retrain/eval fleet at full concurrency: with 2 workers both
// retrain cells must be in flight together BEFORE any eval cell starts
// (the whole point of the cost order — the expensive tail overlaps the
// cheap cells instead of following them).
TEST_F(FleetTest, MixedFleetRunsRetrainCellsAtFullConcurrencyFirst) {
  std::atomic<int> retrain_in_flight{0};
  std::atomic<int> retrain_high_water{0};
  std::atomic<int> evals_before_retrains{0};
  const auto fn = [&](const Scenario& s, const SweepContext&) {
    if (s.retrain) {
      const int now = retrain_in_flight.fetch_add(1) + 1;
      int seen = retrain_high_water.load();
      while (now > seen &&
             !retrain_high_water.compare_exchange_weak(seen, now)) {
      }
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (retrain_high_water.load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      retrain_in_flight.fetch_sub(1);
    } else if (retrain_high_water.load() < 2) {
      evals_before_retrains.fetch_add(1);
    }
    return ScenarioResult{};
  };
  SweepRunner f = fleet(2);
  f.add_grid({store_opts(dir_, "bench_eval"), grid("e", 4), fn});
  f.add_grid({store_opts(dir_, "bench_retrain"), retrain_grid("r", 2, 4),
              fn});
  f.run();
  EXPECT_EQ(retrain_high_water.load(), 2)
      << "both retrain cells must overlap";
  EXPECT_EQ(evals_before_retrains.load(), 0)
      << "no eval cell may start before the retrain cells are claimed";
}

// Claim order is pure scheduling: a mixed fleet drains its retrain
// cells first, yet each grid's table is byte-identical to the grid swept
// on its own, and a warm re-run against the fleet's store computes
// nothing.
TEST_F(FleetTest, MixedFleetTablesMatchSoloGridsAndWarmZero) {
  std::atomic<int> computed{0};
  const auto run_fleet = [&] {
    SweepRunner f = fleet(2);
    f.add_grid({store_opts(dir_, "bench_eval"), grid("e", 4),
                counting_fn(computed)});
    f.add_grid({store_opts(dir_, "bench_retrain"), retrain_grid("r", 3, 2),
                counting_fn(computed)});
    return f.run();
  };
  const std::vector<ResultTable> mixed = run_fleet();
  ASSERT_EQ(mixed.size(), 2u);

  SweepRunner eval_only = fleet(1);
  eval_only.add_grid({store_opts(dir_ + "_solo", "bench_eval"), grid("e", 4),
                      counting_fn(computed)});
  EXPECT_EQ(mixed[0].to_csv(), eval_only.run().front().to_csv());
  SweepRunner retrain_only = fleet(1);
  retrain_only.add_grid({store_opts(dir_ + "_solo", "bench_retrain"),
                         retrain_grid("r", 3, 2), counting_fn(computed)});
  EXPECT_EQ(mixed[1].to_csv(), retrain_only.run().front().to_csv());
  EXPECT_EQ(computed.load(), 14);

  // Warm re-run after the mixed fleet: zero cells computed.
  const std::vector<ResultTable> warm = run_fleet();
  EXPECT_EQ(computed.load(), 14);
  for (std::size_t g = 0; g < warm.size(); ++g) {
    EXPECT_EQ(warm[g].computed_cells(), 0u);
    EXPECT_EQ(warm[g].to_csv(), mixed[g].to_csv());
  }
  fs::remove_all(dir_ + "_solo");
}

TEST_F(FleetTest, WorkerStatsAccountForEveryComputedCell) {
  std::atomic<int> computed{0};
  SweepRunner f = fleet(2);
  f.add_grid({store_opts(dir_, "bench_a"), grid("a", 5),
              counting_fn(computed)});
  f.add_grid({store_opts(dir_, "bench_b"), grid("b", 2),
              counting_fn(computed)});
  EXPECT_TRUE(f.worker_stats().empty()) << "no stats before any run";
  f.run();
  ASSERT_EQ(f.worker_stats().size(), 2u);
  std::size_t cells = 0;
  for (const WorkerStats& w : f.worker_stats()) {
    cells += w.cells;
    EXPECT_GE(w.busy_seconds, 0.0);
  }
  EXPECT_EQ(cells, 7u);

  // A fully warm fleet claims nothing — stats show zero cells.
  SweepRunner warm = fleet(2);
  warm.add_grid({store_opts(dir_, "bench_a"), grid("a", 5),
                 counting_fn(computed)});
  warm.add_grid({store_opts(dir_, "bench_b"), grid("b", 2),
                 counting_fn(computed)});
  warm.run();
  EXPECT_EQ(computed.load(), 7);
  std::size_t warm_cells = 0;
  for (const WorkerStats& w : warm.worker_stats()) warm_cells += w.cells;
  EXPECT_EQ(warm_cells, 0u);
}

TEST_F(FleetTest, GridErrorsFailTheFleetWithBenchPrefix) {
  SweepRunner f = fleet(1);
  std::atomic<int> computed{0};
  f.add_grid({store_opts(dir_, "bench_a"), grid("a", 2),
              counting_fn(computed)});
  f.add_grid({store_opts(dir_, "bench_b"), grid("b", 2),
              [](const Scenario& s, const SweepContext&) -> ScenarioResult {
                throw std::runtime_error("boom in " + s.key);
              }});
  try {
    f.run();
    FAIL() << "expected the fleet to fail";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bench_b: b=0"), std::string::npos)
        << e.what();
  }
}

// Every record lands at its fingerprint_cell address — the address the
// fleet daemon, --list-scenarios, and sweep_merge compute on their own.
TEST_F(FleetTest, RecordsLandAtFingerprintCellAddresses) {
  std::atomic<int> computed{0};
  const std::vector<Scenario> scenarios = grid("a", 3);
  SweepRunner f = fleet(2);
  f.add_grid({store_opts(dir_, "bench_a"), scenarios, counting_fn(computed)});
  const ResultTable table = std::move(f.run().front());
  const store::LocalDirStore rs(dir_);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const std::string fp = fingerprint_cell(store_opts(dir_, "bench_a"),
                                            WorkloadOptions{}, scenarios[i]);
    EXPECT_EQ(table.at(i).fingerprint, fp);
    EXPECT_TRUE(lookup_cell(rs, fp, scenarios[i].key).has_value())
        << scenarios[i].key;
  }
}

TEST_F(FleetTest, ProvenanceIsStampedStoredAndReplayed) {
  std::atomic<int> computed{0};
  SweepRunner cold = fleet(1);
  cold.add_grid({store_opts(dir_, "bench_a"), grid("a", 2),
                 counting_fn(computed)});
  const ResultTable t_cold = std::move(cold.run().front());
  for (std::size_t i = 0; i < t_cold.size(); ++i) {
    const Provenance& p = t_cold.at(i).provenance;
    EXPECT_FALSE(p.host.empty());
    EXPECT_EQ(p.version, kFalvoltVersion);
    EXPECT_GT(p.unix_time, 0u);
    EXPECT_EQ(p.store_epoch, store::kStoreFormatEpoch);
  }
  SweepRunner warm = fleet(1);
  warm.add_grid({store_opts(dir_, "bench_a"), grid("a", 2),
                 counting_fn(computed)});
  const ResultTable t_warm = std::move(warm.run().front());
  EXPECT_EQ(computed.load(), 2);
  for (std::size_t i = 0; i < t_cold.size(); ++i) {
    EXPECT_EQ(t_cold.at(i).provenance.host, t_warm.at(i).provenance.host);
    EXPECT_EQ(t_cold.at(i).provenance.version,
              t_warm.at(i).provenance.version);
    EXPECT_EQ(t_cold.at(i).provenance.unix_time,
              t_warm.at(i).provenance.unix_time);
    EXPECT_EQ(t_cold.at(i).provenance.store_epoch,
              t_warm.at(i).provenance.store_epoch);
  }
}

TEST(SweepRunnerApi, RejectsEmptyRunsAndBadGrids) {
  SweepRunner f{WorkloadOptions{}};
  EXPECT_THROW(f.run(), std::logic_error);
  EXPECT_THROW(f.add_grid({SweepStoreOptions{}, {}, nullptr}),
               std::invalid_argument);
  SweepStoreOptions bad;
  bad.shard_index = 3;
  bad.shard_count = 2;
  EXPECT_THROW(
      f.add_grid({bad, {}, [](const Scenario&, const SweepContext&) {
                    return ScenarioResult{};
                  }}),
      std::invalid_argument);
}

// ------------------------------------------------------------ registry

TEST(GridRegistry, AllGridsRegisterAndBuild) {
  bench::register_all_grids();
  bench::register_all_grids();  // idempotent
  const GridRegistry& reg = GridRegistry::instance();
  // Seven figure benches + the design-choice ablation + the two
  // example-derived workloads: everything the repo can express runs
  // through one fleet queue.
  const std::vector<std::string> expected = {
      "fig2_vth_sweep",   "fig5a_bit_position", "fig5b_fault_count",
      "fig5c_array_size", "fig6_vth_layers",    "fig7_mitigation",
      "fig8_convergence", "ablation_falvolt",   "chip_salvage_triage",
      "gesture_pipeline"};
  ASSERT_GE(reg.size(), 9u) << "fleet must cover 9+ grids";
  for (const std::string& name : expected) {
    ASSERT_NE(reg.find(name), nullptr) << name;
    EXPECT_FALSE(reg.get(name).datasets.empty())
        << name << " must declare its dataset axis so the fleet driver "
        << "can skip it under a foreign --datasets filter";
  }

  // Every grid builds a non-empty, unique-keyed scenario list from its
  // default flags, and its scenario-fn factory is constructible without
  // touching any workload (lazy-baseline contract).
  SweepRunner probe{WorkloadOptions{}};
  for (const std::string& name : expected) {
    const GridDef& def = reg.get(name);
    common::CliFlags cli(def.name);
    bench::add_common_flags(cli);
    def.add_flags(cli);
    const std::vector<Scenario> scenarios = def.scenarios(cli);
    ASSERT_FALSE(scenarios.empty()) << name;
    std::set<std::string> keys;
    for (const Scenario& s : scenarios) {
      EXPECT_TRUE(keys.insert(s.key).second)
          << name << " duplicate key " << s.key;
      EXPECT_GT(scenario_cost_estimate(s), 0.0) << name << " " << s.key;
    }
    EXPECT_TRUE(
        static_cast<bool>(def.scenario_fn(cli, probe.context())))
        << name;
    EXPECT_TRUE(static_cast<bool>(def.aggregate)) << name;
  }

  // Spot-check the cost tagging the scheduler depends on: fig5c's
  // cost-model hints grow as the array shrinks (more tiles per GEMM),
  // and the gesture grid's falvolt arm dwarfs its unmitigated arm.
  {
    common::CliFlags cli("fig5c_array_size");
    bench::add_common_flags(cli);
    reg.get("fig5c_array_size").add_flags(cli);
    const std::vector<Scenario> scenarios =
        reg.get("fig5c_array_size").scenarios(cli);
    double cost4 = 0.0, cost256 = 0.0;
    for (const Scenario& s : scenarios) {
      if (s.array_size == 4) cost4 = scenario_cost_estimate(s);
      if (s.array_size == 256) cost256 = scenario_cost_estimate(s);
    }
    EXPECT_GT(cost4, cost256);
  }
  {
    common::CliFlags cli("gesture_pipeline");
    bench::add_common_flags(cli);
    reg.get("gesture_pipeline").add_flags(cli);
    for (const Scenario& s : reg.get("gesture_pipeline").scenarios(cli)) {
      if (s.tag == "falvolt") {
        EXPECT_GE(scenario_cost_estimate(s), kRetrainCostPerEpoch);
      } else {
        EXPECT_DOUBLE_EQ(scenario_cost_estimate(s), 1.0);
      }
    }
  }
}

// A defect rate (or array) small enough that the per-die defect ceiling
// truncates to zero must still build — a defective die then carries the
// minimum one defect instead of tripping Rng::uniform_int(0).
TEST(GridRegistry, ChipDefectsGuardDegenerateCeilings) {
  for (int chip = 0; chip < 8; ++chip) {
    EXPECT_GE(bench::chip_salvage::chip_defects(chip, 0.0, 64 * 64), 0);
    EXPECT_GE(bench::chip_salvage::chip_defects(chip, 0.0001, 64 * 64), 0);
    EXPECT_GE(bench::chip_salvage::chip_defects(chip, 0.18, 4), 0);
  }
}

TEST(GridRegistry, LookupAndValidation) {
  bench::register_all_grids();
  GridRegistry& reg = GridRegistry::instance();
  EXPECT_EQ(reg.find("no_such_grid"), nullptr);
  EXPECT_THROW(reg.get("no_such_grid"), std::out_of_range);

  GridDef dup;
  dup.name = "fig5b_fault_count";
  dup.add_flags = [](common::CliFlags&) {};
  dup.scenarios = [](const common::CliFlags&) {
    return std::vector<Scenario>{};
  };
  dup.scenario_fn = [](const common::CliFlags&, const SweepContext&) {
    return ScenarioFn{};
  };
  dup.aggregate = [](const common::CliFlags&, const ResultTable&) {
    return Figure{};
  };
  // Complete, so rejected for its name alone.
  GridDef no_aggregate = dup;
  no_aggregate.name = "no_aggregate";
  no_aggregate.aggregate = nullptr;
  EXPECT_THROW(reg.add(std::move(dup)), std::logic_error);

  // A grid that cannot render its figure is incomplete too.
  EXPECT_THROW(reg.add(std::move(no_aggregate)), std::logic_error);
  EXPECT_EQ(reg.find("no_aggregate"), nullptr);

  GridDef incomplete;
  incomplete.name = "incomplete";
  EXPECT_THROW(reg.add(std::move(incomplete)), std::logic_error);
}

// ------------------------------------------------- figure aggregation

// A registered grid's flags parsed from `args`, its scenarios, and a
// table filled (as replayed cells, no compute) with the metrics
// `metrics_of` assigns each scenario.
struct FilledGrid {
  const GridDef* def;
  common::CliFlags cli;
  std::vector<Scenario> scenarios;
  ResultTable table;
};

FilledGrid fill_grid(
    const std::string& name, std::vector<const char*> args,
    const std::function<std::vector<std::pair<std::string, double>>(
        const Scenario&)>& metrics_of) {
  bench::register_all_grids();
  const GridDef& def = GridRegistry::instance().get(name);
  FilledGrid g{&def, common::CliFlags(name), {}, {}};
  bench::add_common_flags(g.cli);
  def.add_flags(g.cli);
  args.insert(args.begin(), name.c_str());
  g.cli.parse(static_cast<int>(args.size()), args.data());
  g.scenarios = def.scenarios(g.cli);
  g.table = ResultTable(g.scenarios.size());
  for (std::size_t i = 0; i < g.scenarios.size(); ++i) {
    ScenarioResult r;
    r.scenario = g.scenarios[i];
    r.metrics = metrics_of(g.scenarios[i]);
    g.table.put_cached(i, std::move(r));
  }
  return g;
}

// fig5b: one CSV row per (dataset, faulty-PE count), the mean and the
// population stddev over the repeats, and the count as a percentage of
// the array's PEs.
TEST(FigureAggregation, Fig5bAveragesRepeatsPerFaultCount) {
  const FilledGrid g = fill_grid(
      "fig5b_fault_count",
      {"--datasets", "mnist", "--repeats", "2", "--array-size", "64"},
      [](const Scenario& s) {
        // rep 0 -> 50 + count, rep 1 -> 60 + count: mean 55 + count,
        // stddev 5.
        const double acc = 50.0 + 10.0 * s.repeat + s.fault_count;
        return std::vector<std::pair<std::string, double>>{
            {"accuracy", acc}};
      });
  const Figure fig = g.def->aggregate(g.cli, g.table);
  EXPECT_EQ(fig.csv_header,
            (std::vector<std::string>{"dataset", "faulty_pes",
                                      "fault_rate_percent", "accuracy",
                                      "stddev"}));
  const std::vector<int> counts = {0, 4, 8, 16, 32, 40, 48, 56, 64};
  ASSERT_EQ(fig.csv_rows.size(), counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const int c = counts[i];
    EXPECT_EQ(fig.csv_rows[i],
              (std::vector<std::string>{
                  "MNIST", std::to_string(c),
                  common::CsvWriter::format(100.0 * c / (64 * 64)),
                  common::CsvWriter::format(55.0 + c), "5"}))
        << "count " << c;
  }
  EXPECT_EQ(fig.csv_rows[2][2], "0.195312");  // 8 of 4096 PEs
  EXPECT_NE(fig.report.find("Expected shape (paper)"), std::string::npos);
}

// fig8: epochs-to-target is the first epoch at or above (FaPIT's
// baseline - target-drop); the speedup is FaPIT's epochs over FalVolt's
// — the repo's reading of the paper's "2x faster" claim.
TEST(FigureAggregation, Fig8EpochsToTargetSpeedup) {
  // MNIST: FaPIT first reaches 87 (= 90 - 3) at epoch 4, FalVolt at
  // epoch 2. N-MNIST: FaPIT never reaches it within the horizon.
  const FilledGrid g = fill_grid(
      "fig8_convergence",
      {"--datasets", "mnist,nmnist", "--epochs", "6", "--target-drop", "3"},
      [](const Scenario& s) {
        const bool mnist = s.dataset == DatasetKind::kMnist;
        const std::vector<double> curve =
            s.tag == "FaPIT"
                ? (mnist ? std::vector<double>{50, 60, 70, 88, 89, 90}
                         : std::vector<double>{50, 60, 70, 80, 85, 86})
                : std::vector<double>{80, 87.5, 88, 89, 90, 90};
        std::vector<std::pair<std::string, double>> metrics = {
            {"baseline", 90.0}};
        for (std::size_t e = 0; e < curve.size(); ++e) {
          metrics.emplace_back("epoch" + std::to_string(e + 1), curve[e]);
        }
        return metrics;
      });
  const Figure fig = g.def->aggregate(g.cli, g.table);
  EXPECT_EQ(fig.csv_header,
            (std::vector<std::string>{"dataset", "method", "epoch",
                                      "accuracy"}));
  const auto summary_line = [&fig](const std::string& dataset) {
    const std::size_t at = fig.report.find(
        "\n" + dataset + " ", fig.report.find("Epochs to reach"));
    EXPECT_NE(at, std::string::npos) << dataset << "\n" << fig.report;
    if (at == std::string::npos) return std::vector<std::string>{};
    std::istringstream line(
        fig.report.substr(at + 1, fig.report.find('\n', at + 1) - at - 1));
    std::vector<std::string> fields;
    for (std::string f; line >> f;) fields.push_back(f);
    return fields;
  };
  EXPECT_EQ(summary_line("MNIST"),
            (std::vector<std::string>{"MNIST", "4", "2", "2.00x"}));
  EXPECT_EQ(summary_line("N-MNIST"),
            (std::vector<std::string>{"N-MNIST", ">horizon", "2", "n/a"}));
  EXPECT_NE(fig.report.find("Epochs to reach (baseline - 3.0) points"),
            std::string::npos);
}


}  // namespace
}  // namespace falvolt::core
