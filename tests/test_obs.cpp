// obs telemetry: counter correctness under concurrent writers, the
// shared metrics JSON encoder, the Chrome-trace emitter's lifecycle and
// event shape, and — the contract everything else rests on — byte
// identity of sweep tables and fingerprints with tracing on vs off.
// The whole file also runs under the ASan/UBSan job, which is what
// makes the multi-threaded counter/span tests load-bearing.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/sweep.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/result_store.h"

namespace fs = std::filesystem;

namespace falvolt::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::size_t count_char(const std::string& s, char c) {
  std::size_t n = 0;
  for (const char x : s) {
    if (x == c) ++n;
  }
  return n;
}

// ------------------------------------------------------------- metrics

TEST(ObsMetrics, CounterSumsConcurrentAddsExactly) {
  Counter& c = counter("test.obs.concurrent");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kAdds = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add(1);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(ObsMetrics, RegistryReturnsOneImmortalInstancePerName) {
  Counter& a = counter("test.obs.identity");
  Counter& b = counter("test.obs.identity");
  EXPECT_EQ(&a, &b);
}

TEST(ObsMetrics, ScopedTimerAccumulatesNsAndCount) {
  Counter& ns = counter("test.obs.timer.ns");
  Counter& count = counter("test.obs.timer.count");
  ns.reset();
  count.reset();
  { ScopedTimer t(ns, count); }
  { ScopedTimer t(ns, count); }
  EXPECT_EQ(count.value(), 2u);
}

TEST(ObsMetrics, SnapshotIsSortedAndMergesShards) {
  counter("test.obs.snap.b").reset();
  counter("test.obs.snap.a").reset();
  counter("test.obs.snap.b").add(5);
  counter("test.obs.snap.a").add(2);

  const std::vector<MetricSample> samples = snapshot_metrics();
  std::uint64_t a = 0, b = 0;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LT(samples[i - 1].name, samples[i].name)
        << "snapshot must be strictly name-sorted";
  }
  for (const MetricSample& s : samples) {
    if (s.name == "test.obs.snap.a") a = s.value;
    if (s.name == "test.obs.snap.b") b = s.value;
  }
  EXPECT_EQ(a, 2u);
  EXPECT_EQ(b, 5u);
}

TEST(ObsMetrics, EncodeMetricsJsonShape) {
  EXPECT_EQ(encode_metrics_json({}), "{}");
  const std::vector<MetricSample> samples = {{"a.b", 1}, {"c \"q\"", 2}};
  EXPECT_EQ(encode_metrics_json(samples),
            "{\n  \"a.b\": 1,\n  \"c \\\"q\\\"\": 2\n}");
  EXPECT_EQ(encode_metrics_json(samples, 2),
            "{\n    \"a.b\": 1,\n    \"c \\\"q\\\"\": 2\n  }");
}

TEST(ObsMetrics, WriteMetricsJsonWritesWrapperAndFailsFast) {
  const std::string path =
      ::testing::TempDir() + "falvolt_obs_metrics_dump.json";
  counter("test.obs.dump").add(1);
  write_metrics_json(path);
  const std::string body = read_file(path);
  EXPECT_NE(body.find("\"metrics\": {"), std::string::npos);
  EXPECT_NE(body.find("\"test.obs.dump\""), std::string::npos);
  fs::remove(path);

  EXPECT_THROW(
      write_metrics_json("/nonexistent_dir_for_obs_test/metrics.json"),
      std::runtime_error);
}

// --------------------------------------------------------------- trace

TEST(ObsTrace, SpansAreInertWhileOff) {
  ASSERT_FALSE(trace_enabled());
  EXPECT_EQ(trace_stop(), 0u) << "stop without start is a no-op";
  TraceSpan span("test", "inert");
  span.arg("k", "v");
  span.arg("n", 42);
  set_trace_thread_name("nobody");  // no-op while off
}

TEST(ObsTrace, StartFailsFastOnBadPathAndDoubleStart) {
  EXPECT_THROW(trace_start("/nonexistent_dir_for_obs_test/t.json"),
               std::runtime_error);
  EXPECT_FALSE(trace_enabled());

  const std::string path = ::testing::TempDir() + "falvolt_obs_double.json";
  trace_start(path);
  EXPECT_TRUE(trace_enabled());
  EXPECT_THROW(trace_start(path), std::logic_error);
  trace_stop();
  EXPECT_FALSE(trace_enabled());
  fs::remove(path);
}

TEST(ObsTrace, ConcurrentSpansProduceLoadableChromeTraceJson) {
  const std::string path = ::testing::TempDir() + "falvolt_obs_trace.json";
  trace_start(path);
  set_trace_thread_name("main");
  {
    TraceSpan top("test", "top");
    top.arg("str", std::string("value"));
    top.arg("lit", "literal");
    top.arg("u64", std::uint64_t{7});
    top.arg("i", -3);
    top.arg("flag", true);
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([t] {
        set_trace_thread_name("worker " + std::to_string(t));
        for (int i = 0; i < 50; ++i) {
          TraceSpan span("test", "unit");
          span.arg("worker", t);
          span.arg("i", i);
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  const std::size_t events = trace_stop();
  EXPECT_FALSE(trace_enabled());
  // 1 enclosing span + 4 workers x 50 spans ("M" metadata records are
  // written to the file but not counted).
  EXPECT_EQ(events, 201u);

  const std::string body = read_file(path);
  // Structural Chrome trace-event checks (format per the spec's JSON
  // Object variant): the envelope, complete events, thread metadata,
  // args, and balanced nesting. Leg 1 of the fleet_smoke ctest parses a
  // fleet's whole trace as JSON and checks every event.
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(body.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(body.find("\"worker 3\""), std::string::npos);
  EXPECT_NE(body.find("\"cat\": \"test\""), std::string::npos);
  EXPECT_NE(body.find("\"flag\": true"), std::string::npos);
  EXPECT_NE(body.find("\"i\": -3"), std::string::npos);
  EXPECT_EQ(count_char(body, '{'), count_char(body, '}'));
  EXPECT_EQ(count_char(body, '['), count_char(body, ']'));
  fs::remove(path);
}

TEST(ObsTrace, ThreadIdsAreStableWithinAThread) {
  const int id1 = trace_thread_id();
  const int id2 = trace_thread_id();
  EXPECT_EQ(id1, id2);
  int other = id1;
  std::thread([&other] { other = trace_thread_id(); }).join();
  EXPECT_NE(other, id1);
}

}  // namespace
}  // namespace falvolt::obs

// ------------------------------------------- trace-on/off byte identity
//
// The telemetry layer's core promise: tables, CSVs, and fingerprints are
// byte-identical with tracing on or off. Mirrors the fixture patterns of
// test_sweep_store.cpp (workload-free scenario functions, a throwaway
// store per run).

namespace falvolt::core {
namespace {

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

class ObsByteIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "falvolt_obs_identity_test";
    fs::remove_all(dir_);
    trace_path_ = ::testing::TempDir() + "falvolt_obs_identity_trace.json";
  }
  void TearDown() override {
    if (obs::trace_enabled()) obs::trace_stop();  // failed-ASSERT hygiene
    fs::remove_all(dir_);
    fs::remove(trace_path_);
  }

  // `retrain` mirrors the two grid families the figure benches run:
  // eval-only scenarios and retrain (mitigation) scenarios.
  static std::vector<Scenario> grid(bool retrain, int n = 6) {
    std::vector<Scenario> scenarios;
    for (int i = 0; i < n; ++i) {
      Scenario s;
      s.key = "cell=" + std::to_string(i);
      s.fault_count = i;
      s.fault_seed = 100 + static_cast<std::uint64_t>(i);
      s.retrain = retrain;
      scenarios.push_back(s);
    }
    return scenarios;
  }

  static SweepStoreOptions store_opts(const std::string& dir) {
    SweepStoreOptions st;
    st.dir = dir;
    st.bench = "grid_test";
    st.config = {{"epochs", "4"}};
    return st;
  }

  static ScenarioFn cell_fn() {
    return [](const Scenario& s, const SweepContext&) {
      ScenarioResult out;
      out.metrics = {{"value", 10.0 * static_cast<double>(s.fault_count)},
                     {"retrained", s.retrain ? 1.0 : 0.0}};
      out.csv_rows = {{s.key, "row"}};
      out.log = "log " + s.key + "\n";
      return out;
    };
  }

  // One grid on a scenario-parallel runner so spans/counters are
  // exercised from concurrent workers, as in a real fleet shard.
  static ResultTable sweep(const SweepStoreOptions& st,
                           const std::vector<Scenario>& scenarios) {
    WorkloadOptions wo;
    wo.sweep_parallel = 4;
    SweepRunner r{wo};
    r.set_prepare_baselines(false);
    r.add_grid({st, scenarios, cell_fn()});
    return std::move(r.run().front());
  }

  std::string dir_;
  std::string trace_path_;
};

TEST_F(ObsByteIdentityTest, ColdRunTablesMatchWithTracingOnOrOff) {
  for (const bool retrain : {false, true}) {
    SCOPED_TRACE(retrain ? "retrain grid" : "eval grid");
    const std::vector<Scenario> scenarios = grid(retrain);
    const std::string dir_off = dir_ + (retrain ? "/r_off" : "/e_off");
    const std::string dir_on = dir_ + (retrain ? "/r_on" : "/e_on");

    const ResultTable t_off = sweep(store_opts(dir_off), scenarios);

    obs::trace_start(trace_path_);
    const ResultTable t_on = sweep(store_opts(dir_on), scenarios);
    const std::size_t events = obs::trace_stop();

    ASSERT_TRUE(t_off.complete());
    ASSERT_TRUE(t_on.complete());
    EXPECT_GT(events, 0u) << "a traced sweep must emit spans";

    // Two independent cold runs: the CSV table (key/tag/dataset/metrics
    // — no timing columns) must match byte-for-byte, and every cell
    // must land on the same content address.
    EXPECT_EQ(t_off.to_csv(), t_on.to_csv());
    ASSERT_EQ(t_off.size(), t_on.size());
    for (std::size_t i = 0; i < t_off.size(); ++i) {
      EXPECT_EQ(t_off.at(i).fingerprint, t_on.at(i).fingerprint);
      EXPECT_EQ(t_off.at(i).metrics, t_on.at(i).metrics);
      EXPECT_EQ(t_off.at(i).csv_rows, t_on.at(i).csv_rows);
      EXPECT_EQ(t_off.at(i).log, t_on.at(i).log);
    }
  }
}

TEST_F(ObsByteIdentityTest, TracedWarmReplayIsByteIdenticalIncludingJson) {
  // Per-cell seconds are measured on compute and replayed from the
  // store, so full-JSON identity (minus the volatile "run" line) is the
  // cold-vs-warm contract — here with telemetry OFF for the cold run
  // and ON for the warm one, proving the trace layer perturbs neither
  // the replay path nor the serialized tables.
  for (const bool retrain : {false, true}) {
    SCOPED_TRACE(retrain ? "retrain grid" : "eval grid");
    const std::vector<Scenario> scenarios = grid(retrain);
    const std::string dir = dir_ + (retrain ? "/r_warm" : "/e_warm");

    const ResultTable t_cold = sweep(store_opts(dir), scenarios);

    obs::trace_start(trace_path_);
    const ResultTable t_warm = sweep(store_opts(dir), scenarios);
    obs::trace_stop();

    ASSERT_TRUE(t_warm.complete());
    EXPECT_EQ(t_warm.computed_cells(), 0u)
        << "tracing must not invalidate cached cells";
    EXPECT_EQ(t_warm.cached_cells(), scenarios.size());
    EXPECT_EQ(t_cold.to_csv(), t_warm.to_csv());
    EXPECT_EQ(without_run_line(t_cold.to_json("grid_test")),
              without_run_line(t_warm.to_json("grid_test")));
  }
}

TEST_F(ObsByteIdentityTest, SweepCountersReconcileWithCellsComputed) {
  // The fleet-summary consistency the perf gate relies on: cells
  // computed/cached as counted by the metrics registry must reconcile
  // with what the tables report.
  obs::counter("sweep.cells.computed").reset();
  obs::counter("sweep.cells.cached").reset();
  obs::counter("store.chain.miss").reset();

  const std::vector<Scenario> scenarios = grid(/*retrain=*/false);
  const std::string dir = dir_ + "/counters";
  const ResultTable t_cold = sweep(store_opts(dir), scenarios);
  const ResultTable t_warm = sweep(store_opts(dir), scenarios);

  EXPECT_EQ(obs::counter("sweep.cells.computed").value(),
            t_cold.computed_cells());
  EXPECT_EQ(obs::counter("sweep.cells.cached").value(),
            t_warm.cached_cells());
  EXPECT_GE(obs::counter("store.chain.miss").value(),
            t_cold.computed_cells())
      << "every computed cell was first a store miss";
}

}  // namespace
}  // namespace falvolt::core
