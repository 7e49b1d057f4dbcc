// Mark-and-sweep GC over manifest reachability (store/gc.h) and the
// sweep_merge --prune contract: unreachable records are deleted,
// reachable records survive re-validation, a pruned store still
// reproduces byte-identical tables, and damage (corrupt records, dead
// manifests, stale payload formats) is counted, never fatal.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>

#include "core/sweep.h"
#include "store/gc.h"
#include "store/manifest.h"
#include "store/result_store.h"

namespace fs = std::filesystem;

namespace falvolt::store {
namespace {

// Payload validation exactly as sweep_merge --prune wires it.
bool decodes(const std::string& payload) {
  core::ScenarioResult r;
  return core::decode_scenario_result(payload, r);
}

std::string fp_of(char c) { return std::string(64, c); }

class StoreGcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "falvolt_gc_test";
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // A store with records a..{a+n-1}; a manifest references the first
  // `referenced` of them.
  LocalDirStore seeded(int n, int referenced) {
    LocalDirStore rs(dir_);
    Manifest m;
    m.bench = "gc_test";
    for (int i = 0; i < n; ++i) {
      core::ScenarioResult r;
      r.scenario.key = "cell=" + std::string(1, static_cast<char>('a' + i));
      r.metrics = {{"value", 1.0 * i}};
      rs.put(fp_of(static_cast<char>('a' + i)),
             core::encode_scenario_result(r));
      if (i < referenced) {
        m.entries.emplace_back(fp_of(static_cast<char>('a' + i)),
                               r.scenario.key);
      }
    }
    write_manifest(rs, m);
    return rs;
  }

  std::string dir_;
};

TEST_F(StoreGcTest, UnreachableRecordsDeletedReachableSurvive) {
  const LocalDirStore rs = seeded(6, 4);
  const GcStats stats = prune_store(rs, decodes);
  EXPECT_EQ(stats.live, 4u);
  EXPECT_EQ(stats.unreachable, 2u);
  EXPECT_EQ(stats.invalid, 0u);
  EXPECT_EQ(stats.manifests, 1u);
  // The survivors still read back valid; the swept ones are gone.
  for (char c : {'a', 'b', 'c', 'd'}) {
    EXPECT_TRUE(rs.get(fp_of(c)).has_value()) << c;
  }
  for (char c : {'e', 'f'}) {
    EXPECT_FALSE(rs.contains(fp_of(c))) << c;
  }
}

TEST_F(StoreGcTest, CorruptReachableRecordCountedAndRemovedNotFatal) {
  const LocalDirStore rs = seeded(4, 4);
  // Flip bytes in one reachable record (disk rot mid-file).
  {
    std::fstream f(rs.object_path(fp_of('b')),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(30);
    f.write("\xff\xff\xff", 3);
  }
  const GcStats stats = prune_store(rs, decodes);
  EXPECT_EQ(stats.live, 3u);
  EXPECT_EQ(stats.invalid, 1u);
  EXPECT_EQ(stats.unreachable, 0u);
  EXPECT_FALSE(rs.contains(fp_of('b')));
}

TEST_F(StoreGcTest, StalePayloadFormatReclaimedThroughPayloadCheck) {
  LocalDirStore rs = seeded(2, 2);
  // A frame-valid record whose payload the codec rejects — what an
  // epoch/codec bump leaves behind (recompute-on-read, reclaim-on-GC).
  Manifest m;
  m.bench = "stale";
  m.entries.emplace_back(fp_of('0'), "stale-cell");
  rs.put(fp_of('0'), "not a scenario result payload");
  write_manifest(rs, m);
  ASSERT_TRUE(rs.get(fp_of('0')).has_value()) << "frame itself is valid";

  // Frame-only GC keeps it; codec-aware GC reclaims it.
  EXPECT_EQ(prune_store(rs).invalid, 0u);
  const GcStats stats = prune_store(rs, decodes);
  EXPECT_EQ(stats.invalid, 1u);
  EXPECT_EQ(stats.live, 2u);
  EXPECT_FALSE(rs.contains(fp_of('0')));
}

TEST_F(StoreGcTest, UnreadableManifestRemovedAndItsCellsSwept) {
  const LocalDirStore rs = seeded(3, 3);
  const std::string dead =
      (fs::path(dir_) / "manifests" / "dead-000000000000.manifest").string();
  std::ofstream(dead) << "falvolt-manifest 999\ngarbage\n";
  const GcStats stats = prune_store(rs, decodes);
  EXPECT_EQ(stats.manifests, 1u);
  EXPECT_EQ(stats.manifests_invalid, 1u);
  EXPECT_FALSE(fs::exists(dead));
  EXPECT_EQ(stats.live, 3u);  // the readable manifest still marks its cells
}

TEST_F(StoreGcTest, StagingLeftoversCleared) {
  const LocalDirStore rs = seeded(1, 1);
  std::ofstream(fs::path(dir_) / "tmp" / "rec.123.0.tmp") << "half a write";
  std::ofstream(fs::path(dir_) / "tmp" / "manifest.123.0.tmp") << "half";
  const GcStats stats = prune_store(rs, decodes);
  EXPECT_EQ(stats.tmp_removed, 2u);
  EXPECT_TRUE(fs::is_empty(fs::path(dir_) / "tmp"));
}

TEST_F(StoreGcTest, StoreExistsDistinguishesStoresFromTyposAndPlainDirs) {
  EXPECT_FALSE(store_exists(dir_));            // nothing there yet
  fs::create_directories(dir_);
  EXPECT_FALSE(store_exists(dir_));            // a dir is not a store
  { LocalDirStore rs(dir_); }
  EXPECT_TRUE(store_exists(dir_));
  EXPECT_FALSE(store_exists(""));
}

// The headline --prune contract at the sweep level: GC between a cold
// and a warm run deletes nothing a grid needs, so the warm run still
// computes zero cells and its tables are byte-identical — while records
// of an abandoned grid (re-addressed by a config change) are reclaimed.
TEST_F(StoreGcTest, PrunedStoreStillReproducesByteIdenticalTables) {
  core::SweepStoreOptions st;
  st.dir = dir_;
  st.bench = "gc_sweep";
  st.config = {{"epochs", "4"}};
  std::vector<core::Scenario> scenarios;
  for (int i = 0; i < 5; ++i) {
    core::Scenario s;
    s.key = "cell=" + std::to_string(i);
    s.fault_count = i;
    scenarios.push_back(s);
  }
  std::atomic<int> computed{0};
  const auto fn = [&computed](const core::Scenario& s,
                              const core::SweepContext&) {
    ++computed;
    core::ScenarioResult out;
    out.metrics = {{"value", 10.0 * s.fault_count}};
    out.csv_rows = {{s.key, "row"}};
    out.log = "log " + s.key + "\n";
    return out;
  };
  const auto run_with = [&](const core::SweepStoreOptions& opts) {
    core::SweepRunner runner{core::WorkloadOptions{}};
    runner.set_prepare_baselines(false);
    runner.add_grid({opts, scenarios, fn});
    return std::move(runner.run().front());
  };

  const core::ResultTable cold = run_with(st);
  EXPECT_EQ(computed.load(), 5);

  // An abandoned grid: same cells under a different config fingerprint.
  // Its manifest is deleted below to simulate "no longer referenced".
  core::SweepStoreOptions abandoned = st;
  abandoned.config = {{"epochs", "9"}};
  run_with(abandoned);
  EXPECT_EQ(computed.load(), 10);
  const LocalDirStore rs(dir_);
  ASSERT_EQ(rs.fingerprints().size(), 10u);
  for (const std::string& path : list_manifests(rs)) {
    const auto m = read_manifest(path);
    ASSERT_TRUE(m.has_value());
    // Both manifests carry bench "gc_sweep"; drop the abandoned grid's
    // file by matching its first fingerprint.
    if (m->entries.front().first ==
        core::fingerprint_cell(abandoned, core::WorkloadOptions{},
                               scenarios[0])) {
      fs::remove(path);
    }
  }

  const GcStats stats = prune_store(rs, decodes);
  EXPECT_EQ(stats.live, 5u);
  EXPECT_EQ(stats.unreachable, 5u);

  const core::ResultTable warm = run_with(st);
  EXPECT_EQ(computed.load(), 10) << "prune must not cost live cells";
  EXPECT_EQ(warm.computed_cells(), 0u);
  EXPECT_EQ(warm.to_csv(), cold.to_csv());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold.at(i).seconds, warm.at(i).seconds);
    EXPECT_EQ(cold.at(i).provenance.host, warm.at(i).provenance.host);
    EXPECT_EQ(cold.at(i).provenance.unix_time,
              warm.at(i).provenance.unix_time);
  }
}

}  // namespace
}  // namespace falvolt::store
