// Indexed segment files (store/segment.h), compaction
// (store/compact.h), and the layered read chain (store/store_api.h):
// round-trip + convergent naming, per-record vs whole-segment damage
// containment, stale-epoch degradation, compaction crash-safety and
// concurrent-writer safety, substituter precedence, and the segment
// arms of GC and stats.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "store/compact.h"
#include "store/fingerprint.h"
#include "store/gc.h"
#include "store/hash.h"
#include "store/manifest.h"
#include "store/record_frame.h"
#include "store/result_store.h"
#include "store/segment.h"
#include "store/stats.h"
#include "store/store_api.h"

namespace fs = std::filesystem;

namespace falvolt::store {
namespace {

std::string fp_of(const std::string& seed) { return sha256_hex(seed); }

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(offset));
  const char c = static_cast<char>(f.get());
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0x5a));
}

class SegmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "falvolt_segment_test";
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  // (fingerprint, payload) pairs with payloads big enough that a flip
  // inside one record's payload region is unambiguous.
  static std::vector<std::pair<std::string, std::string>> records(int n) {
    std::vector<std::pair<std::string, std::string>> recs;
    for (int i = 0; i < n; ++i) {
      recs.emplace_back(fp_of("rec" + std::to_string(i)),
                        "payload " + std::to_string(i) +
                            std::string(200, static_cast<char>('a' + i)));
    }
    return recs;
  }

  std::string root_;
};

TEST_F(SegmentTest, RoundTripThroughSegmentStore) {
  fs::create_directories(root_);
  const auto recs = records(5);
  const std::string path = write_segment(root_, recs);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_TRUE(store_exists(root_)) << "segments alone make a store";

  const SegmentStore seg(root_);
  EXPECT_EQ(seg.segment_count(), 1u);
  EXPECT_EQ(seg.fingerprints().size(), recs.size());
  for (const auto& [fp, payload] : recs) {
    EXPECT_TRUE(seg.contains(fp));
    EXPECT_EQ(seg.get(fp), payload);
  }
  EXPECT_EQ(seg.get(fp_of("absent")), std::nullopt);
  EXPECT_THROW(const_cast<SegmentStore&>(seg).put(fp_of("x"), "y"),
               std::logic_error);
}

TEST_F(SegmentTest, SameRecordSetConvergesToSameFileName) {
  fs::create_directories(root_);
  auto recs = records(4);
  const std::string first = write_segment(root_, recs);
  // Insertion order must not matter — the name hashes the SORTED set.
  std::reverse(recs.begin(), recs.end());
  const std::string second = write_segment(root_, recs);
  EXPECT_EQ(first, second);
  EXPECT_EQ(list_segments(root_).size(), 1u);
  // A different set gets a different file.
  recs.pop_back();
  EXPECT_NE(write_segment(root_, recs), first);
  EXPECT_EQ(list_segments(root_).size(), 2u);
}

TEST_F(SegmentTest, CorruptIndexDegradesWholeSegmentToMiss) {
  fs::create_directories(root_);
  const auto recs = records(3);
  const std::string path = write_segment(root_, recs);
  // Flip one byte inside the index region (just before the footer).
  flip_byte(path, fs::file_size(path) - kSegmentFooterBytes - 1);

  const std::vector<SegmentInfo> infos = list_segments(root_);
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_FALSE(infos[0].readable);
  EXPECT_TRUE(infos[0].entries.empty());

  const SegmentStore seg(root_);
  EXPECT_EQ(seg.segment_count(), 0u) << "damaged segment is skipped whole";
  for (const auto& [fp, payload] : recs) {
    EXPECT_EQ(seg.get(fp), std::nullopt) << "degrades to recompute-on-miss";
  }
}

TEST_F(SegmentTest, BitFlipInOneRecordMissesOnlyThatRecord) {
  fs::create_directories(root_);
  auto recs = records(3);
  std::sort(recs.begin(), recs.end());  // file order = sorted-by-fp order
  const std::string path = write_segment(root_, recs);
  // Flip a payload byte of the FIRST record (frames start at offset 0).
  flip_byte(path, kRecordHeaderBytes + 3);

  const SegmentStore seg(root_);
  EXPECT_EQ(seg.segment_count(), 1u) << "index is intact";
  EXPECT_EQ(seg.get(recs[0].first), std::nullopt);
  EXPECT_EQ(seg.get(recs[1].first), recs[1].second);
  EXPECT_EQ(seg.get(recs[2].first), recs[2].second);
}

TEST_F(SegmentTest, StaleEpochSegmentReadsEmptyAndGcDeletesIt) {
  LocalDirStore rs(root_);
  const auto recs = records(2);
  const std::string path = write_segment(root_, recs);
  // Patch the footer's epoch field (offset 4 in the footer) to a future
  // format — the whole segment must read as empty, exactly like a loose
  // record from a foreign epoch.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(path) -
                                        kSegmentFooterBytes + 4));
    std::uint8_t buf[4];
    encode_le(buf, kStoreFormatEpoch + 1, 4);
    f.write(reinterpret_cast<const char*>(buf), 4);
  }
  const SegmentStore seg(root_);
  EXPECT_EQ(seg.segment_count(), 0u);
  EXPECT_EQ(seg.get(recs[0].first), std::nullopt)
      << "stale-epoch segments degrade to recompute";

  // GC treats an unreadable segment as fully dead and deletes the file.
  Manifest m;
  m.bench = "stale_seg";
  m.entries.emplace_back(recs[0].first, "cell");
  write_manifest(rs, m);
  const GcStats stats = prune_store(rs);
  EXPECT_EQ(stats.segments_deleted, 1u);
  EXPECT_FALSE(fs::exists(path));
}

TEST_F(SegmentTest, CompactionPacksLooseAndReadsKeepWorking) {
  LocalDirStore rs(root_);
  const auto recs = records(6);
  for (const auto& [fp, payload] : recs) rs.put(fp, payload);

  const CompactStats stats = compact_store(rs);
  EXPECT_EQ(stats.packed, 6);
  EXPECT_EQ(stats.already_segmented, 0);
  EXPECT_EQ(stats.corrupt, 0);
  EXPECT_EQ(stats.segments_written, 1);
  EXPECT_GT(stats.packed_bytes, 0u);

  // Loose copies are gone; the layered chain still serves every record.
  EXPECT_TRUE(rs.fingerprints().empty());
  const auto chain = open_store(root_);
  for (const auto& [fp, payload] : recs) {
    EXPECT_EQ(chain->get(fp), payload);
  }
  // A second run is a no-op — nothing loose remains.
  const CompactStats again = compact_store(rs);
  EXPECT_EQ(again.packed, 0);
  EXPECT_EQ(again.segments_written, 0);
  EXPECT_EQ(list_segments(root_).size(), 1u);
}

TEST_F(SegmentTest, InterruptedCompactionStateConvergesOnRerun) {
  LocalDirStore rs(root_);
  const auto recs = records(4);
  for (const auto& [fp, payload] : recs) rs.put(fp, payload);
  // Simulate a crash between "segment published" and "loose deleted":
  // the segment exists AND every loose copy is still there.
  std::vector<std::pair<std::string, std::string>> framed = recs;
  write_segment(root_, framed);
  ASSERT_EQ(rs.fingerprints().size(), 4u);
  const auto chain_mid = open_store(root_);
  for (const auto& [fp, payload] : recs) {
    EXPECT_EQ(chain_mid->get(fp), payload) << "duplicates are harmless";
  }

  // Re-running compaction converges: duplicates are recognized, their
  // loose copies deleted, and no second segment is written.
  const CompactStats stats = compact_store(rs);
  EXPECT_EQ(stats.packed, 0);
  EXPECT_EQ(stats.already_segmented, 4);
  EXPECT_EQ(stats.segments_written, 0);
  EXPECT_TRUE(rs.fingerprints().empty());
  EXPECT_EQ(list_segments(root_).size(), 1u);
}

TEST_F(SegmentTest, CorruptLooseRecordIsLeftForGcNotPacked) {
  LocalDirStore rs(root_);
  const auto recs = records(3);
  for (const auto& [fp, payload] : recs) rs.put(fp, payload);
  fs::resize_file(rs.object_path(recs[1].first), 20);

  const CompactStats stats = compact_store(rs);
  EXPECT_EQ(stats.packed, 2);
  EXPECT_EQ(stats.corrupt, 1);
  // The corrupt file stays in place (GC's job), the valid ones moved.
  EXPECT_TRUE(fs::exists(rs.object_path(recs[1].first)));
  const SegmentStore seg(root_);
  EXPECT_EQ(seg.get(recs[0].first), recs[0].second);
  EXPECT_FALSE(seg.contains(recs[1].first));
}

TEST_F(SegmentTest, WriterDuringCompactionLosesNothing) {
  LocalDirStore rs(root_);
  const auto initial = records(8);
  for (const auto& [fp, payload] : initial) rs.put(fp, payload);

  // A concurrent sweep keeps publishing cells while compaction runs.
  // Compaction packs a snapshot and deletes only the exact files it
  // packed, so late arrivals simply stay loose until the next run.
  std::vector<std::pair<std::string, std::string>> late;
  for (int i = 0; i < 40; ++i) {
    late.emplace_back(fp_of("late" + std::to_string(i)),
                      "late payload " + std::to_string(i));
  }
  std::thread writer([&rs, &late] {
    for (const auto& [fp, payload] : late) rs.put(fp, payload);
  });
  const CompactStats stats = compact_store(rs);
  writer.join();
  EXPECT_GE(stats.packed, 8) << "at least the pre-existing records";

  // Nothing is lost: every record reads back through the chain.
  const auto chain = open_store(root_);
  for (const auto& [fp, payload] : initial) EXPECT_EQ(chain->get(fp), payload);
  for (const auto& [fp, payload] : late) EXPECT_EQ(chain->get(fp), payload);

  // The next quiescent compaction sweeps up whatever stayed loose.
  const CompactStats rest = compact_store(rs);
  EXPECT_EQ(stats.packed + rest.packed, 48);
  EXPECT_TRUE(rs.fingerprints().empty());
  const auto reopened = open_store(root_);
  for (const auto& [fp, payload] : late) {
    EXPECT_EQ(reopened->get(fp), payload);
  }
}

TEST_F(SegmentTest, LooseShadowsSegmentInTheReadChain) {
  LocalDirStore rs(root_);
  const std::string fp = fp_of("shadow");
  write_segment(root_, {{fp, "segmented"}});
  rs.put(fp, "loose");
  const auto chain = open_store(root_);
  EXPECT_EQ(chain->get(fp), "loose");
  EXPECT_EQ(chain->locate(fp), 0);
  EXPECT_EQ(chain->fingerprints().size(), 1u) << "union is deduplicated";
}

TEST_F(SegmentTest, SubstituterHitVersusLocalMissPrecedence) {
  // A substituter store with one computed cell...
  const std::string sub_dir = root_ + "_sub";
  {
    LocalDirStore sub(sub_dir);
    sub.put(fp_of("remote"), "computed elsewhere");
    compact_store(sub);  // serve it from a segment, like a warm cache
  }
  // ...consulted behind an empty local store.
  const auto chain = open_store(root_, {sub_dir});
  ASSERT_EQ(chain->layer_count(), 4u);  // loose+seg local, loose+seg sub
  EXPECT_EQ(chain->get(fp_of("remote")), "computed elsewhere");
  EXPECT_GE(chain->locate(fp_of("remote")), 2) << "hit came from the sub";
  EXPECT_EQ(chain->locate(fp_of("nowhere")), -1);

  // A local write shadows the substituter from then on.
  chain->put(fp_of("remote"), "recomputed locally");
  EXPECT_EQ(chain->locate(fp_of("remote")), 0);
  EXPECT_EQ(chain->get(fp_of("remote")), "recomputed locally");
  // The substituter itself was never written to.
  const LocalDirStore sub(sub_dir, /*create=*/false);
  EXPECT_EQ(sub.get(fp_of("remote")), std::nullopt)
      << "substituters are read-only; the record lives in its segment";
  fs::remove_all(sub_dir);
}

TEST_F(SegmentTest, OpenStoreRejectsMissingSubstituter) {
  EXPECT_THROW(open_store(root_, {root_ + "_typo"}), std::invalid_argument);
  // The substituters are checked before the root layer may create it.
  EXPECT_FALSE(fs::exists(root_));
}

TEST_F(SegmentTest, GcKeepsLiveSegmentsDeletesDeadOnesAndCountsDeadBytes) {
  LocalDirStore rs(root_);
  const auto live = records(3);
  for (const auto& [fp, payload] : live) rs.put(fp, payload);
  compact_store(rs);
  // A second, fully-unreferenced segment.
  const std::string dead_path =
      write_segment(root_, {{fp_of("dead1"), "d1"}, {fp_of("dead2"), "d2"}});

  Manifest m;
  m.bench = "seg_gc";
  m.entries.emplace_back(live[0].first, "c0");
  m.entries.emplace_back(live[1].first, "c1");
  // live[2] is NOT referenced: a dead record riding in a live segment.
  write_manifest(rs, m);

  const GcStats stats = prune_store(rs);
  EXPECT_EQ(stats.segments_kept, 1u);
  EXPECT_EQ(stats.segments_deleted, 1u);
  EXPECT_FALSE(fs::exists(dead_path));
  EXPECT_EQ(stats.segment_live, 2u);
  EXPECT_EQ(stats.segment_dead, 1u);
  EXPECT_GT(stats.segment_dead_bytes, 0u);

  // The dead co-resident is only counted, never deleted: immutable
  // segments are rewritten by compaction, not GC.
  const SegmentStore seg(root_);
  EXPECT_EQ(seg.get(live[2].first), live[2].second);
}

TEST_F(SegmentTest, StatsReportLooseSegmentSplit) {
  LocalDirStore rs(root_);
  const auto recs = records(4);
  for (const auto& [fp, payload] : recs) rs.put(fp, payload);
  compact_store(rs);
  rs.put(fp_of("still_loose"), "loose one");

  const StoreStats stats =
      collect_store_stats(rs, [](const std::string&) {
        return std::optional<std::uint32_t>{};
      });
  EXPECT_EQ(stats.total_records, 5u);
  EXPECT_EQ(stats.loose_records, 1u);
  EXPECT_EQ(stats.segment_files, 1u);
  EXPECT_EQ(stats.segment_records, 4u);
  EXPECT_GT(stats.segment_file_bytes, 0u);
  EXPECT_EQ(stats.segment_dead_bytes, 0u);
  EXPECT_NE(stats.to_text().find("segments:"), std::string::npos);
  EXPECT_NE(stats.to_text().find("loose:"), std::string::npos);

  // A shadowing loose copy makes the segment's entry dead bytes.
  rs.put(recs[0].first, recs[0].second);
  const StoreStats shadowed =
      collect_store_stats(rs, [](const std::string&) {
        return std::optional<std::uint32_t>{};
      });
  EXPECT_EQ(shadowed.total_records, 5u) << "same addresses, one duplicated";
  EXPECT_GT(shadowed.segment_dead_bytes, 0u);
}

}  // namespace
}  // namespace falvolt::store
