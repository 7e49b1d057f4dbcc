#pragma once
// Indexed append-only segment files: the packed record layout produced
// by `sweep_merge --compact` (compact.h) and read back through the
// SegmentStore backend. A segment replaces thousands of tiny loose
// `.rec` files with one file per compaction run:
//
//   <root>/segments/<digest12>.seg
//
//   ┌───────────────────────────────────────────────┐
//   │ record frames, concatenated verbatim           │  (record_frame.h
//   │   (identical bytes to the loose .rec files)    │   format)
//   ├───────────────────────────────────────────────┤
//   │ index: entry_count ×                           │
//   │   [raw 32-byte fingerprint | offset u64 |      │  sorted by
//   │    length u64]                                 │  fingerprint
//   ├───────────────────────────────────────────────┤
//   │ footer (56 bytes):                             │
//   │   magic u32 | epoch u32 | entry_count u64 |    │
//   │   index_offset u64 | SHA-256 of the index      │
//   └───────────────────────────────────────────────┘
//
// The name digest is the SHA-256 of the sorted fingerprint list, so the
// same record set compacts to the same file name everywhere (a re-run
// of an interrupted compaction converges instead of accumulating).
// Integers are little-endian (record_frame.h helpers). The footer and
// index are validated on open — a damaged index makes the whole segment
// read as empty (every entry degrades to recompute-on-miss) — and every
// get() still re-validates the individual record frame, so a bit flip
// in one record never poisons its neighbors. Segments are immutable
// after publication; compaction writes new ones and GC deletes fully
// dead ones whole.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "store/store_api.h"

namespace falvolt::store {

constexpr std::uint32_t kSegmentMagic = 0x47535646;  // "FVSG"

/// Footer size: magic u32 + epoch u32 + entry_count u64 +
/// index_offset u64 + SHA-256 of the index (32 bytes).
constexpr std::size_t kSegmentFooterBytes =
    sizeof(std::uint32_t) * 2 + sizeof(std::uint64_t) * 2 + 32;

/// Bytes per index entry: raw 32-byte fingerprint + offset + length.
constexpr std::size_t kSegmentIndexEntryBytes = 32 + 8 + 8;

/// One segment file's inventory, as stats and GC see it.
struct SegmentInfo {
  std::string path;
  bool readable = false;  ///< footer + index validated (false ⇒ all miss)
  std::uint64_t file_bytes = 0;    ///< size of the .seg file on disk
  std::uint64_t record_bytes = 0;  ///< framed record bytes covered by index
  /// Indexed fingerprints with their framed-record extents, sorted.
  std::vector<std::pair<std::string, std::uint64_t>> entries;  // fp, length
};

/// Inventory every `.seg` file under `<root>/segments` (sorted paths).
/// Unreadable segments appear with readable=false and no entries.
std::vector<SegmentInfo> list_segments(const std::string& root);

/// Pack `records` — (fingerprint, raw payload) pairs — into one segment
/// under `<root>/segments`, staged in `<root>/tmp` and durably published
/// (fsync + rename + directory fsync). Returns the final path. Throws
/// on I/O failure or malformed fingerprints; `records` must be non-empty.
std::string write_segment(
    const std::string& root,
    const std::vector<std::pair<std::string, std::string>>& records);

/// Read-only StoreApi view of every valid segment under one store root.
/// Layered under the loose-object dir by open_store(), so loose records
/// shadow segmented ones and compaction can delete the loose copy only
/// after its segment is durable. Manifests live in the loose store;
/// this backend has none.
class SegmentStore : public StoreApi {
 public:
  /// Indexes `<root>/segments` at construction (missing dir ⇒ empty
  /// store). Damaged segments are skipped — their records read as
  /// misses, never as errors.
  explicit SegmentStore(std::string root);

  std::string describe() const override;
  bool contains(const std::string& fingerprint) const override;
  std::optional<std::string> get(
      const std::string& fingerprint) const override;
  void put(const std::string& fingerprint,
           const std::string& payload) override;
  std::vector<std::string> fingerprints() const override;
  void put_manifest(const Manifest& m) override;
  std::vector<Manifest> manifests(const std::string& bench) const override;

  std::size_t segment_count() const { return segment_files_; }

 private:
  struct Location {
    std::string path;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
  };

  std::string root_;
  std::size_t segment_files_ = 0;
  std::map<std::string, Location> index_;
};

}  // namespace falvolt::store
