#pragma once
// LocalDirStore: the loose-object StoreApi backend — a persistent,
// content-addressed directory of one record file per fingerprint.
//
// Layout (one directory tree per store):
//
//   <root>/objects/<fp[0:2]>/<fp>.rec   one record per fingerprint
//   <root>/manifests/<bench>-<grid>.manifest   grid manifests (manifest.h)
//   <root>/segments/<digest>.seg        indexed segment files (segment.h,
//                                       written by compaction — read via
//                                       a SegmentStore layered below)
//   <root>/tmp/                         staging area for atomic writes
//
// Records are framed per record_frame.h. Writes stage into tmp/ and
// publish with fsync + atomic rename + directory fsync, so concurrent
// writers (several sweep shards pointed at one directory) and crashes
// can never leave a half-written record visible under its final name,
// and a published record survives power loss. Reads validate the whole
// frame before returning: a truncated, foreign-epoch, or bit-flipped
// record reads as "miss" (recompute), never as a throw — the same
// degrade-to-recompute contract as core::load_params.

#include <optional>
#include <string>
#include <vector>

#include "store/store_api.h"

namespace falvolt::store {

/// True when `root` already holds a store: its objects/ directory
/// exists, or it is segments-only (fully compacted). LocalDirStore's
/// constructor CREATES missing directories by default — the right
/// behavior for a destination, but read-side callers (merge sources, GC
/// targets, substituters) must check this first so a typo'd path reads
/// as an error instead of silently materializing an empty store.
bool store_exists(const std::string& root);

/// RAII "a sweep is still publishing into this store" marker:
/// construction drops <root>/tmp/inprogress.<pid>, destruction removes
/// it. The sweep engine (and the fleet daemon) hold one for as long as
/// owned cells remain uncomputed, so `sweep_merge` can refuse to emit a
/// partial table from a store a live fleet is mid-publish into. Purely
/// advisory and best-effort: an unwritable marker never fails the
/// sweep, and a SIGKILLed run leaves only a dead-pid marker that
/// live_inprogress_pids() garbage-collects.
class InProgressGuard {
 public:
  explicit InProgressGuard(const std::string& root);
  ~InProgressGuard();
  InProgressGuard(const InProgressGuard&) = delete;
  InProgressGuard& operator=(const InProgressGuard&) = delete;

 private:
  std::string path_;
};

/// Pids of LIVE processes (other than the caller) holding an in-progress
/// marker under `root` — i.e. fleets still publishing into this store.
/// Markers whose pid no longer exists are unlinked as a side effect
/// (crash residue), so a SIGKILLed fleet never wedges future merges.
std::vector<int> live_inprogress_pids(const std::string& root);

class LocalDirStore : public StoreApi {
 public:
  /// Opens the store rooted at `root`. With create=true (the default)
  /// missing directories are created and the store is writable; throws
  /// if they cannot be. With create=false nothing is materialized and
  /// the store is read-only (put/put_manifest throw std::logic_error) —
  /// the mode substituter layers open with.
  explicit LocalDirStore(std::string root, bool create = true);

  const std::string& root() const { return root_; }

  /// Final path of a record (whether or not it exists yet).
  std::string object_path(const std::string& fingerprint) const;

  std::string describe() const override;
  bool contains(const std::string& fingerprint) const override;
  void put(const std::string& fingerprint,
           const std::string& payload) override;
  std::optional<std::string> get(
      const std::string& fingerprint) const override;
  std::vector<std::string> fingerprints() const override;
  void put_manifest(const Manifest& m) override;
  std::vector<Manifest> manifests(const std::string& bench) const override;

 private:
  std::string root_;
  bool writable_;
};

}  // namespace falvolt::store
