#pragma once
// StoreApi — the abstract interface every result-store consumer
// programs against (the Nix store-api.hh/substituter split is the
// exemplar). A store maps content-address fingerprints to validated
// record payloads and holds grid manifests; HOW those records live on
// (or off) disk is the backend's business:
//
//   LocalDirStore   loose objects/<fp[0:2]>/<fp>.rec files + manifests
//                   (result_store.h) — the writable default.
//   SegmentStore    read-only view of indexed append-only segment files
//                   (segment.h) produced by `sweep_merge --compact`.
//   LayeredStore    ordered read-through chain: get() takes the first
//                   layer that has a valid record, put() writes to the
//                   front. This is both how a local root combines its
//                   loose objects with its segments AND how a worker
//                   substitutes cells computed elsewhere (--substituters:
//                   read-only stores consulted behind the local one).
//
// The contract every backend honors: get() validates the full record
// frame and returns nullopt on ANY damage (recompute, never throw);
// put() is atomic and durable (readers never see partial records, and
// a crash after put() returns cannot lose it); fingerprints() lists
// names without validating. A future remote/HTTP substituter implements
// this same interface — the sweep engine, merge tool, and fleet driver
// never learn the difference.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "store/manifest.h"

namespace falvolt::store {

class StoreApi {
 public:
  virtual ~StoreApi() = default;

  /// Human-readable identity for logs and errors, e.g. "dir:/x/store".
  virtual std::string describe() const = 0;

  /// True when a record file/entry exists under `fingerprint`
  /// (unvalidated — a corrupt record still "exists" until GC'd).
  virtual bool contains(const std::string& fingerprint) const = 0;

  /// Read and validate the record; nullopt means "no usable record"
  /// (missing, foreign epoch, truncated, bit-flipped...). Never throws
  /// on damage.
  virtual std::optional<std::string> get(
      const std::string& fingerprint) const = 0;

  /// Store `payload` under `fingerprint` (atomic + durable; an existing
  /// record is replaced). Throws on I/O errors, and std::logic_error on
  /// read-only backends (segments, substituter layers).
  virtual void put(const std::string& fingerprint,
                   const std::string& payload) = 0;

  /// Every fingerprint with a record in this store (names only,
  /// unvalidated), sorted and deduplicated.
  virtual std::vector<std::string> fingerprints() const = 0;

  /// Publish a grid manifest (atomic + durable). Throws like put().
  virtual void put_manifest(const Manifest& m) = 0;

  /// Every readable manifest, optionally filtered to one bench.
  virtual std::vector<Manifest> manifests(
      const std::string& bench = "") const = 0;
};

/// Ordered read-through chain over owned backends. Reads consult layers
/// front to back and return the first valid hit; writes (records and
/// manifests) always land in the front layer, which must be writable.
/// fingerprints()/manifests() union all layers (fingerprints deduped).
class LayeredStore : public StoreApi {
 public:
  /// `layers` must be non-empty; layers[0] is the write target.
  /// `substituter_start` is the index of the first layer that belongs
  /// to a substituter rather than the local root (hits from there feed
  /// the store.substituter.hit counter); open_store's root contributes
  /// two layers, loose objects and segments.
  explicit LayeredStore(std::vector<std::unique_ptr<StoreApi>> layers,
                        std::size_t substituter_start = 2);

  std::string describe() const override;
  bool contains(const std::string& fingerprint) const override;
  std::optional<std::string> get(
      const std::string& fingerprint) const override;
  void put(const std::string& fingerprint,
           const std::string& payload) override;
  std::vector<std::string> fingerprints() const override;
  void put_manifest(const Manifest& m) override;
  std::vector<Manifest> manifests(const std::string& bench) const override;

  /// Index of the first layer holding a valid record of `fingerprint`,
  /// or -1 — distinguishes a local hit from a substituter hit.
  int locate(const std::string& fingerprint) const;

  std::size_t layer_count() const { return layers_.size(); }
  const StoreApi& layer(std::size_t i) const { return *layers_.at(i); }

 private:
  std::vector<std::unique_ptr<StoreApi>> layers_;
  std::size_t substituter_start_;
  // Chain telemetry (obs/metrics.h), resolved once at construction so
  // the read path pays only relaxed adds: which layer POSITION served
  // each hit ("store.chain.layer<i>.hit" — open_store puts the local
  // root's layers first, substituter layers behind), whole-chain
  // misses, and the substituter-served subset. Registry entries are
  // immortal, so these pointers never dangle.
  std::vector<obs::Counter*> layer_hit_;
  obs::Counter* chain_miss_ = nullptr;
  obs::Counter* substituter_hit_ = nullptr;
};

struct MergeStats {
  int copied = 0;    ///< records imported from src
  int present = 0;   ///< already in dst (content-addressed skip)
  int corrupt = 0;   ///< records in src that failed validation
};

/// Union src's records into dst. Every candidate is re-validated before
/// import (a corrupt source record is skipped and counted, never
/// propagated); records dst already has are kept — with content
/// addressing both sides agree, so skip-if-present is harmless.
MergeStats merge_records(StoreApi& dst, const StoreApi& src);

/// Open the store rooted at directory `dir` — its loose objects
/// (front, the write target) over its indexed segments — with a
/// read-only chain per substituter directory layered behind it.
/// Creating the root's directories is the default (it is a sweep's
/// destination); with create=false nothing is materialized and the root
/// opens read-only. Substituter roots are never created and must
/// already hold a store (throws std::invalid_argument otherwise, before
/// the root is touched — a typo'd substituter must not silently read as
/// "everything misses", nor leave an empty root behind).
std::unique_ptr<LayeredStore> open_store(
    const std::string& dir,
    const std::vector<std::string>& substituters = {}, bool create = true);

}  // namespace falvolt::store
