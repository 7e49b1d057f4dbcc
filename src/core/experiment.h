#pragma once
// Experiment harness shared by the grids and examples: builds a dataset
// + matching paper architecture and trains the baseline model. Given a
// result store, the trained baseline is a record in it, addressed by
// the workload identity, so every run against that store (and every
// store that substitutes from it) pays the baseline-training cost once
// per dataset.

#include <string>

#include "data/dataset.h"
#include "snn/model_zoo.h"
#include "snn/network.h"

namespace falvolt::store {
class StoreApi;
}  // namespace falvolt::store

namespace falvolt::core {

/// Which of the paper's three workloads to build.
enum class DatasetKind { kMnist, kNMnist, kDvsGesture };

const char* dataset_name(DatasetKind kind);

/// A ready-to-experiment workload: data, baseline network, and the
/// baseline accuracy prior to any fault injection.
struct Workload {
  DatasetKind kind;
  data::DatasetSplit data;
  snn::Network net;
  double baseline_accuracy = 0.0;
  bool trained = false;  ///< trained by this call, not restored
};

/// Scaling knobs (FALVOLT_FAST shrinks everything ~2-4x).
struct WorkloadOptions {
  bool fast = false;
  std::uint64_t seed = 7;
  /// Worker threads for the compute backend (applied to the global pool
  /// before training): 0 keeps the current pool ($FALVOLT_THREADS or the
  /// hardware concurrency on first use).
  int threads = 0;
  /// Concurrent scenarios for core::SweepRunner: 1 runs the grid
  /// serially (GEMM-level parallelism stays fully available), N > 1 runs
  /// N scenarios at a time with their GEMMs inlined on the scenario
  /// worker (so scenario- and GEMM-level parallelism never oversubscribe
  /// the machine), and 0 picks the hardware concurrency.
  int sweep_parallel = 1;
};

/// Canonical identity of a prepared workload: the dataset plus every
/// WorkloadOptions field that changes the data or the trained baseline
/// (fast scaling, seed). Execution knobs (threads, sweep_parallel) are
/// deliberately absent — they never change results. This string is one
/// of the fields a scenario's store fingerprint hashes, so editing what
/// it covers invalidates affected cache entries.
std::string workload_id(DatasetKind kind, const WorkloadOptions& opts);

/// Store address of the trained baseline: SHA-256 over the store format
/// epoch, the record kind "baseline" and workload_id(kind, opts).
std::string baseline_fingerprint(DatasetKind kind,
                                 const WorkloadOptions& opts);

/// Bench of the one-entry manifest (key: the workload_id) that makes a
/// stored baseline a garbage-collection root.
inline constexpr const char* kBaselinesManifest = "baselines";

/// A baseline record's payload: every network parameter in order, each
/// as its name, its element count and its floats, little-endian.
std::string encode_baseline(snn::Network& net);

/// Restore `net`'s parameters from an encode_baseline() payload. False
/// (a miss: `net` untouched) when the payload is malformed or its
/// parameter inventory (count, names, sizes) does not match `net`.
bool decode_baseline(const std::string& payload, snn::Network& net);

/// A well-formed baseline payload of any network (store GC's check).
bool is_baseline_payload(const std::string& payload);

/// The dataset and the untrained paper architecture.
Workload build_workload(DatasetKind kind, const WorkloadOptions& opts);

/// build_workload() with its baseline restored from a valid record in
/// `rs`, else trained (a damaged or mismatched record is a miss) and,
/// given a store, published there with its kBaselinesManifest entry.
Workload prepare_workload(DatasetKind kind, const WorkloadOptions& opts = {},
                          store::StoreApi* rs = nullptr);

/// Construct the (untrained) paper architecture for `kind` on `train`
/// with deterministic initialization. Restoring a snapshot taken from a
/// prepare_workload() network onto this yields an independent clone of
/// the trained baseline — the per-scenario copy SweepRunner hands out.
snn::Network build_network(DatasetKind kind, const data::Dataset& train,
                           std::uint64_t seed);

/// Default number of retraining epochs used by the mitigation figures
/// for this workload (DVS needs more, as in the paper).
int default_retrain_epochs(DatasetKind kind, bool fast);

}  // namespace falvolt::core
