#pragma once
// Experiment harness shared by the figure benches and examples: builds a
// dataset + matching paper architecture, trains the baseline model, and
// caches the trained weights on disk so the whole bench suite pays the
// baseline-training cost only once per dataset.

#include <string>

#include "data/dataset.h"
#include "snn/model_zoo.h"
#include "snn/network.h"

namespace falvolt::core {

/// Which of the paper's three workloads to build.
enum class DatasetKind { kMnist, kNMnist, kDvsGesture };

const char* dataset_name(DatasetKind kind);

/// A ready-to-experiment workload: data, trained baseline network, and
/// the baseline accuracy prior to any fault injection.
struct Workload {
  DatasetKind kind;
  data::DatasetSplit data;
  snn::Network net;
  double baseline_accuracy = 0.0;
  int baseline_epochs = 0;
};

/// Sentinel for WorkloadOptions::cache_dir meaning "not set explicitly":
/// resolve via $FALVOLT_CACHE_DIR, else "falvolt_cache" in the CWD.
inline constexpr const char* kDefaultCacheDir = "__default__";

/// Scaling knobs (FALVOLT_FAST shrinks everything ~2-4x).
struct WorkloadOptions {
  bool fast = false;
  std::uint64_t seed = 7;
  /// Directory for cached baseline weights. The kDefaultCacheDir sentinel
  /// defers to $FALVOLT_CACHE_DIR (else "falvolt_cache"); an explicit
  /// empty string disables caching entirely.
  std::string cache_dir = kDefaultCacheDir;
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

/// Resolve the effective cache directory from `opts` (see cache_dir);
/// returns an empty string when caching is disabled.
std::string resolve_cache_dir(const WorkloadOptions& opts);

/// Canonical identity of a prepared workload: the dataset plus every
/// WorkloadOptions field that changes the data or the trained baseline
/// (fast scaling, seed). Execution knobs (threads, sweep_parallel,
/// cache location) are deliberately absent — they never change results.
/// This string is one of the fields a scenario's store fingerprint
/// hashes, so editing what it covers invalidates affected cache entries.
std::string workload_id(DatasetKind kind, const WorkloadOptions& opts);

/// Path of the cached baseline-weights file inside `cache_dir`.
std::string baseline_cache_file(const std::string& cache_dir,
                                DatasetKind kind, bool fast,
                                std::uint64_t seed);

/// Build the dataset, construct the paper architecture, and train (or
/// load) the baseline model.
Workload prepare_workload(DatasetKind kind, const WorkloadOptions& opts = {});

/// Construct the (untrained) paper architecture for `kind` on `train`
/// with deterministic initialization. Restoring a snapshot taken from a
/// prepare_workload() network onto this yields an independent clone of
/// the trained baseline — the per-scenario copy SweepRunner hands out.
snn::Network build_network(DatasetKind kind, const data::Dataset& train,
                           std::uint64_t seed);

/// Default number of retraining epochs used by the mitigation figures
/// for this workload (DVS needs more, as in the paper).
int default_retrain_epochs(DatasetKind kind, bool fast);

/// Serialize all network parameters to a flat binary file.
void save_params(snn::Network& net, const std::string& path);

/// Load parameters saved by save_params. Returns false — meaning "no
/// usable cache, retrain" — if the file is missing, has a bad header, or
/// is corrupt/truncated (every length field is validated against the
/// remaining file bytes before it is trusted). The load is atomic: on
/// any failure the network's parameters are left untouched, so a
/// subsequent retrain starts from the pristine initialization. Throws
/// only when a structurally valid file disagrees with the network's
/// parameter inventory (that is a caller bug, not cache rot).
bool load_params(snn::Network& net, const std::string& path);

}  // namespace falvolt::core
