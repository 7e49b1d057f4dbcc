#pragma once
// obs::metrics — process-wide named counters and scoped timers for the
// sweep engine, the store stack, and the compute kernels.
//
// Design constraints, in order:
//
//  1. SCHEDULE-ONLY. Metrics observe execution; they must never feed
//     back into it. Nothing in this module may influence a cell value,
//     a fingerprint, or a figure table — counters are excluded from the
//     store codec and from ResultTable CSV/JSON by construction, and the
//     byte-identity tests (test_obs.cpp) assert tables match with
//     telemetry on or off.
//  2. NEAR-FREE ON HOT PATHS. Counter::add is one relaxed atomic add to
//     a per-thread cache-line-private shard — no locks, no branches on a
//     sink, safe from any thread. Hot call sites cache the Counter&
//     once (function-local static), so the registry's name lookup is
//     paid once per process, not per increment.
//  3. MERGED AT REPORT TIME. snapshot_metrics() sums the shards under
//     the registry lock and returns a sorted, stable sample list; the
//     shared JSON encoder below is what the fleet summary's "metrics"
//     block, --metrics-json dumps, and sweep_merge --stats-json all
//     emit, so every consumer reads one schema.
//
// Counters are process-cumulative: a driver that wants per-run numbers
// snapshots before and after.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/timer.h"

namespace falvolt::obs {

/// Monotonic counter, sharded per thread. Obtain through counter(name)
/// — instances live for the process lifetime, so cached references
/// never dangle.
class Counter {
 public:
  /// Relaxed add to this thread's shard. Safe from any thread, never
  /// blocks, never throws.
  void add(std::uint64_t n = 1) noexcept;

  /// Sum over all shards (relaxed loads; exact once writers quiesce,
  /// monotonically-lagging while they run).
  std::uint64_t value() const noexcept;

  /// Zero every shard (tests and per-run scoping only — racing writers
  /// may survive a concurrent reset).
  void reset() noexcept;

  static constexpr int kShards = 16;

 private:
  friend Counter& counter(const std::string& name);
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  // alignas(64) gives each shard its own cache line so concurrent
  // writers never false-share.
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// The registry: one Counter per name, created on first use and
/// immortal thereafter. Lookup takes a mutex — cache the reference at
/// hot call sites:
///   static obs::Counter& hits = obs::counter("store.local.hit");
Counter& counter(const std::string& name);

/// RAII timer accumulating elapsed wall time into "<name>.ns" and an
/// invocation count into "<name>.count". Construct with pre-resolved
/// counters on hot paths.
class ScopedTimer {
 public:
  ScopedTimer(Counter& ns, Counter& count) : ns_(ns), count_(count) {}
  ~ScopedTimer() {
    ns_.add(static_cast<std::uint64_t>(timer_.seconds() * 1e9));
    count_.add(1);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Counter& ns_;
  Counter& count_;
  common::Timer timer_;
};

/// One merged sample: a counter's shard sum.
struct MetricSample {
  std::string name;
  std::uint64_t value = 0;
};

/// Every registered counter, merged and sorted by name (stable across
/// runs — map-ordered, so diffs line up).
std::vector<MetricSample> snapshot_metrics();

/// Encode samples as one JSON object, `indent` spaces deep:
///   {
///     "store.local.hit": 42,
///     ...
///   }
/// The single encoder behind the fleet summary's "metrics" block,
/// --metrics-json dumps, and sweep_merge --stats-json.
std::string encode_metrics_json(const std::vector<MetricSample>& samples,
                                int indent = 0);

/// Dump snapshot_metrics() to `path` as {"metrics": {...}} (throws on
/// I/O failure — an unwritable dump path is a usage error, not data
/// loss).
void write_metrics_json(const std::string& path);

}  // namespace falvolt::obs
