#pragma once
// Functional (bit-accurate, order-accurate) model of GEMM on the faulty
// systolic array.
//
// For one output element C[i][j], the partial sum traverses the PE column
// j mod cols once per K-tile, visiting logical positions kk = 0 ..
// padded_k-1 in order; at each position the PE accumulates (spike-gated
// add of the pre-stored weight) and its stuck accumulator bits corrupt
// the outgoing value. This engine reproduces that traversal exactly —
// including corruption by idle padding rows and saturation per step — and
// is tested bit-identical against the register-level cycle simulator.
//
// The per-layer plan quantizes the weights and precomputes the fault-event
// schedule once per physical PE column (output columns folding onto the
// same PE column share it). Output rows are independent, so `run` splits
// them across the compute thread pool; each row is evaluated exactly as in
// a serial run, keeping the result bit-identical for any thread count.
//
// Hot path: the serial reference walks every (row, column, position) with
// a saturating add per step. The plan additionally carries a packed
// column-contiguous copy of the quantized weights and per-column prefix
// sums of |qweight| — an *overflow headroom proof*. When a traversal
// segment provably cannot saturate (sum of absolute contributions, plus
// the magnitude of the incoming partial sum, stays within the format's
// raw bounds), the saturating add chain is replaced by plain int32 adds,
// vectorized across groups of 8 output columns (compute/simd.h; AVX2 with
// a bit-identical scalar fallback). Segments that might saturate, rows
// with real-valued (non-binary-spike) activations, and builds with
// FALVOLT_FORCE_SCALAR=1 take the exact serial reference loop, so the
// fast path is always byte-for-byte checkable against it.
//
// Fault handling modes:
//   kCorrupt — stuck bits corrupt the psum (the unmitigated chip);
//   kBypass  — faulty PEs are bypassed by the Fig. 3b mux: their weight
//              contribution is dropped and no corruption occurs (the
//              hardware side of FaP/FalVolt).

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault_map.h"
#include "snn/layer.h"
#include "systolic/mapping.h"

namespace falvolt::systolic {

class SystolicGemmEngine final : public snn::GemmEngine {
 public:
  enum class FaultHandling { kCorrupt, kBypass };

  /// `map` may be nullptr (a golden chip: quantization effects only).
  /// The map, when given, must match the array dimensions.
  SystolicGemmEngine(const ArrayConfig& cfg, const fault::FaultMap* map,
                     FaultHandling handling = FaultHandling::kCorrupt);

  void run(const float* a, const float* w, float* c, int m, int k, int n,
           const std::string& layer_tag) override;

  const ArrayConfig& config() const { return cfg_; }
  FaultHandling handling() const { return handling_; }

  /// Worker threads for run(): 0 (default) uses the global pool size,
  /// 1 forces serial evaluation. Output is identical either way.
  void set_threads(int threads) { threads_ = threads; }
  int threads() const { return threads_; }

  /// Force the exact serial reference loop, disabling the vectorized
  /// saturation-free fast path (tests diff the two byte-for-byte).
  /// Defaults to the FALVOLT_FORCE_SCALAR environment variable.
  void set_force_scalar(bool force) { force_scalar_ = force; }
  bool force_scalar() const { return force_scalar_; }

  /// Total accumulate steps executed since construction (bench
  /// telemetry). Identical across the fast and reference paths.
  std::uint64_t accumulate_steps() const {
    return steps_.load(std::memory_order_relaxed);
  }

 private:
  struct FaultEvent {
    int pos = 0;  // traversal position in [0, padded_k)
    fx::StuckBits bits;
  };
  struct LayerPlan {
    std::vector<std::int32_t> qweights;  // [k x n], bypassed weights zeroed
    // Packed column-contiguous copy of qweights ([n x k], column j at
    // offset j*k): the per-column scalar fast path walks one column
    // sequentially instead of striding by n.
    std::vector<std::int32_t> qweights_cols;
    // Overflow-headroom proof: per column j, prefix sums of |qweight|
    // down the column ([n x (k+1)], prefix[j*(k+1) + t] = sum of the
    // first t entries). A traversal segment [lo, hi) of column j sums to
    // at most prefix[hi'] - prefix[lo] in magnitude (hi' = min(hi, k)).
    std::vector<std::int64_t> col_abs_prefix;
    // Per output column: 1 when the whole column is fast-path eligible —
    // no fault events on its PE column and the full-column headroom fits
    // the format's raw bounds.
    std::vector<std::uint8_t> col_fast;
    // Fault-event schedule per *physical* PE column; output column j uses
    // entry j mod cols. Sized min(n, cols) — the PE columns actually hit.
    std::vector<std::vector<FaultEvent>> pe_column_events;
    int k = 0;
    int n = 0;
    int padded_k = 0;
    const float* weight_ptr = nullptr;   // last seen buffer (diagnostic)
    std::uint64_t weight_hash = 0;       // content identity of the weights
  };

  const LayerPlan& plan_for(const std::string& tag, const float* w, int k,
                            int n);
  void run_rows(const LayerPlan& plan, const float* a, float* c, int i0,
                int i1, int n);
  /// The exact serial reference for one output row (all columns):
  /// per-step saturating accumulate + fault events, any activation kind.
  void reference_row(const LayerPlan& plan, const float* arow, float* crow,
                     int n, std::uint64_t& local_steps) const;
  /// One column of a binary-spike row via the event/segment walk, with
  /// per-segment runtime headroom checks. `nz` holds the row's nonzero
  /// positions (all exactly 1.0f), sorted ascending.
  void exact_binary_column(const LayerPlan& plan, const std::vector<int>& nz,
                           int j, float* crow,
                           std::uint64_t& local_steps) const;

  ArrayConfig cfg_;
  const fault::FaultMap* map_;
  FaultHandling handling_;
  int threads_ = 0;
  bool force_scalar_ = false;
  std::unordered_map<std::string, LayerPlan> plans_;
  std::atomic<std::uint64_t> steps_{0};
};

}  // namespace falvolt::systolic
