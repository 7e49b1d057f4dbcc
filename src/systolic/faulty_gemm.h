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
// The per-layer plan quantizes the weights once, zero-padded to a whole
// number of 8-column groups, and precomputes the fault-event schedule
// once per physical PE column (output columns folding onto the same PE
// column share it). Output rows are independent, so `run` splits them
// across the compute thread pool; each row is evaluated exactly as in a
// serial run, keeping the result bit-identical for any thread count.
//
// Hot path: the serial reference walks every (row, column, position)
// with a saturating add per step. The fast path scans each row once and
// then serves it 8 output columns at a time:
//   - an all-zero row copies the plan's zero-row output (the fault
//     events applied to an empty partial sum, computed at plan time by
//     the reference itself);
//   - a binary-spike row on a group with no fault events whose |qweight|
//     column sums fit the format's raw bounds (the overflow headroom
//     proof) takes plain int32 adds;
//   - every other row and group takes the exact 8-lane walk: the row's
//     nonzero positions merged with the group's fault events, a clamped
//     add at each nonzero, the stuck-bit AND/OR masks at each event
//     (identity on lanes without one). Real-valued (non-binary) entries
//     are quantized once per row and multiplied in the lanes.
// With AVX2 the lanes are int32 (compute/simd.h) when that is exact for
// the format — at most 31 bits for adds, at most 16 when real-valued
// entries multiply. Other formats, and every format in a build without
// AVX2, walk one lane at a time in FixedFormat's 64-bit arithmetic.
// FALVOLT_FORCE_SCALAR=1
// sends every row through the serial reference, so the fast path is
// always byte-for-byte checkable against it.
//
// A convolution (`conv`) builds no im2col matrix. Per sample it writes
// the zero-bordered copy and marks the padded pixels that are nonzero
// in any channel. A window with no marked pixel is an all-zero row;
// any other window is copied into one im2col row and served by the
// same per-row code as a `run` row. Outputs go straight to NCHW plus
// the bias: the bits and path counters of im2col + run + repack.
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
  /// The lowered convolution's bits and telemetry, read from each
  /// sample's zero-bordered copy (see the file comment). Samples split
  /// across the pool as run() splits rows.
  void conv(const float* x, int n, const tensor::ConvGeometry& g,
            const float* w, int cout, const float* bias, float* out,
            const std::string& layer_tag) override;

  const ArrayConfig& config() const { return cfg_; }
  FaultHandling handling() const { return handling_; }

  /// Worker threads for run(): 0 (default) uses the global pool size,
  /// 1 forces serial evaluation. Output is identical either way.
  void set_threads(int threads) { threads_ = threads; }
  int threads() const { return threads_; }

  /// Force the exact serial reference loop for every row, disabling the
  /// zero-row, vector and 8-lane paths (tests diff the two
  /// byte-for-byte).
  /// Defaults to the FALVOLT_FORCE_SCALAR environment variable.
  void set_force_scalar(bool force) { force_scalar_ = force; }
  bool force_scalar() const { return force_scalar_; }

  /// Total accumulate steps executed since construction (bench
  /// telemetry). Identical across the fast and reference paths.
  std::uint64_t accumulate_steps() const {
    return steps_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr int kLanes = 8;  // one column group

  struct FaultEvent {
    int pos = 0;  // traversal position in [0, padded_k)
    fx::StuckBits bits;
  };
  // One position of a column group's merged event schedule: lane l
  // corrupts its partial sum to sign_extend((acc & and_mask[l]) |
  // or_mask[l]). Lanes without an event here keep the identity masks
  // (-1, 0), exact because every partial sum is a canonical raw value.
  struct GroupEvent {
    int pos = 0;
    std::int32_t and_mask[kLanes] = {-1, -1, -1, -1, -1, -1, -1, -1};
    std::int32_t or_mask[kLanes] = {};
  };
  struct LayerPlan {
    // Quantized weights, [k x n8] with n8 = n rounded up to a multiple
    // of 8; padding columns and bypassed weights hold 0. Column group g
    // is the 8 adjacent columns at offset 8g.
    std::vector<std::int32_t> qweights;
    // Fault-event schedule per *physical* PE column; output column j uses
    // entry j mod cols. Sized min(n, cols) — the PE columns actually hit.
    std::vector<std::vector<FaultEvent>> pe_column_events;
    // Per column group: its lanes' PE-column schedules merged, sorted by
    // position.
    std::vector<std::vector<GroupEvent>> group_events;
    // Per column group: 1 when no lane has a fault event and every
    // lane's sum of |qweight| fits the format's raw bounds, so a binary
    // row's partial sums cannot saturate and plain int32 adds are exact.
    std::vector<std::uint8_t> group_fast;
    // The output row of an all-zero input row (fault events only).
    std::vector<float> zero_row;
    int k = 0;
    int n = 0;
    int n8 = 0;
    int padded_k = 0;
    std::uint64_t weight_hash = 0;  // content identity of the weights
  };

  class RowWalker;

  const LayerPlan& plan_for(const std::string& tag, const float* w, int k,
                            int n);
  void run_rows(const LayerPlan& plan, const float* a, float* c, int i0,
                int i1, int n);
  void conv_samples(const LayerPlan& plan, const float* x,
                    const tensor::ConvGeometry& g, const float* bias,
                    float* out, int s0, int s1);
  /// The exact serial reference for one output row (all columns):
  /// per-step saturating accumulate + fault events, any activation kind.
  void reference_row(const LayerPlan& plan, const float* arow, float* crow,
                     int n, std::uint64_t& local_steps) const;

  ArrayConfig cfg_;
  const fault::FaultMap* map_;
  FaultHandling handling_;
  int threads_ = 0;
  bool force_scalar_ = false;
  std::unordered_map<std::string, LayerPlan> plans_;
  std::atomic<std::uint64_t> steps_{0};
};

}  // namespace falvolt::systolic
