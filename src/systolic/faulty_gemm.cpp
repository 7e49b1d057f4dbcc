#include "systolic/faulty_gemm.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <stdexcept>

#include "common/env.h"
#include "compute/simd.h"
#include "compute/thread_pool.h"
#include "obs/metrics.h"
#include "tensor/im2col.h"

namespace falvolt::systolic {

namespace {

// Content checksum of a weight buffer (64-bit FNV-1a over 8-byte words,
// byte-wise tail). Guards the plan cache against the stale-plan hazard: a
// reallocated or in-place-mutated tensor landing at a previously seen
// address must not silently reuse the old quantized plan.
std::uint64_t hash_weights(const float* w, std::size_t count) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = 14695981039346656037ull ^ count;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(w);
  std::size_t bytes = count * sizeof(float);
  while (bytes >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kPrime;
    p += 8;
    bytes -= 8;
  }
  while (bytes > 0) {
    h = (h ^ *p++) * kPrime;
    --bytes;
  }
  return h;
}

// One row's nonzero entries: positions ascending (nz[0..count)) and,
// for a row with real-valued entries, each entry quantized and flagged
// when it is exactly 1.0f (a binary spike adds the plain weight, as in
// the reference: quantize(1.0f) saturates in formats with no integer
// bits).
struct RowScan {
  std::vector<int> nz;
  int count = 0;
  std::vector<std::int32_t> qa;
  std::vector<std::uint8_t> one;
};

#if defined(__AVX2__)
// The fixed-point operations of the walk on eight int32 lanes of one AVX
// register (compute::I32x8). Exact when every intermediate fits int32: a
// clamped add of two raw values needs formats of at most 31 bits, the
// rounded product (a * b + half) >> frac of at most 16.
class NarrowLanes {
 public:
  using V = compute::I32x8;

  static bool exact(const fx::FixedFormat& fmt, bool multiplies) {
    return fmt.total_bits() <= (multiplies ? 16 : 31);
  }

  explicit NarrowLanes(const fx::FixedFormat& fmt)
      : lo_(compute::splat_i32x8(fmt.min_raw())),
        hi_(compute::splat_i32x8(fmt.max_raw())),
        half_(compute::splat_i32x8(
            fmt.frac_bits() > 0 ? std::int32_t{1} << (fmt.frac_bits() - 1)
                                : 0)),
        frac_(fmt.frac_bits()),
        ext_(32 - fmt.total_bits()) {}

  V zero() const { return compute::splat_i32x8(0); }
  V load(const std::int32_t* p) const { return compute::load_i32x8(p); }
  void store(std::int32_t* p, V v) const { compute::store_i32x8(p, v); }
  // FixedFormat::add per lane.
  V add(V acc, V w) const { return clamp(compute::add_i32x8(acc, w)); }
  // FixedFormat::mul(w, q) per lane.
  V mul(V w, std::int32_t q) const {
    const V prod = compute::mul_i32x8(w, compute::splat_i32x8(q));
    return clamp(compute::sra_i32x8(compute::add_i32x8(prod, half_), frac_));
  }
  // StuckBits::apply per lane: force the masked bits, then sign-extend
  // the format's word.
  V corrupt(V acc, const std::int32_t* and_mask,
            const std::int32_t* or_mask) const {
    const V bits = compute::or_i32x8(
        compute::and_i32x8(acc, compute::load_i32x8(and_mask)),
        compute::load_i32x8(or_mask));
    return compute::sra_i32x8(compute::sll_i32x8(bits, ext_), ext_);
  }

 private:
  V clamp(V v) const {
    return compute::min_i32x8(compute::max_i32x8(v, lo_), hi_);
  }

  V lo_, hi_, half_;
  int frac_, ext_;
};
#endif

// The same operations one lane at a time in FixedFormat's 64-bit
// arithmetic: exact for every format, and the only lanes of a build
// without AVX2.
class WideLanes {
 public:
  struct V {
    std::int32_t v[compute::kI32Lanes];
  };

  explicit WideLanes(const fx::FixedFormat& fmt) : fmt_(fmt) {}

  V zero() const { return V{}; }
  V load(const std::int32_t* p) const {
    V r{};
    std::memcpy(r.v, p, sizeof(r.v));
    return r;
  }
  void store(std::int32_t* p, V v) const { std::memcpy(p, v.v, sizeof(v.v)); }
  V add(V acc, V w) const {
    for (int l = 0; l < compute::kI32Lanes; ++l) {
      acc.v[l] = fmt_.add(acc.v[l], w.v[l]);
    }
    return acc;
  }
  V mul(V w, std::int32_t q) const {
    for (int l = 0; l < compute::kI32Lanes; ++l) w.v[l] = fmt_.mul(w.v[l], q);
    return w;
  }
  V corrupt(V acc, const std::int32_t* and_mask,
            const std::int32_t* or_mask) const {
    for (int l = 0; l < compute::kI32Lanes; ++l) {
      acc.v[l] = fmt_.sign_extend(
          static_cast<std::uint32_t>((acc.v[l] & and_mask[l]) | or_mask[l]));
    }
    return acc;
  }

 private:
  const fx::FixedFormat& fmt_;
};

// One column group's traversal of one row: in every lane the operation
// sequence of reference_row. The row's nonzero positions merge with the
// group's events; each nonzero adds (clamped) its weight, or with
// kReal its weight times the quantized entry unless the entry is
// exactly 1.0f; at an event position the add comes first, then the
// corruption. Events past the last nonzero (padding rows, later K
// tiles) still apply.
template <bool kReal, class Lanes, class Event>
void walk_group(const Lanes& lanes, const std::int32_t* w, int stride,
                const RowScan& row, const std::vector<Event>& events,
                std::int32_t* out) {
  typename Lanes::V acc = lanes.zero();
  int t = 0;
  const auto add_through = [&](int last) {
    for (; t < row.count && row.nz[t] <= last; ++t) {
      typename Lanes::V contrib =
          lanes.load(w + static_cast<std::ptrdiff_t>(row.nz[t]) * stride);
      if constexpr (kReal) {
        if (!row.one[t]) contrib = lanes.mul(contrib, row.qa[t]);
      }
      acc = lanes.add(acc, contrib);
    }
  };
  for (const Event& ev : events) {
    add_through(ev.pos);
    acc = lanes.corrupt(acc, ev.and_mask, ev.or_mask);
  }
  add_through(std::numeric_limits<int>::max());
  lanes.store(out, acc);
}

}  // namespace

SystolicGemmEngine::SystolicGemmEngine(const ArrayConfig& cfg,
                                       const fault::FaultMap* map,
                                       FaultHandling handling)
    : cfg_(cfg), map_(map), handling_(handling) {
  static_assert(kLanes == compute::kI32Lanes);
  if (map_ && (map_->rows() != cfg.rows || map_->cols() != cfg.cols)) {
    throw std::invalid_argument(
        "SystolicGemmEngine: fault map does not match array dimensions");
  }
  force_scalar_ = common::env_int_or("FALVOLT_FORCE_SCALAR", 0) != 0;
}

const SystolicGemmEngine::LayerPlan& SystolicGemmEngine::plan_for(
    const std::string& tag, const float* w, int k, int n) {
  const std::uint64_t hash =
      hash_weights(w, static_cast<std::size_t>(k) * n);
  auto it = plans_.find(tag);
  if (it != plans_.end() && it->second.weight_hash == hash &&
      it->second.k == k && it->second.n == n) {
    return it->second;
  }
  const fx::FixedFormat& fmt = cfg_.format;
  LayerPlan plan;
  plan.k = k;
  plan.n = n;
  plan.n8 = (n + kLanes - 1) / kLanes * kLanes;
  plan.padded_k = padded_k(k, cfg_);
  plan.weight_hash = hash;
  plan.qweights.assign(static_cast<std::size_t>(k) * plan.n8, 0);
  std::vector<std::int64_t> col_abs_sum(static_cast<std::size_t>(plan.n8), 0);
  for (int kk = 0; kk < k; ++kk) {
    for (int j = 0; j < n; ++j) {
      const bool bypassed =
          handling_ == FaultHandling::kBypass && map_ &&
          map_->is_faulty(kk % cfg_.rows, j % cfg_.cols);
      const std::int32_t q =
          bypassed ? 0
                   : fmt.quantize(w[static_cast<std::size_t>(kk) * n + j]);
      plan.qweights[static_cast<std::size_t>(kk) * plan.n8 + j] = q;
      col_abs_sum[static_cast<std::size_t>(j)] +=
          std::abs(static_cast<std::int64_t>(q));
    }
  }
  // One event schedule per physical PE column: output columns folding
  // onto the same PE column traverse the same faulty accumulators, so the
  // schedule is shared instead of being replicated per output column.
  const int used_cols = std::min(n, cfg_.cols);
  plan.pe_column_events.assign(static_cast<std::size_t>(used_cols), {});
  if (map_ && handling_ == FaultHandling::kCorrupt) {
    for (int pe_col = 0; pe_col < used_cols; ++pe_col) {
      auto& events =
          plan.pe_column_events[static_cast<std::size_t>(pe_col)];
      for (int pos = 0; pos < plan.padded_k; ++pos) {
        const fx::StuckBits* bits = map_->at(pos % cfg_.rows, pe_col);
        if (bits) events.push_back(FaultEvent{pos, *bits});
      }
    }
  }
  // Per column group: the lanes' schedules merged by position, and the
  // headroom proof for the plain-add path.
  const int groups = plan.n8 / kLanes;
  plan.group_events.assign(static_cast<std::size_t>(groups), {});
  plan.group_fast.assign(static_cast<std::size_t>(groups), 0);
  for (int g = 0; g < groups; ++g) {
    std::map<int, GroupEvent> merged;
    std::int64_t max_abs_sum = 0;
    for (int lane = 0; lane < kLanes; ++lane) {
      const int j = g * kLanes + lane;
      max_abs_sum =
          std::max(max_abs_sum, col_abs_sum[static_cast<std::size_t>(j)]);
      if (j >= n) continue;
      for (const FaultEvent& ev :
           plan.pe_column_events[static_cast<std::size_t>(j % cfg_.cols)]) {
        GroupEvent& ge = merged[ev.pos];
        ge.pos = ev.pos;
        ge.and_mask[lane] = static_cast<std::int32_t>(~ev.bits.sa0_mask);
        ge.or_mask[lane] =
            static_cast<std::int32_t>(ev.bits.sa1_mask & fmt.to_bits(-1));
      }
    }
    auto& events = plan.group_events[static_cast<std::size_t>(g)];
    for (const auto& [pos, ge] : merged) events.push_back(ge);
    plan.group_fast[static_cast<std::size_t>(g)] =
        events.empty() && fmt.saturation_free(max_abs_sum) ? 1 : 0;
  }
  const std::vector<float> zeros(static_cast<std::size_t>(k), 0.0f);
  plan.zero_row.resize(static_cast<std::size_t>(n));
  std::uint64_t no_steps = 0;
  reference_row(plan, zeros.data(), plan.zero_row.data(), n, no_steps);
  auto [ins, _] = plans_.insert_or_assign(tag, std::move(plan));
  return ins->second;
}

void SystolicGemmEngine::reference_row(const LayerPlan& plan,
                                       const float* arow, float* crow,
                                       int n,
                                       std::uint64_t& local_steps) const {
  const fx::FixedFormat& fmt = cfg_.format;
  for (int j = 0; j < n; ++j) {
    // j mod cols < min(n, cols) == pe_column_events.size() always.
    const std::vector<FaultEvent>& events =
        plan.pe_column_events[static_cast<std::size_t>(j % cfg_.cols)];
    std::int32_t acc = 0;

    // Accumulate weights over positions [lo, hi) of the traversal.
    const auto accumulate_segment = [&](int lo, int hi) {
      const int stop = std::min(hi, plan.k);  // padding rows hold w == 0
      for (int kk = lo; kk < stop; ++kk) {
        const float av = arow[kk];
        if (av == 0.0f) continue;
        std::int32_t contrib =
            plan.qweights[static_cast<std::size_t>(kk) * plan.n8 + j];
        if (av != 1.0f) {
          // Real-valued activation (spike-encoder input): fixed multiply.
          contrib = fmt.mul(contrib, fmt.quantize(av));
        }
        acc = fmt.add(acc, contrib);
        ++local_steps;
      }
    };

    if (events.empty()) {
      accumulate_segment(0, plan.padded_k);
    } else {
      int cursor = 0;
      for (const FaultEvent& ev : events) {
        // All accumulation strictly before the faulty position, then the
        // faulty PE's own accumulate step, then its corruption.
        accumulate_segment(cursor, ev.pos);
        accumulate_segment(ev.pos, ev.pos + 1);
        acc = ev.bits.apply(acc, fmt);
        cursor = ev.pos + 1;
      }
      accumulate_segment(cursor, plan.padded_k);
    }
    crow[j] = static_cast<float>(fmt.dequantize(acc));
  }
}

// Serves the rows of one layer plan 8 output columns at a time, and
// tallies the paths and accumulate steps locally so the hot loops pay
// plain increments; each worker owns one and publishes it once.
class SystolicGemmEngine::RowWalker {
 public:
  RowWalker(SystolicGemmEngine& engine, const LayerPlan& plan)
      : engine_(engine),
        plan_(plan),
#if defined(__AVX2__)
        narrow_(engine.cfg_.format),
#endif
        wide_(engine.cfg_.format),
        resolution_(engine.cfg_.format.resolution()),
        acc_(static_cast<std::size_t>(plan.n8)),
        values_(static_cast<std::size_t>(plan.n8)) {
    const std::size_t k = static_cast<std::size_t>(plan.k);
    row_.nz.resize(k);
    row_.qa.resize(k);
    row_.one.resize(k);
  }

  // Path and step tallies, published by publish():
  //   vector     columns of binary rows done by plain int32 adds
  //   fallback   columns through the exact 8-lane walk
  //   zero       all-zero rows served from the plan
  //   reference  forced-scalar rows through the serial reference
  std::uint64_t steps = 0, vector = 0, fallback = 0, zero = 0,
                reference = 0;

  // The outputs of the input row `arow` (plan.k entries) in every output
  // column: the serial reference when forced scalar, else one scan of
  // the row (its nonzero positions, shared by every column group, and
  // whether each nonzero is a binary spike), the plan's zero row for an
  // all-zero row, or the walk. Valid until the next call.
  const float* serve(const float* arow) {
    if (engine_.force_scalar_) {
      // The byte-for-byte oracle the FALVOLT_FORCE_SCALAR knob pins
      // every row to.
      engine_.reference_row(plan_, arow, values_.data(), plan_.n, steps);
      ++reference;
      return values_.data();
    }
    bool binary = true;
    row_.count =
        compute::nonzero_positions(arow, plan_.k, row_.nz.data(), binary);
    if (row_.count == 0) return zero_row();
    if (!binary) {
      // Quantize each real-valued entry once for the whole row.
      const fx::FixedFormat& fmt = engine_.cfg_.format;
      for (int t = 0; t < row_.count; ++t) {
        const float av = arow[row_.nz[static_cast<std::size_t>(t)]];
        row_.one[static_cast<std::size_t>(t)] = av == 1.0f;
        row_.qa[static_cast<std::size_t>(t)] = fmt.quantize(av);
      }
    }
    return walk(binary);
  }

  // The outputs of an all-zero input row: the plan's zero row.
  const float* zero_row() {
    ++zero;
    return plan_.zero_row.data();
  }

  // Adds the tallies to the engine's step count and to process-wide obs
  // counters, so the path mix shows up in --metrics-json without
  // threading engine pointers up through the sweep layers (schedule-only
  // telemetry: the paths are bit-identical by contract). Every run or
  // conv covers each output element once:
  //   vector_cols + fallback_cols + n * (zero_rows + reference_rows)
  //     == rows * n.
  void publish() const {
    engine_.steps_.fetch_add(steps, std::memory_order_relaxed);
    static obs::Counter& g_vector =
        obs::counter("kernel.faulty_gemm.vector_cols");
    static obs::Counter& g_fallback =
        obs::counter("kernel.faulty_gemm.fallback_cols");
    static obs::Counter& g_zero = obs::counter("kernel.faulty_gemm.zero_rows");
    static obs::Counter& g_reference =
        obs::counter("kernel.faulty_gemm.reference_rows");
    static obs::Counter& g_steps = obs::counter("kernel.faulty_gemm.steps");
    if (vector) g_vector.add(vector);
    if (fallback) g_fallback.add(fallback);
    if (zero) g_zero.add(zero);
    if (reference) g_reference.add(reference);
    if (steps) g_steps.add(steps);
  }

 private:
  // The outputs of `row` (at least one nonzero) in every output column,
  // dequantized: plain int32 adds on binary rows of proven fault-free
  // groups, the exact 8-lane walk everywhere else.
  const float* walk(bool binary) {
    const int n = plan_.n;
    steps += static_cast<std::uint64_t>(row_.count) * n;
    for (int j = 0; j < n; j += kLanes) {
      const std::size_t g = static_cast<std::size_t>(j / kLanes);
      const int width = std::min(kLanes, n - j);  // the last group pads
      const std::int32_t* w = plan_.qweights.data() + j;
      std::int32_t* accs = acc_.data() + j;
      if (binary && plan_.group_fast[g]) {
        // No events, no saturation: one load+add per nonzero position.
        compute::accumulate_rows_i32x8(w, plan_.n8, row_.nz.data(),
                                       row_.count, accs);
        vector += static_cast<std::uint64_t>(width);
        continue;
      }
      const auto walk_with = [&](const auto& lanes) {
        const auto& events = plan_.group_events[g];
        if (binary) {
          walk_group<false>(lanes, w, plan_.n8, row_, events, accs);
        } else {
          walk_group<true>(lanes, w, plan_.n8, row_, events, accs);
        }
      };
#if defined(__AVX2__)
      if (NarrowLanes::exact(engine_.cfg_.format, !binary)) {
        walk_with(narrow_);
      } else {
        walk_with(wide_);
      }
#else
      walk_with(wide_);
#endif
      fallback += static_cast<std::uint64_t>(width);
    }
    // FixedFormat::dequantize divides by 2^frac; the product with its
    // power-of-two resolution is the same double.
    for (int j = 0; j < n; j += kLanes) {
      compute::scale_i32x8_to_f32(acc_.data() + j, resolution_,
                                  values_.data() + j);
    }
    return values_.data();
  }

  SystolicGemmEngine& engine_;
  const LayerPlan& plan_;
#if defined(__AVX2__)
  const NarrowLanes narrow_;
#endif
  const WideLanes wide_;
  const double resolution_;
  std::vector<std::int32_t> acc_;  // [n8]
  std::vector<float> values_;      // [n8]
  RowScan row_;                    // the scan of the row being served
};

void SystolicGemmEngine::run_rows(const LayerPlan& plan, const float* a,
                                  float* c, int i0, int i1, int n) {
  RowWalker walker(*this, plan);
  for (int i = i0; i < i1; ++i) {
    const float* values =
        walker.serve(a + static_cast<std::size_t>(i) * plan.k);
    std::copy(values, values + n, c + static_cast<std::size_t>(i) * n);
  }
  walker.publish();
}

void SystolicGemmEngine::conv_samples(const LayerPlan& plan, const float* x,
                                      const tensor::ConvGeometry& g,
                                      const float* bias, float* out, int s0,
                                      int s1) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const int pw = g.padded_w();
  const int cout = plan.n;
  const std::size_t p = static_cast<std::size_t>(oh) * ow;
  const std::size_t plane = static_cast<std::size_t>(g.padded_h()) * pw;
  const std::size_t in_sample =
      static_cast<std::size_t>(g.in_channels) * g.in_h * g.in_w;
  const std::vector<std::size_t> taps = tensor::window_taps(g);
  RowWalker walker(*this, plan);
  std::vector<float> padded(static_cast<std::size_t>(g.in_channels) * plane);
  std::vector<float> window(taps.size());  // the window's im2col row
  // live[y * pw + x]: padded element (y, x) is nonzero in some channel.
  // reach[x]: column x of an output row's kernel rows is live. A window
  // with no live column is an all-zero row, served without its copy.
  std::vector<std::uint8_t> live(plane);
  std::vector<std::uint8_t> reach(static_cast<std::size_t>(pw));
  for (int s = s0; s < s1; ++s) {
    tensor::pad_sample(x + s * in_sample, g, padded.data());
    float* sample_out = out + static_cast<std::size_t>(s) * cout * p;
    std::fill(live.begin(), live.end(), 0);
    for (int c = 0; c < g.in_channels; ++c) {
      const float* src = padded.data() + c * plane;
      for (std::size_t e = 0; e < plane; ++e) live[e] |= src[e] != 0.0f;
    }
    for (int oy = 0; oy < oh; ++oy) {
      const std::size_t top = static_cast<std::size_t>(oy) * g.stride * pw;
      std::fill(reach.begin(), reach.end(), 0);
      for (int ky = 0; ky < g.kernel_h; ++ky) {
        const std::uint8_t* row = live.data() + top + ky * pw;
        for (int col = 0; col < pw; ++col) reach[col] |= row[col];
      }
      for (int ox = 0; ox < ow; ++ox) {
        const std::size_t left = static_cast<std::size_t>(ox) * g.stride;
        std::uint8_t any = 0;
        for (int kx = 0; kx < g.kernel_w; ++kx) any |= reach[left + kx];
        const float* values;
        if (any == 0 && !force_scalar_) {
          values = walker.zero_row();
        } else {
          const float* origin = padded.data() + top + left;
          for (std::size_t kk = 0; kk < taps.size(); ++kk) {
            window[kk] = origin[taps[kk]];
          }
          values = walker.serve(window.data());
        }
        const std::size_t pix = static_cast<std::size_t>(oy) * ow + ox;
        for (int c = 0; c < cout; ++c) {
          sample_out[c * p + pix] = values[c] + (bias ? bias[c] : 0.0f);
        }
      }
    }
  }
  walker.publish();
}

void SystolicGemmEngine::run(const float* a, const float* w, float* c, int m,
                             int k, int n, const std::string& layer_tag) {
  const LayerPlan& plan = plan_for(layer_tag, w, k, n);
  const int threads =
      threads_ > 0 ? threads_ : compute::global_threads();
  if (threads > 1 && m > 1) {
    // Row chunks at least ceil(m/threads) wide cap the effective
    // concurrency at the requested width even on a larger pool.
    const int grain = (m + threads - 1) / threads;
    compute::global_pool().parallel_for(0, m, grain,
                                        [&](int i0, int i1) {
                                          run_rows(plan, a, c, i0, i1, n);
                                        });
  } else {
    run_rows(plan, a, c, 0, m, n);
  }
}

void SystolicGemmEngine::conv(const float* x, int n,
                              const tensor::ConvGeometry& g, const float* w,
                              int cout, const float* bias, float* out,
                              const std::string& layer_tag) {
  const LayerPlan& plan = plan_for(layer_tag, w, g.patch_size(), cout);
  const int threads = threads_ > 0 ? threads_ : compute::global_threads();
  if (threads > 1 && n > 1) {
    const int grain = (n + threads - 1) / threads;
    compute::global_pool().parallel_for(0, n, grain, [&](int s0, int s1) {
      conv_samples(plan, x, g, bias, out, s0, s1);
    });
  } else {
    conv_samples(plan, x, g, bias, out, 0, n);
  }
}

}  // namespace falvolt::systolic
