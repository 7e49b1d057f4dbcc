#include "systolic/faulty_gemm.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "common/env.h"
#include "compute/simd.h"
#include "compute/thread_pool.h"
#include "obs/metrics.h"

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

}  // namespace

SystolicGemmEngine::SystolicGemmEngine(const ArrayConfig& cfg,
                                       const fault::FaultMap* map,
                                       FaultHandling handling)
    : cfg_(cfg), map_(map), handling_(handling) {
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
  LayerPlan plan;
  plan.k = k;
  plan.n = n;
  plan.padded_k = padded_k(k, cfg_);
  plan.weight_ptr = w;
  plan.weight_hash = hash;
  plan.qweights.resize(static_cast<std::size_t>(k) * n);
  for (int kk = 0; kk < k; ++kk) {
    for (int j = 0; j < n; ++j) {
      const bool bypassed =
          handling_ == FaultHandling::kBypass && map_ &&
          map_->is_faulty(kk % cfg_.rows, j % cfg_.cols);
      plan.qweights[static_cast<std::size_t>(kk) * n + j] =
          bypassed ? 0
                   : cfg_.format.quantize(
                         w[static_cast<std::size_t>(kk) * n + j]);
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
  // Fast-path metadata: a packed column-contiguous weight copy and the
  // per-column |qweight| prefix sums backing the overflow headroom proof.
  plan.qweights_cols.resize(static_cast<std::size_t>(n) * k);
  plan.col_abs_prefix.resize(static_cast<std::size_t>(n) * (k + 1));
  plan.col_fast.assign(static_cast<std::size_t>(n), 0);
  for (int j = 0; j < n; ++j) {
    std::int32_t* col = plan.qweights_cols.data() +
                        static_cast<std::size_t>(j) * k;
    std::int64_t* prefix = plan.col_abs_prefix.data() +
                           static_cast<std::size_t>(j) * (k + 1);
    prefix[0] = 0;
    for (int kk = 0; kk < k; ++kk) {
      const std::int32_t q =
          plan.qweights[static_cast<std::size_t>(kk) * n + j];
      col[kk] = q;
      prefix[kk + 1] = prefix[kk] + std::abs(static_cast<std::int64_t>(q));
    }
    const bool no_events =
        plan.pe_column_events[static_cast<std::size_t>(j % cfg_.cols)]
            .empty();
    plan.col_fast[static_cast<std::size_t>(j)] =
        no_events && cfg_.format.saturation_free(prefix[k]) ? 1 : 0;
  }
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
            plan.qweights[static_cast<std::size_t>(kk) * plan.n + j];
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

void SystolicGemmEngine::exact_binary_column(
    const LayerPlan& plan, const std::vector<int>& nz, int j, float* crow,
    std::uint64_t& local_steps) const {
  const fx::FixedFormat& fmt = cfg_.format;
  const std::vector<FaultEvent>& events =
      plan.pe_column_events[static_cast<std::size_t>(j % cfg_.cols)];
  const std::int32_t* col =
      plan.qweights_cols.data() + static_cast<std::size_t>(j) * plan.k;
  const std::int64_t* prefix =
      plan.col_abs_prefix.data() +
      static_cast<std::size_t>(j) * (plan.k + 1);
  std::int32_t acc = 0;

  // Segment walk identical to the reference, but each segment whose
  // headroom proof holds at runtime (incoming |acc| + segment |qweight|
  // sum within the raw bounds) uses plain adds — bit-identical because no
  // step can saturate.
  const auto accumulate_segment = [&](int lo, int hi) {
    const int stop = std::min(hi, plan.k);  // padding rows hold w == 0
    if (lo >= stop) return;
    auto it = std::lower_bound(nz.begin(), nz.end(), lo);
    const std::int64_t headroom = prefix[stop] - prefix[lo];
    if (fmt.saturation_free(std::abs(static_cast<std::int64_t>(acc)) +
                            headroom)) {
      for (; it != nz.end() && *it < stop; ++it) {
        acc += col[*it];
        ++local_steps;
      }
    } else {
      for (; it != nz.end() && *it < stop; ++it) {
        acc = fmt.add(acc, col[*it]);
        ++local_steps;
      }
    }
  };

  if (events.empty()) {
    accumulate_segment(0, plan.padded_k);
  } else {
    int cursor = 0;
    for (const FaultEvent& ev : events) {
      accumulate_segment(cursor, ev.pos);
      accumulate_segment(ev.pos, ev.pos + 1);
      acc = ev.bits.apply(acc, fmt);
      cursor = ev.pos + 1;
    }
    accumulate_segment(cursor, plan.padded_k);
  }
  crow[j] = static_cast<float>(fmt.dequantize(acc));
}

void SystolicGemmEngine::run_rows(const LayerPlan& plan, const float* a,
                                  float* c, int i0, int i1, int n) {
  const fx::FixedFormat& fmt = cfg_.format;
  std::uint64_t local_steps = 0;
  // Path-taken telemetry, accumulated locally like local_steps so the
  // hot loops pay plain increments and each worker publishes once.
  std::uint64_t local_vector = 0, local_scalar = 0, local_fallback = 0,
                local_reference = 0;
  std::vector<int> nz;  // nonzero positions of the current row
  nz.reserve(static_cast<std::size_t>(plan.k));

  for (int i = i0; i < i1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * plan.k;
    float* crow = c + static_cast<std::size_t>(i) * n;

    // One pass over the row: collect nonzero positions and detect
    // whether every nonzero activation is a binary spike (exactly 1.0f).
    // The nz list is then shared by every output column of this row.
    nz.clear();
    bool binary = true;
    for (int kk = 0; kk < plan.k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      if (av != 1.0f) binary = false;
      nz.push_back(kk);
    }

    if (force_scalar_ || !binary) {
      // Real-valued activations need the per-step fixed multiply; the
      // reference loop handles them (and is the byte-for-byte oracle the
      // FALVOLT_FORCE_SCALAR knob pins every row to).
      reference_row(plan, arow, crow, n, local_steps);
      ++local_reference;
      continue;
    }

    const int count = static_cast<int>(nz.size());
    int j = 0;
    for (; j + compute::kI32Lanes <= n; j += compute::kI32Lanes) {
      bool group_fast = true;
      for (int lane = 0; lane < compute::kI32Lanes; ++lane) {
        group_fast = group_fast &&
                     plan.col_fast[static_cast<std::size_t>(j + lane)];
      }
      if (group_fast) {
        // 8 adjacent fault-free, headroom-proven columns: one vector
        // accumulator, one load+add per nonzero input position.
        std::int32_t accs[compute::kI32Lanes];
        compute::accumulate_rows_i32x8(plan.qweights.data() + j, n,
                                       nz.data(), count, accs);
        for (int lane = 0; lane < compute::kI32Lanes; ++lane) {
          crow[j + lane] = static_cast<float>(fmt.dequantize(accs[lane]));
        }
        local_steps +=
            static_cast<std::uint64_t>(compute::kI32Lanes) * count;
        local_vector += static_cast<std::uint64_t>(compute::kI32Lanes);
        continue;
      }
      for (int lane = 0; lane < compute::kI32Lanes; ++lane) {
        exact_binary_column(plan, nz, j + lane, crow, local_steps);
        ++local_fallback;
      }
    }
    for (; j < n; ++j) {
      if (plan.col_fast[static_cast<std::size_t>(j)]) {
        const std::int32_t* col = plan.qweights_cols.data() +
                                  static_cast<std::size_t>(j) * plan.k;
        std::int32_t acc = 0;
        for (int t = 0; t < count; ++t) acc += col[nz[static_cast<std::size_t>(t)]];
        crow[j] = static_cast<float>(fmt.dequantize(acc));
        local_steps += static_cast<std::uint64_t>(count);
        ++local_scalar;
      } else {
        exact_binary_column(plan, nz, j, crow, local_steps);
        ++local_fallback;
      }
    }
  }
  steps_.fetch_add(local_steps, std::memory_order_relaxed);
  // Which codepath evaluated each output element (schedule-only
  // telemetry; the paths are bit-identical by contract), as process-wide
  // obs counters so the path mix shows up in --metrics-json without
  // threading engine pointers up through the sweep layers:
  //   vector_cols     columns done 8-wide by accumulate_rows_i32x8
  //   scalar_cols     fast-path remainder columns (plain scalar adds)
  //   fallback_cols   exact_binary_column (runtime headroom checks)
  //   reference_rows  whole rows through the serial reference loop
  // Column counts cover binary-spike rows only; a reference row counts
  // once however many columns it holds.
  static obs::Counter& g_vector = obs::counter("kernel.faulty_gemm.vector_cols");
  static obs::Counter& g_scalar = obs::counter("kernel.faulty_gemm.scalar_cols");
  static obs::Counter& g_fallback =
      obs::counter("kernel.faulty_gemm.fallback_cols");
  static obs::Counter& g_reference =
      obs::counter("kernel.faulty_gemm.reference_rows");
  static obs::Counter& g_steps = obs::counter("kernel.faulty_gemm.steps");
  if (local_vector) g_vector.add(local_vector);
  if (local_scalar) g_scalar.add(local_scalar);
  if (local_fallback) g_fallback.add(local_fallback);
  if (local_reference) g_reference.add(local_reference);
  if (local_steps) g_steps.add(local_steps);
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

}  // namespace falvolt::systolic
