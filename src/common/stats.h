#pragma once
// Small statistics helpers: experiments average accuracy over multiple
// fault maps (the paper runs 8 iterations per point), so mean / stddev /
// min / max over the samples is the common reduction.

#include <cstddef>

namespace falvolt::common {

/// Streaming accumulator (Welford): mean / stddev / min / max of samples
/// added one at a time; zeros before the first sample.
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace falvolt::common
