#include "common/stats.h"

#include <cmath>

namespace falvolt::common {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace falvolt::common
