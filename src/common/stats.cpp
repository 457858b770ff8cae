#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/assert.hpp"

namespace rfd {

void Summary::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  samples_.push_back(x);
  sorted_ = false;
}

double Summary::mean() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : mean_;
}

double Summary::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

double Summary::min() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
}

double Summary::max() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
}

double Summary::percentile(double q) const {
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  RFD_REQUIRE(q >= 0.0 && q <= 1.0);
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

void Summary::merge(const Summary& other) {
  for (double x : other.samples_) {
    add(x);
  }
}

std::string Summary::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%lld mean=%.4g sd=%.4g min=%.4g p50=%.4g p99=%.4g max=%.4g",
                static_cast<long long>(count_), mean(), stddev(), min(),
                percentile(0.5), percentile(0.99), max());
  return buf;
}

}  // namespace rfd
