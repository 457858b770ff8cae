// Running statistics for the QoS evaluation (experiment E9) and the cost
// benchmarks (E10).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rfd {

/// Streaming summary: count / mean / variance via Welford, min/max, and
/// exact percentiles from retained samples. Retention is fine at our
/// experiment scales (tens of thousands of samples).
class Summary {
 public:
  void add(double x);

  std::int64_t count() const { return count_; }
  double mean() const;
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

  /// Exact percentile (q in [0,1]) by sorting retained samples; 0 samples
  /// yields NaN. Sorting is deferred and cached.
  double percentile(double q) const;
  double median() const { return percentile(0.5); }

  /// Merges another summary (concatenates retained samples).
  void merge(const Summary& other);

  std::string to_string() const;

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace rfd
