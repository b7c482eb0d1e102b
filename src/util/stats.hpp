// Streaming statistics used for response-time and energy reporting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace eevfs {

/// Welford online mean/variance plus min/max.  O(1) memory; suitable for
/// millions of samples.
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const OnlineStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Reservoir of samples with exact percentiles; bounded memory via
/// optional reservoir sampling once `capacity` is exceeded.
class PercentileTracker {
 public:
  explicit PercentileTracker(std::size_t capacity = 1 << 20);

  void add(double x);

  /// q in [0, 1]; nearest-rank on the sorted reservoir.
  double percentile(double q) const;
  std::size_t count() const { return total_; }

 private:
  std::size_t capacity_;
  std::size_t total_ = 0;
  std::uint64_t rng_state_;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace eevfs
