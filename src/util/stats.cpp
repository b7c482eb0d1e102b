#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace eevfs {

void OnlineStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  return count_ ? m2_ / static_cast<double>(count_) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

PercentileTracker::PercentileTracker(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      rng_state_(0xA0761D6478BD642FULL) {
  samples_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void PercentileTracker::add(double x) {
  ++total_;
  if (samples_.size() < capacity_) {
    samples_.push_back(x);
    sorted_ = false;
    return;
  }
  // Vitter's algorithm R: keep each sample with probability capacity/total.
  const std::uint64_t r = splitmix64(rng_state_) % total_;
  if (r < capacity_) {
    samples_[static_cast<std::size_t>(r)] = x;
    sorted_ = false;
  }
}

double PercentileTracker::percentile(double q) const {
  if (samples_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples_.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  return samples_[std::min(idx, samples_.size() - 1)];
}

}  // namespace eevfs
