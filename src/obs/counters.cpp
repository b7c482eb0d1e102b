#include "obs/counters.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace eevfs::obs {

void Histogram::record(std::uint64_t x) {
  const std::size_t b = static_cast<std::size_t>(std::bit_width(x));
  ++buckets_[b];
  if (count_ == 0 || x < min_) min_ = x;
  if (x > max_) max_ = x;
  ++count_;
  sum_ += static_cast<double>(x);
}

std::uint64_t Histogram::percentile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-quantile sample (1-based, ceil).
  const double want = q * static_cast<double>(count_);
  std::uint64_t rank = static_cast<std::uint64_t>(want);
  if (static_cast<double>(rank) < want || rank == 0) ++rank;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) {
      // Upper bound of bucket b, clamped to the observed max.
      const std::uint64_t hi =
          b == 0 ? 0
                 : (b >= 64 ? max_ : ((std::uint64_t{1} << b) - 1));
      return hi < max_ ? hi : max_;
    }
  }
  return max_;
}

void Registry::check_unique(const std::string& name, MetricKind kind) const {
  const bool clash =
      (kind != MetricKind::kCounter && counters_.count(name) != 0) ||
      (kind != MetricKind::kGauge && gauges_.count(name) != 0) ||
      (kind != MetricKind::kHistogram && histograms_.count(name) != 0);
  if (clash) {
    throw std::logic_error("obs: metric '" + name +
                           "' already registered as a different kind");
  }
}

Counter& Registry::counter(const std::string& name) {
  check_unique(name, MetricKind::kCounter);
  return counters_[name];
}

Gauge& Registry::gauge(const std::string& name) {
  check_unique(name, MetricKind::kGauge);
  return gauges_[name];
}

Histogram& Registry::histogram(const std::string& name) {
  check_unique(name, MetricKind::kHistogram);
  return histograms_[name];
}

const Counter* Registry::find_counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* Registry::find_gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::vector<Sample> Registry::snapshot() const {
  std::vector<Sample> out;
  out.reserve(size());
  for (const auto& [name, c] : counters_) {
    Sample s;
    s.name = name;
    s.kind = MetricKind::kCounter;
    s.value = static_cast<double>(c.value());
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    Sample s;
    s.name = name;
    s.kind = MetricKind::kGauge;
    s.value = g.value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    Sample s;
    s.name = name;
    s.kind = MetricKind::kHistogram;
    s.value = static_cast<double>(h.count());
    s.count = h.count();
    s.sum = h.sum();
    s.mean = h.mean();
    s.p50 = static_cast<double>(h.percentile(0.50));
    s.p95 = static_cast<double>(h.percentile(0.95));
    s.p99 = static_cast<double>(h.percentile(0.99));
    s.min = static_cast<double>(h.min());
    s.max = static_cast<double>(h.max());
    out.push_back(std::move(s));
  }
  // Interleave kinds into one name-sorted list so the report order is
  // independent of metric kind.
  std::sort(out.begin(), out.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return out;
}

}  // namespace eevfs::obs
