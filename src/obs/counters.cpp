#include "obs/counters.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace eevfs::obs {

namespace {

// 2^kSubBits sub-buckets per power of two bound a percentile's overshoot
// by 2^-kSubBits of its value.
constexpr unsigned kSubBits = 7;

/// Samples below 2^(kSubBits+1) are their own bucket.  A larger x with
/// top bit e falls in linear sub-bucket x >> s of its power of two
/// (s = e - kSubBits, so x >> s lies in [2^kSubBits, 2^(kSubBits+1))),
/// and each power of two's buckets follow the previous one's.
std::size_t bucket_of(std::uint64_t x) {
  const auto width = static_cast<unsigned>(std::bit_width(x));
  const unsigned s = width > kSubBits + 1 ? width - kSubBits - 1 : 0;
  return (std::size_t{s} << kSubBits) + static_cast<std::size_t>(x >> s);
}

/// Largest sample bucket_of maps to `b`.
std::uint64_t upper_edge(std::size_t b) {
  const std::size_t octave = b >> kSubBits;
  const unsigned s = octave > 1 ? static_cast<unsigned>(octave - 1) : 0;
  const auto lo = static_cast<std::uint64_t>(b - (std::size_t{s} << kSubBits))
                  << s;
  return lo + ((std::uint64_t{1} << s) - 1);
}

}  // namespace

void Histogram::record(std::uint64_t x) {
  const std::size_t b = bucket_of(x);
  if (b >= buckets_.size()) buckets_.resize(b + 1);
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
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= rank) return std::min(upper_edge(b), max_);
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
