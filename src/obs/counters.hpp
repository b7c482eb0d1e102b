// Typed metric registry: counters, gauges, and log-bucketed histograms
// that every EEVFS component reports into.
//
// Design constraints (why not a global registry):
//  * benches run many Cluster simulations in parallel on a thread pool,
//    so the registry is an owned object (one per Cluster), never a
//    process-wide singleton;
//  * RunMetrics must stay bit-identical whether tracing is on or off, so
//    metric updates are unconditional (they are a handful of integer ops)
//    and snapshot() iterates a std::map — deterministic name order, no
//    hashing, no pointers in the output.
//
// Naming convention (enforced by docs/observability.md coverage in the
// run_report_smoke target): `component.metric.unit`, e.g.
// `disk.spin_ups.count`, `net.bytes_sent.bytes`, `client.request_latency.us`.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace eevfs::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

constexpr std::string_view to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins scalar (peaks use set_max).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void set_max(double v) {
    if (v > value_) value_ = v;
  }
  /// Running total of a non-integral quantity (modeled joules).
  void add(double v) { value_ += v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Power-of-two-bucketed histogram over unsigned samples (tick counts,
/// byte counts).  Exact count/sum/min/max; percentiles are resolved to
/// the upper bound of the containing bucket, so they are conservative
/// (never under-report a latency) and deterministic.
class Histogram {
 public:
  void record(std::uint64_t x);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }

  /// q in [0, 1]; upper bound of the bucket holding the q-quantile.
  std::uint64_t percentile(double q) const;

  /// Number of samples in bucket `i` (bucket i holds x with
  /// bit_width(x) == i, i.e. [2^(i-1), 2^i); bucket 0 holds x == 0).
  std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
  static constexpr std::size_t kBuckets = 65;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  double sum_ = 0.0;
};

/// One registry entry, flattened for reports.  Histograms carry a
/// deterministic summary instead of raw buckets.
struct Sample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  /// Counter/gauge value; for histograms, the sample count.
  double value = 0.0;
  // Histogram summary (zero for counters/gauges).
  std::uint64_t count = 0;
  /// Exact sum of the samples (they are integers, summed below 2^53).
  double sum = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double min = 0.0;
  double max = 0.0;

  friend bool operator==(const Sample&, const Sample&) = default;
};

class Registry {
 public:
  /// Returns the metric named `name`, creating it on first use.  A name
  /// registered as one kind cannot be re-registered as another (throws
  /// std::logic_error) — the run-report schema needs one kind per name.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// All metrics, sorted by name.  Deterministic: same registrations and
  /// updates produce an identical vector.
  std::vector<Sample> snapshot() const;

 private:
  void check_unique(const std::string& name, MetricKind kind) const;

  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace eevfs::obs
