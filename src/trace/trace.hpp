// A replayable access trace plus the popularity analysis the storage
// server performs on it (paper §III-B / §IV-A step 2).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "trace/record.hpp"
#include "util/units.hpp"

namespace eevfs::trace {

/// The record column of a materialized trace.  Its ids may be sparse, so
/// it keeps no per-file state; per-file figures are computed on demand.
class Trace {
 public:
  /// Appends a record; arrival times must be non-decreasing.  Inline:
  /// a generator appends one record per draw.
  void append(TraceRecord r) {
    if (!records_.empty() && r.arrival < records_.back().arrival) {
      throw_unsorted();
    }
    total_bytes_ += r.bytes;
    // Not push_back: GCC 12 at -O3 misreads an inlined push_back of a
    // fresh vector as a write past its end (-Wstringop-overflow).
    records_.emplace_back(r);
  }
  /// Room for `n` records in all, for builders that know the final size.
  void reserve(std::size_t n) { records_.reserve(n); }
  /// Makes record `i` an `op` request in place; arrival order and the
  /// byte total stay as they are.
  void set_op(std::size_t i, Op op) { records_.at(i).op = op; }

  std::span<const TraceRecord> records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const TraceRecord& operator[](std::size_t i) const { return records_[i]; }

  /// Arrival of the last record (0 for an empty trace).
  Tick duration() const { return empty() ? 0 : records_.back().arrival; }
  Bytes total_bytes() const { return total_bytes_; }
  /// Distinct files the records name, counted on demand.
  std::size_t unique_files() const;

 private:
  [[noreturn]] static void throw_unsorted();

  std::vector<TraceRecord> records_;
  Bytes total_bytes_ = 0;
};

/// Per-file popularity summary derived from a trace or access log.
struct FilePopularity {
  FileId file = 0;
  std::size_t accesses = 0;
  Bytes bytes = 0;
  Tick first_access = 0;
  Tick last_access = 0;
  /// Mean gap between successive accesses to this file (0 if < 2).
  Tick mean_gap = 0;

  /// Folds in the next access to this file (arrivals non-decreasing).
  /// The gaps telescope, so their mean is (last - first) / (accesses - 1).
  void add(const TraceRecord& r);
};

/// Computes file popularity; `ranked` is sorted by access count
/// descending, ties broken by lower file id (deterministic placement).
class PopularityAnalyzer {
 public:
  /// Folds the records with FilePopularity::add into a hash table.
  explicit PopularityAnalyzer(const Trace& trace);

  /// Aggregate form: per-file summaries folded with FilePopularity::add
  /// in one pass over a request stream (any order; zero-access entries
  /// are dropped) and the total access count.  Equivalent to the Trace
  /// constructor when the summaries are exact.
  PopularityAnalyzer(std::vector<FilePopularity> summaries,
                     std::size_t total_accesses);

  const std::vector<FilePopularity>& ranked() const { return ranked_; }

  /// Rank of a file (0 = most popular), by a scan of ranked(); files
  /// never accessed in the trace are absent — rank() returns npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t rank(FileId f) const;

  /// The top-k most popular file ids.
  std::vector<FileId> top(std::size_t k) const;

  /// Fraction of all accesses that hit the top-k files — the buffer-disk
  /// hit rate an omniscient prefetcher of size k would achieve.
  double coverage(std::size_t k) const;

 private:
  std::vector<FilePopularity> ranked_;
  std::size_t total_accesses_ = 0;
};

}  // namespace eevfs::trace
