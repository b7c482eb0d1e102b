// Request streams: one replay path for materialized and generated
// workloads.
//
// A materialized workload::Workload holds every TraceRecord of the run up
// front — fine at the paper's 1000-request scale, hopeless for a
// 1024-node cell replaying millions of requests (the trace alone holds
// the full run).  A StreamingWorkload instead carries only the per-file
// metadata (sizes — O(num_files)) plus a factory that opens a fresh
// *pass* over the request sequence; requests are produced lazily, one at
// a time, in arrival order, and are never fully materialized anywhere.
// Cluster::run reads a materialized trace through the same interface
// (SpanStream), so both inputs take one build and one replay:
//
//  * setup folds one pass into exact per-file popularity aggregates for
//    placement and prefetch ranking (a materialized trace is read a
//    second time for its exact access offsets, the power hints);
//  * replay reads its own pass only when a client needs its next record,
//    and only until that record appears; what it read ahead waits in the
//    other clients' queues.  With clients assigned uniformly that is
//    about clients x ln(requests) records; a client that goes idle makes
//    the pull read ahead to its next record.
//
// SyntheticStream produces the exact same record sequence as
// generate_synthetic for the same config — generate_synthetic is
// implemented by draining one (the engine-golden digests pin this).
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "trace/record.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workload/synthetic.hpp"

namespace eevfs::workload {

/// One lazy, forward-only pass over a request sequence (arrival order).
class RequestStream {
 public:
  virtual ~RequestStream() = default;

  /// Produces the next record; false when the sequence is exhausted.
  virtual bool next(trace::TraceRecord* out) = 0;
};

/// Starts a fresh pass over one request sequence.
using PassFactory = std::function<std::unique_ptr<RequestStream>()>;

/// A pass over records already in memory (a materialized trace); the
/// records must outlive the pass.
class SpanStream : public RequestStream {
 public:
  explicit SpanStream(std::span<const trace::TraceRecord> rest)
      : rest_(rest) {}

  bool next(trace::TraceRecord* out) override {
    if (rest_.empty()) return false;
    *out = rest_.front();
    rest_ = rest_.subspan(1);
    return true;
  }

 private:
  std::span<const trace::TraceRecord> rest_;
};

/// A workload whose requests are generated on demand.  `open()` starts a
/// fresh pass from the first record; passes are independent and
/// deterministic (every pass yields the identical sequence).
struct StreamingWorkload {
  std::string name;
  std::vector<Bytes> file_sizes;  // indexed by FileId
  std::size_t num_requests = 0;
  PassFactory open;

  std::size_t num_files() const { return file_sizes.size(); }
};

/// Lazy generator with generate_synthetic's exact draw order (same rng
/// forks, same per-record draw sequence).
class SyntheticStream : public RequestStream {
 public:
  SyntheticStream(const SyntheticConfig& config,
                  std::shared_ptr<const std::vector<Bytes>> file_sizes);

  bool next(trace::TraceRecord* out) override;

 private:
  SyntheticConfig config_;
  std::shared_ptr<const std::vector<Bytes>> file_sizes_;
  PoissonDistribution popularity_;
  Rng pop_rng_;
  Rng arrival_rng_;
  Rng client_rng_;
  std::size_t produced_ = 0;
  Tick arrival_ = 0;
};

/// Draws the per-file sizes (the only eagerly-materialized piece, shared
/// by every pass) and wraps the config as a StreamingWorkload.  Throws
/// std::invalid_argument, naming the field, for an empty or out-of-range
/// configuration (a non-finite parameter included).
StreamingWorkload make_synthetic_stream(const SyntheticConfig& config);

}  // namespace eevfs::workload
