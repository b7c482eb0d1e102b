// The storage server's request log (paper §IV), reduced to what is read
// back: per-file access counts.
//
// Under online refresh the server counts every routed request here and
// re-ranks the counts each interval.  Offline runs derive popularity from
// the history trace instead and count nothing.  The counts are one dense
// column indexed by FileId, sized when online refresh first arms.
#pragma once

#include <cstddef>
#include <vector>

#include "trace/record.hpp"
#include "util/units.hpp"

namespace eevfs::trace {

class AccessLog {
 public:
  AccessLog() = default;
  /// A log over files 0..num_files-1.
  explicit AccessLog(std::size_t num_files) : counts_(num_files, 0) {}

  /// Counts one access of `file` at `at`; accesses must be time-ordered
  /// and `file` one of the log's files (std::out_of_range otherwise).
  void append(FileId file, Tick at);

  std::size_t size() const { return total_; }
  std::size_t num_files() const { return counts_.size(); }
  /// Accesses of `f` so far; 0 for files outside the log.
  std::size_t accesses(FileId f) const;

  /// Popularity ranking over every file logged so far (count desc,
  /// file id asc).
  std::vector<FileId> ranked() const;

 private:
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  Tick last_ = 0;
};

}  // namespace eevfs::trace
