// The storage server's request log (paper §IV), reduced to what is read
// back: per-file access counts.
//
// Under online refresh the server counts every routed request here and
// re-ranks the counts each interval.  Offline runs derive popularity from
// the history trace instead and count nothing.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "trace/record.hpp"
#include "util/units.hpp"

namespace eevfs::trace {

class AccessLog {
 public:
  /// Counts one access of `file` at `at`; accesses must be time-ordered.
  void append(FileId file, Tick at);

  std::size_t size() const { return total_; }
  std::size_t accesses(FileId f) const;

  /// Popularity ranking over everything logged so far (count desc,
  /// file id asc).
  std::vector<FileId> ranked() const;

 private:
  std::map<FileId, std::size_t> counts_;
  std::size_t total_ = 0;
  Tick last_ = 0;
};

}  // namespace eevfs::trace
