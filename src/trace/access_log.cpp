#include "trace/access_log.hpp"

#include <algorithm>
#include <stdexcept>

namespace eevfs::trace {

void AccessLog::append(FileId file, Tick at) {
  if (total_ > 0 && at < last_) {
    throw std::invalid_argument("AccessLog: appends must be time-ordered");
  }
  ++counts_[file];
  ++total_;
  last_ = at;
}

std::size_t AccessLog::accesses(FileId f) const {
  const auto it = counts_.find(f);
  return it == counts_.end() ? 0 : it->second;
}

std::vector<FileId> AccessLog::ranked() const {
  std::vector<FileId> files;
  files.reserve(counts_.size());
  for (const auto& [f, _] : counts_) files.push_back(f);
  std::stable_sort(files.begin(), files.end(), [this](FileId a, FileId b) {
    const auto ca = counts_.at(a);
    const auto cb = counts_.at(b);
    if (ca != cb) return ca > cb;
    return a < b;
  });
  return files;
}

}  // namespace eevfs::trace
