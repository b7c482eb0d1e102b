#include "trace/access_log.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace eevfs::trace {

void AccessLog::append(FileId file, Tick at) {
  if (total_ > 0 && at < last_) {
    throw std::invalid_argument("AccessLog: appends must be time-ordered");
  }
  if (file >= counts_.size()) {
    throw std::out_of_range("AccessLog: file " + std::to_string(file) +
                            " past the file count");
  }
  ++counts_[file];
  ++total_;
  last_ = at;
}

std::size_t AccessLog::accesses(FileId f) const {
  return f < counts_.size() ? counts_[f] : 0;
}

std::vector<FileId> AccessLog::ranked() const {
  std::vector<FileId> files;
  for (FileId f = 0; f < counts_.size(); ++f) {
    if (counts_[f] > 0) files.push_back(f);
  }
  // Ids are ascending already, so a stable sort by count breaks ties by id.
  std::stable_sort(files.begin(), files.end(), [this](FileId a, FileId b) {
    return counts_[a] > counts_[b];
  });
  return files;
}

}  // namespace eevfs::trace
