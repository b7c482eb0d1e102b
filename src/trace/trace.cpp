#include "trace/trace.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace eevfs::trace {

void Trace::throw_unsorted() {
  throw std::invalid_argument("Trace::append: arrivals must be sorted");
}

std::size_t Trace::unique_files() const {
  std::unordered_set<FileId> files;
  for (const TraceRecord& r : records_) files.insert(r.file);
  return files.size();
}

void FilePopularity::add(const TraceRecord& r) {
  if (accesses == 0) {
    file = r.file;
    first_access = r.arrival;
  }
  ++accesses;
  bytes += r.bytes;
  last_access = r.arrival;
  if (accesses > 1) {
    mean_gap = (last_access - first_access) / static_cast<Tick>(accesses - 1);
  }
}

namespace {

// Hashed, as trace ids may be sparse; the total ranking order hides the
// hash order.
std::vector<FilePopularity> summarize(const Trace& trace) {
  std::unordered_map<FileId, FilePopularity> acc;
  for (const TraceRecord& r : trace.records()) acc[r.file].add(r);
  std::vector<FilePopularity> out;
  out.reserve(acc.size());
  for (const auto& [file, p] : acc) out.push_back(p);
  return out;
}

}  // namespace

PopularityAnalyzer::PopularityAnalyzer(const Trace& trace)
    : PopularityAnalyzer(summarize(trace), trace.size()) {}

PopularityAnalyzer::PopularityAnalyzer(std::vector<FilePopularity> summaries,
                                       std::size_t total_accesses)
    : total_accesses_(total_accesses) {
  // Built at its final size: the input may hold an entry for every file,
  // and only the accessed ones are kept for the whole run.
  const auto accessed = [](const FilePopularity& p) { return p.accesses > 0; };
  ranked_.reserve(static_cast<std::size_t>(
      std::count_if(summaries.begin(), summaries.end(), accessed)));
  std::copy_if(summaries.begin(), summaries.end(), std::back_inserter(ranked_),
               accessed);
  std::stable_sort(ranked_.begin(), ranked_.end(),
                   [](const FilePopularity& a, const FilePopularity& b) {
                     if (a.accesses != b.accesses) return a.accesses > b.accesses;
                     return a.file < b.file;
                   });
}

std::size_t PopularityAnalyzer::rank(FileId f) const {
  for (std::size_t i = 0; i < ranked_.size(); ++i) {
    if (ranked_[i].file == f) return i;
  }
  return npos;
}

std::vector<FileId> PopularityAnalyzer::top(std::size_t k) const {
  std::vector<FileId> out;
  out.reserve(std::min(k, ranked_.size()));
  for (std::size_t i = 0; i < ranked_.size() && i < k; ++i) {
    out.push_back(ranked_[i].file);
  }
  return out;
}

double PopularityAnalyzer::coverage(std::size_t k) const {
  if (total_accesses_ == 0) return 0.0;
  std::size_t covered = 0;
  for (std::size_t i = 0; i < ranked_.size() && i < k; ++i) {
    covered += ranked_[i].accesses;
  }
  return static_cast<double>(covered) / static_cast<double>(total_accesses_);
}

}  // namespace eevfs::trace
