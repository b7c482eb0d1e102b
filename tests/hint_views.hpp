// Hints a test owns: per-file offset vectors, handed to a node or the
// prefetcher as the FileHints views the storage server would send.
#pragma once

#include <map>
#include <vector>

#include "core/prefetcher.hpp"
#include "trace/record.hpp"
#include "util/units.hpp"

namespace eevfs::core {

/// Per-file sorted access offsets, ascending by file.
using HintOffsets = std::map<trace::FileId, std::vector<Tick>>;

/// Views of `offsets`, ascending by file; valid while `offsets` lives
/// unchanged.
inline std::vector<FileHints> hint_views(const HintOffsets& offsets) {
  std::vector<FileHints> views;
  views.reserve(offsets.size());
  for (const auto& [file, ticks] : offsets) views.push_back({file, ticks});
  return views;
}

}  // namespace eevfs::core
