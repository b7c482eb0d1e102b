#include "core/cache_index.hpp"

#include <cassert>
#include <iterator>
#include <stdexcept>

namespace eevfs::core {

const char* to_string(RamCachePolicy policy) {
  switch (policy) {
    case RamCachePolicy::kLru:
      return "lru";
    case RamCachePolicy::kPopularity:
      return "popularity";
    case RamCachePolicy::kTinyLfu:
      return "tinylfu";
  }
  return "unknown";
}

CacheIndex::CacheIndex(Bytes capacity, RamCachePolicy policy)
    : capacity_(capacity), policy_(policy) {
  if (capacity == 0) {
    throw std::invalid_argument("CacheIndex: capacity must be positive");
  }
  if (policy_ == RamCachePolicy::kTinyLfu) sketch_ = std::make_unique<Sketch>();
}

bool CacheIndex::landed(trace::FileId f) const {
  const auto it = entries_.find(f);
  return it != entries_.end() && it->second.landed;
}

bool CacheIndex::lookup(trace::FileId f) {
  bump(f);
  const auto it = entries_.find(f);
  if (it == entries_.end()) return false;
  refresh(it->second);
  return true;
}

CacheIndex::InsertResult CacheIndex::admit(trace::FileId f, Bytes bytes,
                                           bool allow_evict,
                                           std::uint32_t weight) {
  InsertResult result;
  bump(f);
  const auto it = entries_.find(f);
  if (it != entries_.end()) {
    it->second.weight = weight;
    refresh(it->second);
    result.inserted = true;
    return result;
  }
  if (bytes > capacity_) return result;
  while (free_bytes() < bytes) {
    if (!allow_evict) return result;
    const trace::FileId victim = select_victim();
    if (victim == trace::kInvalidFile) return result;
    if (!may_displace(f, weight, victim)) return result;
    erase(victim);
    result.evicted.push_back(victim);
  }
  lru_.push_front(f);
  entries_.emplace(f, Entry{.bytes = bytes, .lru_pos = lru_.begin(),
                            .weight = weight});
  cached_bytes_ += bytes;
  result.inserted = true;
  result.created = true;
  return result;
}

void CacheIndex::mark_landed(trace::FileId f) {
  const auto it = entries_.find(f);
  if (it != entries_.end()) it->second.landed = true;
}

bool CacheIndex::pin(trace::FileId f, Bytes bytes) {
  const auto it = entries_.find(f);
  if (it != entries_.end()) {
    if (it->second.pinned) return true;
    // Promote a resident unpinned entry in place.
    lru_.erase(it->second.lru_pos);
    cached_bytes_ -= it->second.bytes;
    pinned_bytes_ += it->second.bytes;
    it->second.pinned = true;
    return true;
  }
  if (bytes > capacity_ || !evict_for(bytes)) return false;
  entries_.emplace(f, Entry{.bytes = bytes, .lru_pos = lru_.end(),
                            .pinned = true});
  pinned_bytes_ += bytes;
  return true;
}

void CacheIndex::erase(trace::FileId f) {
  const auto it = entries_.find(f);
  if (it == entries_.end()) return;
  if (it->second.pinned) {
    pinned_bytes_ -= it->second.bytes;
  } else {
    lru_.erase(it->second.lru_pos);
    cached_bytes_ -= it->second.bytes;
  }
  entries_.erase(it);
}

std::size_t CacheIndex::erase_landed_outside(
    const std::set<trace::FileId>& keep) {
  std::size_t erased = 0;
  for (auto pos = lru_.begin(); pos != lru_.end();) {
    const trace::FileId f = *pos++;  // erase(f) unlinks the node just left
    if (!keep.contains(f) && landed(f)) {
      erase(f);
      ++erased;
    }
  }
  return erased;
}

bool CacheIndex::reserve_write(Bytes bytes, bool allow_evict) {
  // Reserved writes may displace unpinned entries but never pinned ones:
  // the hot set stays resident through a write burst.
  if (bytes > capacity_) return false;
  if (allow_evict ? !evict_for(bytes) : free_bytes() < bytes) return false;
  write_bytes_ += bytes;
  return true;
}

void CacheIndex::release_write(Bytes bytes) {
  assert(write_bytes_ >= bytes);
  write_bytes_ -= bytes;
}

void CacheIndex::refresh(const Entry& e) {
  if (!e.pinned) lru_.splice(lru_.begin(), lru_, e.lru_pos);
}

bool CacheIndex::evict_for(Bytes bytes) {
  while (free_bytes() < bytes) {
    const trace::FileId victim = select_victim();
    if (victim == trace::kInvalidFile) return false;
    erase(victim);
  }
  return true;
}

trace::FileId CacheIndex::select_victim() const {
  if (lru_.empty()) return trace::kInvalidFile;
  if (policy_ == RamCachePolicy::kPopularity) {
    // Lowest weight loses; scan from the LRU end so ties go to the
    // least recently used entry.  The list order is deterministic.
    trace::FileId best = lru_.back();
    std::uint32_t best_weight = entries_.at(best).weight;
    for (auto it = std::next(lru_.rbegin()); it != lru_.rend(); ++it) {
      const std::uint32_t w = entries_.at(*it).weight;
      if (w < best_weight) {
        best = *it;
        best_weight = w;
      }
    }
    return best;
  }
  return lru_.back();
}

bool CacheIndex::may_displace(trace::FileId f, std::uint32_t weight,
                              trace::FileId victim) const {
  switch (policy_) {
    case RamCachePolicy::kLru:
      return true;
    case RamCachePolicy::kPopularity:
      return weight >= entries_.at(victim).weight;
    case RamCachePolicy::kTinyLfu:
      // Admission filter: only a candidate whose recent-access estimate
      // beats the victim's may push it out.
      return estimate(f) > estimate(victim);
  }
  return true;
}

std::size_t CacheIndex::sketch_index(trace::FileId f, std::size_t row) {
  // splitmix64 finalizer over (file, row) — deterministic, well mixed.
  std::uint64_t x = static_cast<std::uint64_t>(f) +
                    (static_cast<std::uint64_t>(row) + 1) *
                        0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x) & (kSketchWidth - 1);
}

std::uint32_t CacheIndex::estimate(trace::FileId f) const {
  std::uint32_t min = UINT32_MAX;
  for (std::size_t row = 0; row < kSketchRows; ++row) {
    const std::uint32_t c = sketch_->counts[row][sketch_index(f, row)];
    if (c < min) min = c;
  }
  return min;
}

void CacheIndex::bump(trace::FileId f) {
  if (!sketch_) return;
  for (std::size_t row = 0; row < kSketchRows; ++row) {
    std::uint8_t& c = sketch_->counts[row][sketch_index(f, row)];
    if (c < UINT8_MAX) ++c;
  }
  if (++sketch_->samples < kSketchSampleLimit) return;
  // Periodic halving keeps the sketch a sliding-window estimate instead
  // of an all-time count, so a cooled-off file loses its seniority.
  for (auto& row : sketch_->counts) {
    for (std::uint8_t& c : row) c = static_cast<std::uint8_t>(c >> 1);
  }
  sketch_->samples = 0;
}

}  // namespace eevfs::core
