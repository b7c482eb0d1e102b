#include "core/buffer_manager.hpp"

#include <cassert>
#include <stdexcept>

namespace eevfs::core {

BufferManager::BufferManager(Bytes capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("BufferManager: capacity must be positive");
  }
}

BufferManager::InsertResult BufferManager::insert(trace::FileId f,
                                                  Bytes bytes,
                                                  bool allow_evict) {
  InsertResult result;
  if (entries_.contains(f)) {
    touch(f);
    result.inserted = true;
    return result;
  }
  if (bytes > capacity_) return result;  // can never fit
  while (used() + bytes > capacity_) {
    if (!allow_evict || lru_.empty()) return result;
    const trace::FileId victim = lru_.back();
    result.evicted.push_back(victim);
    erase(victim);
  }
  lru_.push_front(f);
  entries_.emplace(f, Entry{bytes, lru_.begin(), /*landed=*/false});
  cached_bytes_ += bytes;
  result.inserted = true;
  return result;
}

bool BufferManager::landed(trace::FileId f) const {
  const auto it = entries_.find(f);
  return it != entries_.end() && it->second.landed;
}

void BufferManager::mark_landed(trace::FileId f) {
  const auto it = entries_.find(f);
  if (it != entries_.end()) it->second.landed = true;
}

void BufferManager::touch(trace::FileId f) {
  const auto it = entries_.find(f);
  if (it == entries_.end()) return;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
}

void BufferManager::erase(trace::FileId f) {
  const auto it = entries_.find(f);
  if (it == entries_.end()) return;
  assert(cached_bytes_ >= it->second.bytes);
  cached_bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
}

std::size_t BufferManager::erase_landed_outside(
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

bool BufferManager::reserve_write(Bytes bytes) {
  if (used() + bytes > capacity_) return false;
  write_bytes_ += bytes;
  return true;
}

void BufferManager::release_write(Bytes bytes) {
  assert(write_bytes_ >= bytes);
  write_bytes_ -= bytes;
}

}  // namespace eevfs::core
