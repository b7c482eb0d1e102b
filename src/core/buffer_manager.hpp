// Bookkeeping for a storage node's buffer-disk contents: which files are
// cached (prefetched or MAID-style copied on access), whether each copy
// has landed, LRU order for eviction, and the write-buffer region that
// absorbs writes for sleeping data disks (paper §III-C: "if the buffer
// disk has any available space, the free space should be used as a write
// buffer area").
//
// This class tracks *space and membership* only; the actual I/O on the
// buffer DiskModel is issued by StorageNode.  It is the node's one record
// of its buffered copies: an entry is made when a copy is planned, so it
// holds copies still on their way as well as those that landed.
#pragma once

#include <cstdint>
#include <list>
#include <set>
#include <unordered_map>
#include <vector>

#include "trace/record.hpp"
#include "util/units.hpp"

namespace eevfs::core {

class BufferManager {
 public:
  /// `capacity` caps cached-file bytes + pending write-buffer bytes.
  explicit BufferManager(Bytes capacity);

  /// `f` has an entry: its copy landed or is on its way.
  bool contains(trace::FileId f) const { return entries_.contains(f); }
  /// `f`'s copy is on the buffer disk.
  bool landed(trace::FileId f) const;
  std::size_t cached_files() const { return entries_.size(); }
  Bytes cached_bytes() const { return cached_bytes_; }
  Bytes pending_write_bytes() const { return write_bytes_; }
  Bytes used() const { return cached_bytes_ + write_bytes_; }
  Bytes capacity() const { return capacity_; }

  struct InsertResult {
    bool inserted = false;  // `f` has an entry now
    bool created = false;   // ... made by this call: its copy is to be written
    std::vector<trace::FileId> evicted;
  };

  /// Caches a file, its copy not yet landed.  If space is short and
  /// `allow_evict`, evicts LRU entries (never the file itself); otherwise
  /// fails.  A file larger than the whole capacity is never cached.  A
  /// file that already has an entry, landed or on its way, is touched.
  InsertResult insert(trace::FileId f, Bytes bytes, bool allow_evict);

  /// Records that `f`'s copy landed; a no-op when `f` has no entry (it
  /// was evicted while the copy was on its way).
  void mark_landed(trace::FileId f);

  /// Marks a cache hit (moves the file to MRU position).
  void touch(trace::FileId f);

  void erase(trace::FileId f);

  /// Erases every landed copy whose file `keep` does not hold (copies on
  /// their way stay); returns how many went.
  std::size_t erase_landed_outside(const std::set<trace::FileId>& keep);

  /// Reserves write-buffer space; false (caller must write through to the
  /// data disk) when it would overflow the buffer disk.
  bool reserve_write(Bytes bytes);

  /// Releases write-buffer space after the buffered data is flushed.
  void release_write(Bytes bytes);

 private:
  Bytes capacity_;
  Bytes cached_bytes_ = 0;
  Bytes write_bytes_ = 0;
  // LRU list front = most recently used.
  std::list<trace::FileId> lru_;
  struct Entry {
    Bytes bytes;
    std::list<trace::FileId>::iterator lru_pos;
    bool landed;
  };
  std::unordered_map<trace::FileId, Entry> entries_;
};

}  // namespace eevfs::core
