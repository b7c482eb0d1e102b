// The index behind both caching tiers of a storage node: which files a
// tier holds, their recency order, their bytes and the space lent to
// writes.  It tracks *space and membership* only; StorageNode issues the
// modeled I/O, owns the hit/miss/eviction counters (so a crash-stop can
// reset an index without losing run totals), and decides when reserved
// writes flush.
//
// The buffer disk (paper §III-C) is a kLru index without pins.  An entry
// is made when a copy is planned and marked landed when it is written;
// the node calls admit (evicting only for MAID's cache-on-miss), landed,
// lookup on a hit, mark_landed, erase, erase_landed_outside, and
// reserve_write without eviction: the free space is the write buffer.
// Without a sketch, lookup only refreshes recency.  The RAM tier
// uses the configured policy: lookup on the serve path, admit with
// eviction and a popularity weight after a lower-tier read, pin for the
// prefetch hot set, erase, and reserve_write with eviction to stage
// write-backs.  Eviction never touches pinned entries or reserved writes.
//
// Policies:
//   kLru         evict the least-recently-used unpinned entry.
//   kPopularity  evict the lowest-weight unpinned entry (weight = the
//                caller-supplied access-pattern popularity); a new file
//                is admitted only if it beats the victim it displaces.
//   kTinyLfu     TinyLFU-style admission: a count-min sketch of recent
//                accesses decides whether the candidate's estimated
//                frequency beats the LRU victim's before evicting.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "trace/record.hpp"
#include "util/units.hpp"

namespace eevfs::core {

enum class RamCachePolicy { kLru, kPopularity, kTinyLfu };

const char* to_string(RamCachePolicy policy);

class CacheIndex {
 public:
  /// `capacity` caps cached + pinned + reserved-write bytes; throws
  /// std::invalid_argument when it is zero.
  explicit CacheIndex(Bytes capacity,
                      RamCachePolicy policy = RamCachePolicy::kLru);

  Bytes capacity() const { return capacity_; }
  Bytes cached_bytes() const { return cached_bytes_; }
  Bytes pinned_bytes() const { return pinned_bytes_; }
  Bytes pending_write_bytes() const { return write_bytes_; }
  Bytes used() const { return cached_bytes_ + pinned_bytes_ + write_bytes_; }
  /// `f` has an entry, landed or not.
  bool contains(trace::FileId f) const { return entries_.contains(f); }
  /// `f` has an entry marked landed.
  bool landed(trace::FileId f) const;

  /// Membership probe on the serve path: feeds the frequency sketch and
  /// refreshes recency on a hit.  Returns whether `f` is resident.
  bool lookup(trace::FileId f);

  struct InsertResult {
    bool inserted = false;  // `f` has an entry now
    bool created = false;   // ... made by this call: its copy is to be written
    std::vector<trace::FileId> evicted;
  };

  /// Offers a file for residency, its entry not landed.  An existing
  /// entry is touched and gets `weight`, the caller's popularity signal
  /// (used by kPopularity).  When space is short and `allow_evict`,
  /// evicts unpinned entries the policy lets `f` displace; otherwise
  /// fails.  A file larger than the whole capacity is never admitted.
  InsertResult admit(trace::FileId f, Bytes bytes, bool allow_evict,
                     std::uint32_t weight = 0);

  /// Marks `f`'s entry landed; a no-op when `f` has none (it was evicted
  /// while its copy was on its way).
  void mark_landed(trace::FileId f);

  /// Pins a file: resident until erase(), never a victim.  Evicts
  /// unpinned entries as needed; false when that is not enough.
  bool pin(trace::FileId f, Bytes bytes);

  void erase(trace::FileId f);

  /// Erases every landed unpinned entry whose file `keep` does not hold;
  /// returns how many went.
  std::size_t erase_landed_outside(const std::set<trace::FileId>& keep);

  /// Reserves write space, first evicting unpinned entries if
  /// `allow_evict`; false (the caller writes elsewhere) when it does not
  /// fit.
  bool reserve_write(Bytes bytes, bool allow_evict);

  /// Releases reserved write space, never more than is reserved.
  void release_write(Bytes bytes);

 private:
  // 24 bytes: its hash node (40) fits a 48-byte malloc chunk, not 64.
  struct Entry {
    Bytes bytes = 0;
    // Valid only for unpinned entries; pinned files are not in lru_.
    std::list<trace::FileId>::iterator lru_pos;
    std::uint32_t weight = 0;
    bool pinned = false;
    bool landed = false;
  };

  Bytes free_bytes() const { return capacity_ - used(); }
  void refresh(const Entry& e);
  /// Evicts victims, unchecked by the policy, until `bytes` fit.
  bool evict_for(Bytes bytes);
  /// Picks the next victim per policy; kInvalidFile when none exists.
  trace::FileId select_victim() const;
  /// Policy admission check: may `f` displace `victim`?
  bool may_displace(trace::FileId f, std::uint32_t weight,
                    trace::FileId victim) const;

  // --- TinyLFU frequency sketch (count-min, aged by halving) ---------
  static constexpr std::size_t kSketchRows = 4;
  static constexpr std::size_t kSketchWidth = 1024;  // power of two
  static constexpr std::uint64_t kSketchSampleLimit = 8192;
  struct Sketch {
    std::array<std::array<std::uint8_t, kSketchWidth>, kSketchRows> counts{};
    std::uint64_t samples = 0;
  };
  static std::size_t sketch_index(trace::FileId f, std::size_t row);
  std::uint32_t estimate(trace::FileId f) const;
  void bump(trace::FileId f);

  Bytes capacity_;
  RamCachePolicy policy_;
  Bytes cached_bytes_ = 0;
  Bytes pinned_bytes_ = 0;
  Bytes write_bytes_ = 0;
  // LRU list of *unpinned* entries, front = most recently used.
  std::list<trace::FileId> lru_;
  std::unordered_map<trace::FileId, Entry> entries_;
  // Under kTinyLfu only: inline in every node's buffer index, its 4 KiB
  // would be a quarter of a 1,024-node cell's peak memory.
  std::unique_ptr<Sketch> sketch_;
};

}  // namespace eevfs::core
