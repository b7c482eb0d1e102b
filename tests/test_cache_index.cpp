// CacheIndex, the index behind both caching tiers.  The BufferManager
// suite drives it as the buffer disk's index (kLru, no pins, eviction
// only when the caller allows it); the RamCache suite drives it as the
// RAM tier's (admission policies, pinning, write reservations that
// evict, the TinyLFU frequency sketch).  The index is pure bookkeeping
// (no sim time, no I/O), so every test is a direct state-machine check.
#include "core/cache_index.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace eevfs::core {
namespace {

constexpr Bytes kSlot = 10 * kMB;

TEST(BufferManager, RejectsZeroCapacity) {
  EXPECT_THROW(CacheIndex(0), std::invalid_argument);
}

TEST(BufferManager, InsertAndContains) {
  CacheIndex bm(100);
  EXPECT_FALSE(bm.contains(1));
  const auto r = bm.admit(1, 40, false);
  EXPECT_TRUE(r.inserted);
  EXPECT_TRUE(r.created);
  EXPECT_TRUE(r.evicted.empty());
  EXPECT_TRUE(bm.contains(1));
  EXPECT_EQ(bm.cached_bytes(), 40u);
}

TEST(BufferManager, ReinsertIsTouch) {
  CacheIndex bm(100);
  bm.admit(1, 40, false);
  const auto r = bm.admit(1, 40, false);
  EXPECT_TRUE(r.inserted);
  EXPECT_FALSE(r.created);  // the entry's copy is already written or on its way
  EXPECT_EQ(bm.cached_bytes(), 40u);  // not double counted
}

TEST(BufferManager, LandedMarkBelongsToTheEntry) {
  CacheIndex bm(100);
  bm.admit(1, 40, false);
  EXPECT_FALSE(bm.landed(1));  // the copy is on its way
  bm.mark_landed(1);
  EXPECT_TRUE(bm.landed(1));
  bm.erase(1);
  EXPECT_FALSE(bm.landed(1));
  // A copy that lands after its entry went marks nothing.
  bm.mark_landed(1);
  EXPECT_FALSE(bm.contains(1));
  bm.admit(1, 40, false);
  EXPECT_FALSE(bm.landed(1));
}

TEST(BufferManager, EraseLandedOutsideKeepsCopiesInFlight) {
  CacheIndex bm(100);
  for (const trace::FileId f : {1u, 2u, 3u, 4u}) bm.admit(f, 10, false);
  bm.mark_landed(1);
  bm.mark_landed(2);
  bm.mark_landed(4);
  EXPECT_EQ(bm.erase_landed_outside({2}), 2u);  // 1 and 4
  EXPECT_FALSE(bm.contains(1));
  EXPECT_TRUE(bm.landed(2));
  EXPECT_TRUE(bm.contains(3));  // still on its way
  EXPECT_FALSE(bm.contains(4));
  EXPECT_EQ(bm.cached_bytes(), 20u);
}

TEST(BufferManager, FailsWithoutEvictionWhenFull) {
  CacheIndex bm(100);
  bm.admit(1, 60, false);
  const auto r = bm.admit(2, 60, false);
  EXPECT_FALSE(r.inserted);
  EXPECT_FALSE(bm.contains(2));
}

TEST(BufferManager, EvictsLruWhenAllowed) {
  CacheIndex bm(100);
  bm.admit(1, 40, false);
  bm.admit(2, 40, false);
  // Look 1 up so 2 becomes the LRU victim.
  EXPECT_TRUE(bm.lookup(1));
  const auto r = bm.admit(3, 40, true);
  EXPECT_TRUE(r.inserted);
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0], 2u);
  EXPECT_TRUE(bm.contains(1));
  EXPECT_FALSE(bm.contains(2));
  EXPECT_TRUE(bm.contains(3));
}

TEST(BufferManager, EvictsMultipleVictimsIfNeeded) {
  CacheIndex bm(100);
  bm.admit(1, 30, false);
  bm.admit(2, 30, false);
  bm.admit(3, 30, false);
  const auto r = bm.admit(4, 70, true);
  EXPECT_TRUE(r.inserted);
  ASSERT_EQ(r.evicted.size(), 2u);  // 1 and 2 (oldest first)
  EXPECT_EQ(r.evicted[0], 1u);
  EXPECT_EQ(r.evicted[1], 2u);
}

TEST(BufferManager, OversizeFileNeverFits) {
  CacheIndex bm(100);
  bm.admit(1, 50, false);
  const auto r = bm.admit(2, 101, true);
  EXPECT_FALSE(r.inserted);
  EXPECT_TRUE(bm.contains(1));  // nothing was evicted for a lost cause
}

TEST(BufferManager, EraseReleasesSpace) {
  CacheIndex bm(100);
  bm.admit(1, 70, false);
  bm.erase(1);
  EXPECT_FALSE(bm.contains(1));
  EXPECT_EQ(bm.cached_bytes(), 0u);
  bm.erase(1);  // idempotent
  EXPECT_TRUE(bm.admit(2, 100, false).inserted);
}

TEST(BufferManager, WriteReservationSharesCapacity) {
  CacheIndex bm(100);
  bm.admit(1, 60, false);
  EXPECT_TRUE(bm.reserve_write(40, false));
  EXPECT_EQ(bm.pending_write_bytes(), 40u);
  EXPECT_EQ(bm.used(), 100u);
  EXPECT_FALSE(bm.reserve_write(1, false));
  EXPECT_TRUE(bm.contains(1));  // a write never evicts a buffered copy
  bm.release_write(40);
  EXPECT_EQ(bm.pending_write_bytes(), 0u);
  EXPECT_TRUE(bm.reserve_write(40, false));
}

TEST(BufferManager, WriteReservationBlocksCacheInsert) {
  CacheIndex bm(100);
  ASSERT_TRUE(bm.reserve_write(80, false));
  EXPECT_FALSE(bm.admit(1, 30, false).inserted);
  EXPECT_TRUE(bm.admit(2, 20, false).inserted);
}

TEST(BufferManager, TouchUnknownFileIsNoop) {
  CacheIndex bm(100);
  EXPECT_FALSE(bm.lookup(42));  // must not crash
  EXPECT_FALSE(bm.contains(42));
}


TEST(RamCache, RejectsZeroCapacity) {
  EXPECT_THROW(CacheIndex(0, RamCachePolicy::kLru), std::invalid_argument);
}

TEST(RamCache, AdmitsUntilFullThenEvictsLeastRecentlyUsed) {
  CacheIndex c(3 * kSlot, RamCachePolicy::kLru);
  EXPECT_TRUE(c.admit(1, kSlot, true).inserted);
  EXPECT_TRUE(c.admit(2, kSlot, true).inserted);
  EXPECT_TRUE(c.admit(3, kSlot, true).inserted);
  EXPECT_EQ(c.cached_bytes(), 3 * kSlot);

  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_TRUE(c.lookup(1));
  const auto res = c.admit(4, kSlot, true);
  EXPECT_TRUE(res.inserted);
  ASSERT_EQ(res.evicted.size(), 1u);
  EXPECT_EQ(res.evicted[0], 2u);
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(4));
}

TEST(RamCache, OversizedObjectIsNotAdmitted) {
  CacheIndex c(kSlot, RamCachePolicy::kLru);
  EXPECT_FALSE(c.admit(1, 2 * kSlot, true).inserted);
  EXPECT_EQ(c.cached_bytes(), 0u);
}

TEST(RamCache, LookupMissReportsFalse) {
  CacheIndex c(kSlot, RamCachePolicy::kLru);
  EXPECT_FALSE(c.lookup(7));
  EXPECT_TRUE(c.admit(7, kSlot, true).inserted);
  EXPECT_TRUE(c.lookup(7));
}

TEST(RamCache, PopularityPolicyKeepsHeavierEntries) {
  CacheIndex c(2 * kSlot, RamCachePolicy::kPopularity);
  EXPECT_TRUE(c.admit(1, kSlot, true, /*weight=*/100).inserted);
  EXPECT_TRUE(c.admit(2, kSlot, true, /*weight=*/50).inserted);
  // A lighter newcomer cannot displace the lightest resident entry.
  EXPECT_FALSE(c.admit(3, kSlot, true, /*weight=*/10).inserted);
  EXPECT_TRUE(c.contains(1));
  EXPECT_TRUE(c.contains(2));
  // A heavier newcomer displaces the lightest resident entry.
  const auto res = c.admit(4, kSlot, true, /*weight=*/60);
  EXPECT_TRUE(res.inserted);
  ASSERT_EQ(res.evicted.size(), 1u);
  EXPECT_EQ(res.evicted[0], 2u);
}

TEST(RamCache, TinyLfuAdmitsOnlyFrequentNewcomers) {
  CacheIndex c(kSlot, RamCachePolicy::kTinyLfu);
  EXPECT_TRUE(c.admit(1, kSlot, true).inserted);
  // The resident entry has been seen once (its admit).  A cold newcomer
  // ties at 1 after its own admit bump, and ties lose.
  EXPECT_FALSE(c.admit(2, kSlot, true).inserted);
  EXPECT_TRUE(c.contains(1));
  // Repeated lookups raise the newcomer's sketch estimate past the
  // resident's; the next admit displaces it.
  for (int i = 0; i < 4; ++i) c.lookup(2);
  const auto res = c.admit(2, kSlot, true);
  EXPECT_TRUE(res.inserted);
  ASSERT_EQ(res.evicted.size(), 1u);
  EXPECT_EQ(res.evicted[0], 1u);
}

TEST(RamCache, PinnedEntriesAreNeverEvicted) {
  CacheIndex c(2 * kSlot, RamCachePolicy::kLru);
  EXPECT_TRUE(c.pin(1, kSlot));
  EXPECT_EQ(c.pinned_bytes(), kSlot);
  EXPECT_TRUE(c.admit(2, kSlot, true).inserted);
  // Only file 2 is evictable; repeated inserts churn it, never file 1.
  const auto res = c.admit(3, kSlot, true);
  EXPECT_TRUE(res.inserted);
  ASSERT_EQ(res.evicted.size(), 1u);
  EXPECT_EQ(res.evicted[0], 2u);
  EXPECT_TRUE(c.contains(1));
}

TEST(RamCache, PinPromotesAnExistingCachedEntry) {
  CacheIndex c(2 * kSlot, RamCachePolicy::kLru);
  EXPECT_TRUE(c.admit(1, kSlot, true).inserted);
  EXPECT_TRUE(c.pin(1, kSlot));
  EXPECT_EQ(c.cached_bytes(), 0u);
  EXPECT_EQ(c.pinned_bytes(), kSlot);
  // Promotion must not double-count the bytes.
  EXPECT_EQ(c.used(), kSlot);
}

TEST(RamCache, PinFailsWhenOnlyPinsRemain) {
  CacheIndex c(2 * kSlot, RamCachePolicy::kLru);
  EXPECT_TRUE(c.pin(1, kSlot));
  EXPECT_TRUE(c.pin(2, kSlot));
  EXPECT_FALSE(c.pin(3, kSlot));
  EXPECT_EQ(c.pinned_bytes(), 2 * kSlot);
}

TEST(RamCache, PinEvictsCleanEntriesToMakeRoom) {
  CacheIndex c(2 * kSlot, RamCachePolicy::kLru);
  EXPECT_TRUE(c.admit(1, kSlot, true).inserted);
  EXPECT_TRUE(c.admit(2, kSlot, true).inserted);
  EXPECT_TRUE(c.pin(3, kSlot));
  EXPECT_FALSE(c.contains(1));  // LRU victim made room for the pin
  EXPECT_TRUE(c.contains(2));
  EXPECT_TRUE(c.contains(3));
}

TEST(RamCache, WriteReservationConsumesAndReleasesSpace) {
  CacheIndex c(2 * kSlot, RamCachePolicy::kLru);
  EXPECT_TRUE(c.reserve_write(kSlot, true));
  EXPECT_EQ(c.pending_write_bytes(), kSlot);
  EXPECT_TRUE(c.reserve_write(kSlot, true));
  EXPECT_FALSE(c.reserve_write(1, true));  // full
  c.release_write(kSlot);
  EXPECT_EQ(c.pending_write_bytes(), kSlot);
  EXPECT_TRUE(c.reserve_write(kSlot, true));
}

TEST(RamCache, WriteReservationEvictsCleanButNotPinned) {
  CacheIndex c(2 * kSlot, RamCachePolicy::kLru);
  EXPECT_TRUE(c.pin(1, kSlot));
  EXPECT_TRUE(c.admit(2, kSlot, true).inserted);
  // The clean entry is sacrificed for write space; the pin survives.
  EXPECT_TRUE(c.reserve_write(kSlot, true));
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(1));
  // Nothing evictable remains: further reservations fail.
  EXPECT_FALSE(c.reserve_write(1, true));
}

TEST(RamCache, EraseFreesBothPinnedAndCleanEntries) {
  CacheIndex c(2 * kSlot, RamCachePolicy::kLru);
  EXPECT_TRUE(c.pin(1, kSlot));
  EXPECT_TRUE(c.admit(2, kSlot, true).inserted);
  c.erase(1);
  c.erase(2);
  EXPECT_EQ(c.used(), 0u);
  EXPECT_FALSE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
}

TEST(RamCache, AdmittingAnExistingFileRefreshesItsWeight) {
  CacheIndex c(2 * kSlot, RamCachePolicy::kPopularity);
  EXPECT_TRUE(c.admit(1, kSlot, true, 10).inserted);
  EXPECT_TRUE(c.admit(2, kSlot, true, 20).inserted);
  // Re-admitting 1 with a higher weight makes 2 the lightest victim.
  EXPECT_TRUE(c.admit(1, kSlot, true, 30).inserted);
  const auto res = c.admit(3, kSlot, true, 25);
  EXPECT_TRUE(res.inserted);
  ASSERT_EQ(res.evicted.size(), 1u);
  EXPECT_EQ(res.evicted[0], 2u);
}

}  // namespace
}  // namespace eevfs::core
