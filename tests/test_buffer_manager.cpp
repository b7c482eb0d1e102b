#include "core/buffer_manager.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace eevfs::core {
namespace {

TEST(BufferManager, RejectsZeroCapacity) {
  EXPECT_THROW(BufferManager(0), std::invalid_argument);
}

TEST(BufferManager, InsertAndContains) {
  BufferManager bm(100);
  EXPECT_FALSE(bm.contains(1));
  const auto r = bm.insert(1, 40, false);
  EXPECT_TRUE(r.inserted);
  EXPECT_TRUE(r.created);
  EXPECT_TRUE(r.evicted.empty());
  EXPECT_TRUE(bm.contains(1));
  EXPECT_EQ(bm.cached_bytes(), 40u);
  EXPECT_EQ(bm.cached_files(), 1u);
}

TEST(BufferManager, ReinsertIsTouch) {
  BufferManager bm(100);
  bm.insert(1, 40, false);
  const auto r = bm.insert(1, 40, false);
  EXPECT_TRUE(r.inserted);
  EXPECT_FALSE(r.created);  // the entry's copy is already written or on its way
  EXPECT_EQ(bm.cached_bytes(), 40u);  // not double counted
}

TEST(BufferManager, LandedMarkBelongsToTheEntry) {
  BufferManager bm(100);
  bm.insert(1, 40, false);
  EXPECT_FALSE(bm.landed(1));  // the copy is on its way
  bm.mark_landed(1);
  EXPECT_TRUE(bm.landed(1));
  bm.erase(1);
  EXPECT_FALSE(bm.landed(1));
  // A copy that lands after its entry went marks nothing.
  bm.mark_landed(1);
  EXPECT_FALSE(bm.contains(1));
  bm.insert(1, 40, false);
  EXPECT_FALSE(bm.landed(1));
}

TEST(BufferManager, EraseLandedOutsideKeepsCopiesInFlight) {
  BufferManager bm(100);
  for (const trace::FileId f : {1u, 2u, 3u, 4u}) bm.insert(f, 10, false);
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
  BufferManager bm(100);
  bm.insert(1, 60, false);
  const auto r = bm.insert(2, 60, false);
  EXPECT_FALSE(r.inserted);
  EXPECT_FALSE(bm.contains(2));
}

TEST(BufferManager, EvictsLruWhenAllowed) {
  BufferManager bm(100);
  bm.insert(1, 40, false);
  bm.insert(2, 40, false);
  // Touch 1 so 2 becomes the LRU victim.
  bm.touch(1);
  const auto r = bm.insert(3, 40, true);
  EXPECT_TRUE(r.inserted);
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0], 2u);
  EXPECT_TRUE(bm.contains(1));
  EXPECT_FALSE(bm.contains(2));
  EXPECT_TRUE(bm.contains(3));
}

TEST(BufferManager, EvictsMultipleVictimsIfNeeded) {
  BufferManager bm(100);
  bm.insert(1, 30, false);
  bm.insert(2, 30, false);
  bm.insert(3, 30, false);
  const auto r = bm.insert(4, 70, true);
  EXPECT_TRUE(r.inserted);
  ASSERT_EQ(r.evicted.size(), 2u);  // 1 and 2 (oldest first)
  EXPECT_EQ(r.evicted[0], 1u);
  EXPECT_EQ(r.evicted[1], 2u);
}

TEST(BufferManager, OversizeFileNeverFits) {
  BufferManager bm(100);
  bm.insert(1, 50, false);
  const auto r = bm.insert(2, 101, true);
  EXPECT_FALSE(r.inserted);
  EXPECT_TRUE(bm.contains(1));  // nothing was evicted for a lost cause
}

TEST(BufferManager, EraseReleasesSpace) {
  BufferManager bm(100);
  bm.insert(1, 70, false);
  bm.erase(1);
  EXPECT_FALSE(bm.contains(1));
  EXPECT_EQ(bm.cached_bytes(), 0u);
  bm.erase(1);  // idempotent
  EXPECT_TRUE(bm.insert(2, 100, false).inserted);
}

TEST(BufferManager, WriteReservationSharesCapacity) {
  BufferManager bm(100);
  bm.insert(1, 60, false);
  EXPECT_TRUE(bm.reserve_write(40));
  EXPECT_EQ(bm.pending_write_bytes(), 40u);
  EXPECT_EQ(bm.used(), 100u);
  EXPECT_FALSE(bm.reserve_write(1));
  bm.release_write(40);
  EXPECT_EQ(bm.pending_write_bytes(), 0u);
  EXPECT_TRUE(bm.reserve_write(40));
}

TEST(BufferManager, WriteReservationBlocksCacheInsert) {
  BufferManager bm(100);
  ASSERT_TRUE(bm.reserve_write(80));
  EXPECT_FALSE(bm.insert(1, 30, false).inserted);
  EXPECT_TRUE(bm.insert(2, 20, false).inserted);
}

TEST(BufferManager, TouchUnknownFileIsNoop) {
  BufferManager bm(100);
  bm.touch(42);  // must not crash
  EXPECT_FALSE(bm.contains(42));
}

}  // namespace
}  // namespace eevfs::core
