// The Track Manager's used-track bitmap (storage/track_map.h): the one
// allocator the primary engine and every tier level share.

#include "storage/track_map.h"

#include <gtest/gtest.h>

#include <vector>

#include "storage/commit_manager.h"

namespace gemstone::storage {
namespace {

TEST(TrackMapTest, NeverYieldsATrackPastTheEnd) {
  TrackMap map;
  map.Reset(70);  // not a multiple of 64: the last word is partial
  ASSERT_EQ(map.free_count(), 68u);
  auto all = map.Allocate(68);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  for (TrackId t : all.value()) EXPECT_LT(t, 70u);
  EXPECT_EQ(all.value().back(), 69u);
  EXPECT_EQ(map.free_count(), 0u);
  EXPECT_FALSE(map.Allocate(1).ok());
}

TEST(TrackMapTest, NeverHandsOutTheRootSlots) {
  TrackMap map;
  map.Reset(8);
  auto all = map.Allocate(map.free_count());
  ASSERT_TRUE(all.ok());
  for (TrackId t : all.value()) {
    EXPECT_NE(t, CommitManager::kRootSlotA);
    EXPECT_NE(t, CommitManager::kRootSlotB);
  }
  // Freeing everything handed out still leaves the root slots in use.
  map.Release(all.value());
  EXPECT_EQ(map.free_count(), 6u);
  EXPECT_EQ(map.Allocate(1).value(),
            std::vector<TrackId>{CommitManager::kFirstDataTrack});
}

TEST(TrackMapTest, AllocateTakesTheLowestFreeTracks) {
  TrackMap map;
  map.Reset(200);
  map.MarkUsed(3);
  map.MarkUsed(5);
  map.MarkUsed(64);
  EXPECT_EQ(map.Allocate(4).value(), (std::vector<TrackId>{2, 4, 6, 7}));
  auto across = map.Allocate(60);
  ASSERT_TRUE(across.ok());
  // Tracks 8..63 then 65..68: the used track 64 is skipped.
  EXPECT_EQ(across.value().front(), 8u);
  EXPECT_EQ(across.value()[55], 63u);
  EXPECT_EQ(across.value()[56], 65u);
  EXPECT_EQ(across.value().back(), 68u);
}

TEST(TrackMapTest, AFreeBelowTheCursorIsReusedFirst) {
  TrackMap map;
  map.Reset(300);
  ASSERT_TRUE(map.Allocate(150).ok());  // tracks 2..151
  map.Free(10);
  map.Free(100);
  EXPECT_EQ(map.Allocate(3).value(), (std::vector<TrackId>{10, 100, 152}));
}

TEST(TrackMapTest, AllocatingMoreThanIsFreeFailsAndTakesNothing) {
  TrackMap map;
  map.Reset(16);
  ASSERT_TRUE(map.Allocate(10).ok());
  const std::size_t before = map.free_count();
  ASSERT_EQ(before, 4u);
  auto over = map.Allocate(before + 1);
  ASSERT_FALSE(over.ok());
  EXPECT_TRUE(over.status().IsIoError()) << over.status().ToString();
  EXPECT_EQ(map.free_count(), before);
  // What was free is still there, lowest first.
  EXPECT_EQ(map.Allocate(before).value(),
            (std::vector<TrackId>{12, 13, 14, 15}));
}

}  // namespace
}  // namespace gemstone::storage
