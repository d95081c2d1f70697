#ifndef GEMSTONE_STORAGE_TRACK_MAP_H_
#define GEMSTONE_STORAGE_TRACK_MAP_H_

#include <cstdint>
#include <vector>

#include "core/result.h"
#include "storage/simulated_disk.h"

namespace gemstone::storage {

/// The Track Manager (§6): which tracks of a device are in use. One bit
/// per track and a cursor below which every track is in use, so taking
/// the lowest free tracks — which keeps a commit's tracks adjacent —
/// scans from the cursor, and rebuilding the map costs O(catalog), not a
/// node per free track. The primary engine and every tier level each
/// keep one.
class TrackMap {
 public:
  /// Every track of a `tracks`-track device free but the two root slots.
  void Reset(TrackId tracks);
  /// Requires `track` on the device.
  void MarkUsed(TrackId track);
  void Free(TrackId track);
  /// The `n` lowest free tracks, now in use; IoError, taking none, when
  /// fewer than `n` are free.
  Result<std::vector<TrackId>> Allocate(std::size_t n);
  void Release(const std::vector<TrackId>& tracks);
  std::size_t free_count() const { return free_; }

 private:
  TrackId TakeLowest();

  std::vector<std::uint64_t> used_;  // bit t % 64 of word t / 64
  std::size_t free_ = 0;
  TrackId cursor_ = 0;
};

}  // namespace gemstone::storage

#endif  // GEMSTONE_STORAGE_TRACK_MAP_H_
