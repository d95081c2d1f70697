#include "storage/track_map.h"

#include <algorithm>
#include <bit>
#include <string>

#include "storage/commit_manager.h"

namespace gemstone::storage {

void TrackMap::Reset(TrackId tracks) {
  used_.assign((tracks + 63) / 64, 0);
  // Bits past the last track read as used, so a scan never yields them.
  if (tracks % 64 != 0) used_.back() = ~std::uint64_t{0} << (tracks % 64);
  free_ = tracks;
  cursor_ = 0;
  for (TrackId slot : {CommitManager::kRootSlotA, CommitManager::kRootSlotB}) {
    if (slot < tracks) MarkUsed(slot);
  }
}

void TrackMap::MarkUsed(TrackId track) {
  std::uint64_t& word = used_[track / 64];
  const std::uint64_t bit = std::uint64_t{1} << (track % 64);
  if ((word & bit) != 0) return;
  word |= bit;
  --free_;
}

void TrackMap::Free(TrackId track) {
  std::uint64_t& word = used_[track / 64];
  const std::uint64_t bit = std::uint64_t{1} << (track % 64);
  if ((word & bit) == 0) return;
  word &= ~bit;
  ++free_;
  cursor_ = std::min(cursor_, track);
}

Result<std::vector<TrackId>> TrackMap::Allocate(std::size_t n) {
  if (free_ < n) {
    return Status::IoError("device full: need " + std::to_string(n) +
                           " tracks, have " + std::to_string(free_));
  }
  std::vector<TrackId> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(TakeLowest());
  return out;
}

void TrackMap::Release(const std::vector<TrackId>& tracks) {
  for (TrackId t : tracks) Free(t);
}

TrackId TrackMap::TakeLowest() {
  std::size_t w = cursor_ / 64;
  while (used_[w] == ~std::uint64_t{0}) ++w;
  const TrackId track = static_cast<TrackId>(
      w * 64 + static_cast<std::size_t>(std::countr_one(used_[w])));
  used_[w] |= std::uint64_t{1} << (track % 64);
  --free_;
  cursor_ = track + 1;
  return track;
}

}  // namespace gemstone::storage
