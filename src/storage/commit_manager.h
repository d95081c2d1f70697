#ifndef GEMSTONE_STORAGE_COMMIT_MANAGER_H_
#define GEMSTONE_STORAGE_COMMIT_MANAGER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/result.h"
#include "storage/simulated_disk.h"

namespace gemstone::storage {

/// One catalog page as the root lists it: the track it lives on and the
/// checksum its image ends in.
struct PageRef {
  TrackId track = 0;
  std::uint64_t checksum = 0;
};

/// A verified catalog page read back from the device.
struct PageImage {
  PageRef ref;
  std::vector<std::uint8_t> body;  // the image minus its checksum trailer
};

/// The durable root of the store, written alternately to tracks 0 and 1.
/// Recovery picks the valid root with the highest epoch, so a crash at any
/// point during a commit leaves the previous epoch intact. The root names
/// the catalog's pages, in catalog order, and binds their exact versions
/// with one hash over the pages' own checksums.
struct RootState {
  std::uint64_t epoch = 0;
  std::vector<TrackId> pages;
  std::uint64_t pages_hash = 0;
};

using TrackWrites = std::vector<std::pair<TrackId, std::vector<std::uint8_t>>>;

/// The Commit Manager (§6): "provides safe writing for groups of tracks.
/// Safe writing guarantees that all the tracks in the group get written,
/// or none get written, and that the tracks in the group replace their old
/// versions atomically."
///
/// Mechanism: every commit writes to *fresh* tracks (shadowing); the group
/// becomes visible only via the single-track root flip, which is the
/// atomicity point. Tracks 0 and 1 are reserved for the two root slots.
/// A commit shadows only the catalog pages it changes; the new root lists
/// them beside the unchanged pages it shares with the previous epoch.
class CommitManager {
 public:
  explicit CommitManager(SimulatedDisk* disk) : disk_(disk) {}

  static constexpr TrackId kRootSlotA = 0;
  static constexpr TrackId kRootSlotB = 1;
  static constexpr TrackId kFirstDataTrack = 2;
  /// Every page image ends in an FNV-1a checksum of its body.
  static constexpr std::size_t kPageTrailerBytes = 8;

  /// Bytes of a root that lists `pages` pages.
  static std::size_t RootBytes(std::size_t pages);

  /// Appends the checksum trailer to a page body, making it the image a
  /// track holds; answers that checksum.
  static std::uint64_t SealPage(std::vector<std::uint8_t>* body);

  /// Room for a page body on this device's tracks.
  std::size_t page_capacity() const {
    return disk_->track_capacity() - kPageTrailerBytes;
  }

  /// Writes epoch-0 empty roots into both slots.
  Status Format();

  /// Reads both root slots and returns the valid one with the highest
  /// epoch; Corruption if neither slot holds a valid root.
  Result<RootState> RecoverRoot() const;

  /// Every valid root on the device, newest epoch first (0–2 entries).
  /// Recovery tries them in order: when a page the newest root names
  /// turns out unreadable, the older slot is the fallback — that is the
  /// point of keeping two slots.
  std::vector<RootState> RecoverRootCandidates() const;

  /// The safe group write. Writes `data_tracks` and the sealed
  /// `page_writes` (shadow copies), then flips the root to `next_epoch`
  /// listing `pages` — the whole catalog, changed and shared pages alike.
  /// A page image over a track or a page list over the root fails with
  /// InvalidArgument before any track is written. If any write fails, the
  /// function returns the error and the previous root remains the
  /// recovered state — none of the group is visible.
  Status CommitGroup(const TrackWrites& data_tracks,
                     const TrackWrites& page_writes,
                     const std::vector<PageRef>& pages,
                     std::uint64_t next_epoch);

  /// Reads every page `root` names, in order. Corruption when a page's
  /// trailer does not match its body or the pages' checksums do not hash
  /// to the root's.
  Result<std::vector<PageImage>> ReadPages(const RootState& root) const;

 private:
  Status WriteRoot(const RootState& root);

  SimulatedDisk* disk_;
};

}  // namespace gemstone::storage

#endif  // GEMSTONE_STORAGE_COMMIT_MANAGER_H_
