#ifndef GEMSTONE_STORAGE_COMMIT_MANAGER_H_
#define GEMSTONE_STORAGE_COMMIT_MANAGER_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/result.h"
#include "storage/simulated_disk.h"

namespace gemstone::storage {

/// Where one catalog page lives: its page track, its slot on that track,
/// and the checksum its frame ends in.
struct PageRef {
  TrackId track = 0;
  std::uint16_t slot = 0;
  std::uint64_t checksum = 0;
};

/// A verified catalog page read back from the device.
struct PageImage {
  PageRef ref;
  std::vector<std::uint8_t> body;  // the frame's body, without length,
                                   // padding or checksum
};

/// An index page: it names a run of `leaves` consecutive leaf pages.
struct IndexPage {
  std::size_t leaves = 0;
  PageRef ref;
};

/// The two-level page tree a root names, read back and verified: the
/// index pages in order, and every leaf they name, in order.
struct PageTree {
  std::vector<IndexPage> index;
  std::vector<PageImage> leaves;
};

/// The durable root of the store, written alternately to tracks 0 and 1.
/// Recovery picks the valid root with the highest epoch, so a crash at any
/// point during a commit leaves the previous epoch intact. The root names
/// the catalog's index pages, in order, and binds their exact versions
/// with one hash over their checksums; each index page in turn holds the
/// checksum of every leaf it names.
struct RootState {
  std::uint64_t epoch = 0;
  /// The root stores each index page's track and slot, not its checksum
  /// (the hash binds those), so `checksum` reads back as 0.
  std::vector<PageRef> index;
  std::uint64_t index_hash = 0;
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
/// The catalog is a two-level tree of fixed-size pages packed several to
/// a *page track*: a commit shadows only the pages it changes, and the
/// new root lists the index pages beside those it shares with the
/// previous epoch.
class CommitManager {
 public:
  explicit CommitManager(SimulatedDisk* disk) : disk_(disk) {}

  static constexpr TrackId kRootSlotA = 0;
  static constexpr TrackId kRootSlotB = 1;
  static constexpr TrackId kFirstDataTrack = 2;

  /// Every catalog page is one fixed-size frame on its page track: a u16
  /// body length, the body, zero padding, then an FNV-1a checksum of all
  /// that. 512 B is 1/16 of an 8 KiB track.
  static constexpr std::size_t kPageBytes = 512;
  static constexpr std::size_t kPageTrailerBytes = 8;
  static constexpr std::size_t kPageBodyBytes =
      kPageBytes - 2 - kPageTrailerBytes;
  /// An index page body is its leaves' refs back to back: track, slot,
  /// checksum.
  static constexpr std::size_t kIndexRefBytes = 4 + 2 + 8;
  static constexpr std::size_t kRefsPerIndexPage =
      kPageBodyBytes / kIndexRefBytes;

  /// Bytes of a root that lists `index_pages` index pages.
  static std::size_t RootBytes(std::size_t index_pages);
  /// The most index pages a root on this device lists.
  std::size_t max_index_pages() const;

  /// Pages one track of this device holds (0 when a track is smaller than
  /// a page: Format refuses such a device).
  std::size_t pages_per_track() const;
  /// Page tracks `pages` fresh pages take.
  std::size_t PageTracksFor(std::size_t pages) const {
    return (pages + pages_per_track() - 1) / pages_per_track();
  }

  /// An index page body naming `leaves`, in order.
  static std::vector<std::uint8_t> EncodeIndexPage(
      std::span<const PageRef> leaves);

  /// Lays page frames onto fresh page tracks, filling each track before
  /// the next, in the order the pages are added.
  class PageTrackWriter {
   public:
    PageTrackWriter(std::vector<TrackId> tracks, std::size_t pages_per_track)
        : tracks_(std::move(tracks)), pages_per_track_(pages_per_track) {}
    /// Frames `body` (at most kPageBodyBytes) into the next slot and
    /// answers where it lives.
    PageRef Add(std::span<const std::uint8_t> body);
    /// The page tracks' images, one per track added to.
    TrackWrites Take() { return std::move(writes_); }

   private:
    std::vector<TrackId> tracks_;
    std::size_t pages_per_track_;
    std::size_t pages_ = 0;
    TrackWrites writes_;
  };

  /// Writes epoch-0 empty roots into both slots. InvalidArgument, before
  /// any write, when a track cannot hold a page.
  Status Format();

  /// Reads both root slots and returns the valid one with the highest
  /// epoch; Corruption if neither slot holds a valid root.
  Result<RootState> RecoverRoot() const;

  /// Every valid root on the device, newest epoch first (0–2 entries).
  /// Recovery tries them in order: when a page the newest root names
  /// turns out unreadable, the older slot is the fallback — that is the
  /// point of keeping two slots.
  std::vector<RootState> RecoverRootCandidates() const;

  /// The safe group write. Writes `data_tracks` and `page_tracks` (shadow
  /// copies), then flips the root to `next_epoch` listing `index` — every
  /// index page of the catalog, rewritten and shared alike. A page track
  /// over a track or an index list over the root fails with
  /// InvalidArgument before any track is written. If any write fails, the
  /// function returns the error and the previous root remains the
  /// recovered state — none of the group is visible.
  Status CommitGroup(const TrackWrites& data_tracks,
                     const TrackWrites& page_tracks,
                     const std::vector<PageRef>& index,
                     std::uint64_t next_epoch);

  /// Reads every page `root` names: its index pages, checked against the
  /// root's hash, then each leaf, checked against the checksum its index
  /// page holds. Corruption on any mismatch.
  Result<PageTree> ReadTree(const RootState& root) const;

  /// A catalog kept as one byte stream and rewritten whole on every flip
  /// (a tier level's): the stream is cut into leaves, in order, with index
  /// pages over them. Page tracks a stream of `bytes` takes.
  std::size_t StreamPageTracks(std::size_t bytes) const;

  /// CommitGroup for a whole stream: lays `stream` onto `page_tracks`
  /// (StreamPageTracks(stream.size()) fresh tracks) and commits it with
  /// `data_tracks`.
  Status CommitStream(const TrackWrites& data_tracks,
                      std::span<const std::uint8_t> stream,
                      const std::vector<TrackId>& page_tracks,
                      std::uint64_t next_epoch);

  /// The stream `root` names, verified as ReadTree verifies it.
  /// `page_tracks`, when given, receives the page tracks it lives on.
  Result<std::vector<std::uint8_t>> ReadStream(
      const RootState& root, std::vector<TrackId>* page_tracks = nullptr) const;

 private:
  Status WriteRoot(const RootState& root);

  SimulatedDisk* disk_;
};

}  // namespace gemstone::storage

#endif  // GEMSTONE_STORAGE_COMMIT_MANAGER_H_
