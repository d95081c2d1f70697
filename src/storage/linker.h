#ifndef GEMSTONE_STORAGE_LINKER_H_
#define GEMSTONE_STORAGE_LINKER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/ids.h"
#include "core/result.h"
#include "storage/commit_manager.h"
#include "storage/simulated_disk.h"

namespace gemstone::storage {

/// Where one object's serialized image lives on disk.
struct Extent {
  std::vector<TrackId> tracks;  // tracks holding fragments, read in order
  std::uint32_t byte_len = 0;   // size of the serialized image
  std::uint64_t checksum = 0;   // FNV-1a of the image
};

/// One catalog page: a contiguous run of ascending oids whose encoding
/// fits one track.
struct CatalogPage {
  std::vector<std::pair<std::uint64_t, Extent>> entries;  // ascending oid
  PageRef ref;  // where this version lives on the device
};

/// The next version of the pages [first, first + count) of a catalog:
/// `pages` replace them (count is 0 only when the catalog was empty).
struct PageSplice {
  std::size_t first = 0;
  std::size_t count = 0;
  std::vector<CatalogPage> pages;
};

/// The durable global object table: oid -> extent, kept as the ordered
/// list of pages the root names. This is the disk face of §6's "global
/// object table" through which GOOPs resolve.
class Catalog {
 public:
  const Extent* Find(Oid oid) const;
  bool Contains(Oid oid) const { return Find(oid) != nullptr; }
  std::size_t size() const { return size_; }
  const std::vector<CatalogPage>& pages() const { return pages_; }

  /// Index of the page `oid` belongs in: the last page whose first oid is
  /// not above it, else the first page; 0 for an empty catalog.
  std::size_t PageFor(Oid oid) const;

  /// A page body opens with its first oid; each entry then stores its
  /// oid as the distance from the entry before, so a page breaks wherever
  /// that distance exceeds 32 bits.
  static constexpr std::size_t kPageHeaderBytes = 8;
  /// Bytes one entry takes in a page body.
  static std::size_t EntryBytes(const Extent& extent) {
    return 20 + 4 * extent.tracks.size();
  }
  /// A page's body: the header, then its entries back to back (the
  /// commit manager seals it with a checksum trailer).
  static std::vector<std::uint8_t> EncodePage(const CatalogPage& page);
  /// Rebuilds the catalog from the pages a root names, in order.
  static Result<Catalog> Decode(const std::vector<PageImage>& pages);

  /// The root's page list once `splices` (ascending `first`) replace the
  /// pages they name.
  std::vector<PageRef> RefsAfter(const std::vector<PageSplice>& splices) const;
  /// Adopts `splices` once the root that lists them is durable.
  void Apply(std::vector<PageSplice> splices);

 private:
  std::vector<CatalogPage> pages_;  // disjoint, ascending oid ranges
  std::size_t size_ = 0;
};

/// The Linker (§6): "incorporates updates made by a transaction in the
/// permanent database at commit time." Given the pre-commit catalog and
/// the extents the Boxer produced for this commit's changed objects, it
/// yields the next versions of only the pages those oids fall in, and
/// reports which tracks the commit supersedes (reusable once the new root
/// is durable — the object's *history* lives inside its image, so
/// superseded track versions carry no information the new image lacks).
///
/// Consecutive dirty pages are re-cut together, greedily, so each page
/// fills its track before the next begins: a bulk load packs pages full,
/// an overflowing page splits, and ascending new oids append to the last
/// page. Unchanged pages stay shared with the previous epoch.
class Linker {
 public:
  struct LinkResult {
    std::vector<PageSplice> splices;         // ascending `first`
    std::vector<TrackId> superseded_tracks;  // data tracks of old extents
    std::vector<TrackId> superseded_pages;   // tracks of replaced pages
  };

  static LinkResult Link(const Catalog& current,
                         const std::vector<std::pair<Oid, Extent>>& changed,
                         std::size_t page_capacity);
};

}  // namespace gemstone::storage

#endif  // GEMSTONE_STORAGE_LINKER_H_
