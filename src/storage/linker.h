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

/// One catalog leaf: a contiguous run of ascending oids whose encoding
/// fits one page body.
struct CatalogPage {
  std::vector<std::pair<std::uint64_t, Extent>> entries;  // ascending oid
  PageRef ref;  // where this version lives on the device
};

/// The next version of the pages [first, first + count) of one level of
/// the catalog: `pages` replace them (count is 0 only when the catalog
/// was empty).
template <typename Page>
struct Splice {
  std::size_t first = 0;
  std::size_t count = 0;
  std::vector<Page> pages;
};
using LeafSplice = Splice<CatalogPage>;
using IndexSplice = Splice<IndexPage>;

/// The refs of a level's pages once `splices` (ascending `first`) replace
/// the pages they name.
template <typename Page>
std::vector<PageRef> RefsAfter(const std::vector<Page>& pages,
                               const std::vector<Splice<Page>>& splices) {
  std::vector<PageRef> refs;
  std::size_t next = 0;
  for (const Splice<Page>& splice : splices) {
    for (; next < splice.first; ++next) refs.push_back(pages[next].ref);
    for (const Page& page : splice.pages) refs.push_back(page.ref);
    next = splice.first + splice.count;
  }
  for (; next < pages.size(); ++next) refs.push_back(pages[next].ref);
  return refs;
}

/// The durable global object table: oid -> extent, kept as the ordered
/// leaves of a two-level page tree whose index pages the root names. This
/// is the disk face of §6's "global object table" through which GOOPs
/// resolve.
class Catalog {
 public:
  const Extent* Find(Oid oid) const;
  bool Contains(Oid oid) const { return Find(oid) != nullptr; }
  std::size_t size() const { return size_; }
  /// The leaves, in oid order.
  const std::vector<CatalogPage>& pages() const { return pages_; }
  /// The index pages, in order; each names the next run of leaves.
  const std::vector<IndexPage>& index() const { return index_; }

  /// Index of the leaf `oid` belongs in: the last leaf whose first oid is
  /// not above it, else the first leaf; 0 for an empty catalog.
  std::size_t PageFor(Oid oid) const;

  /// A leaf body opens with its first oid; each entry then stores its
  /// oid as the distance from the entry before, so a leaf breaks wherever
  /// that distance exceeds 32 bits.
  static constexpr std::size_t kPageHeaderBytes = 8;
  /// Bytes one entry takes in a leaf body.
  static std::size_t EntryBytes(const Extent& extent) {
    return 20 + 4 * extent.tracks.size();
  }
  /// A leaf's body: the header, then its entries back to back.
  static std::vector<std::uint8_t> EncodePage(const CatalogPage& page);
  /// Rebuilds the catalog from the page tree a root names.
  static Result<Catalog> Decode(const PageTree& tree);

  /// Adopts a commit's splices (each level ascending `first`) once the
  /// root that lists them is durable.
  void Apply(std::vector<LeafSplice> leaves, std::vector<IndexSplice> index);

 private:
  std::vector<CatalogPage> pages_;  // disjoint, ascending oid ranges
  std::vector<IndexPage> index_;    // their leaf counts sum to pages_.size()
  std::size_t size_ = 0;
};

/// The Linker (§6): "incorporates updates made by a transaction in the
/// permanent database at commit time." Given the pre-commit catalog and
/// the extents the Boxer produced for this commit's changed objects, it
/// yields the next versions of only the leaves those oids fall in and of
/// the index pages over those leaves, and reports which tracks the commit
/// supersedes (reusable once the new root is durable — the object's
/// *history* lives inside its image, so superseded track versions carry
/// no information the new image lacks).
///
/// At each level, consecutive dirty pages are re-cut together by one
/// greedy routine, so each page fills before the next begins: a bulk load
/// packs leaves and index pages full, an overflowing page splits, and
/// ascending new oids append to the last leaf. Unchanged pages stay shared
/// with the previous epoch.
class Linker {
 public:
  struct LinkResult {
    std::vector<LeafSplice> leaves;  // ascending `first`; refs unset
    std::vector<IndexSplice> index;  // ascending `first`; refs unset
    /// Per index splice: the position, among the leaves after this
    /// commit, of the first leaf its first page names.
    std::vector<std::size_t> index_first_leaf;
    std::vector<TrackId> superseded_tracks;  // data tracks of old extents
    std::vector<TrackId> superseded_pages;   // page track of each replaced
                                             // leaf and index page
  };

  static LinkResult Link(const Catalog& current,
                         const std::vector<std::pair<Oid, Extent>>& changed);
};

}  // namespace gemstone::storage

#endif  // GEMSTONE_STORAGE_LINKER_H_
