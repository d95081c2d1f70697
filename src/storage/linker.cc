#include "storage/linker.h"

#include <algorithm>
#include <iterator>

#include "storage/serializer.h"

namespace gemstone::storage {

namespace {

// The one re-cut routine both levels share. Cuts `n` items into pages
// greedily: a page takes items until the next would carry it past
// `capacity` bytes or `opens(i)` says item i must open a page of its own,
// so each page fills before the next begins. Answers how many items each
// page takes (n >= 1).
template <typename Bytes, typename Opens>
std::vector<std::size_t> GreedyCut(std::size_t n, std::size_t header,
                                   std::size_t capacity, Bytes bytes,
                                   Opens opens) {
  std::vector<std::size_t> cut;
  std::size_t used = header;
  std::size_t taken = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t b = bytes(i);
    if (taken != 0 && (used + b > capacity || opens(i))) {
      cut.push_back(taken);
      taken = 0;
      used = header;
    }
    used += b;
    ++taken;
  }
  cut.push_back(taken);
  return cut;
}

// Replaces the pages each splice names, back to front, so each splice's
// indexes still name the pages it saw.
template <typename Page>
void ApplySplices(std::vector<Page>* pages, std::vector<Splice<Page>> splices) {
  for (auto it = splices.rbegin(); it != splices.rend(); ++it) {
    const auto begin = pages->begin() + static_cast<std::ptrdiff_t>(it->first);
    pages->insert(pages->erase(begin,
                               begin + static_cast<std::ptrdiff_t>(it->count)),
                  std::make_move_iterator(it->pages.begin()),
                  std::make_move_iterator(it->pages.end()));
  }
}

}  // namespace

std::size_t Catalog::PageFor(Oid oid) const {
  auto it = std::upper_bound(
      pages_.begin(), pages_.end(), oid.raw,
      [](std::uint64_t raw, const CatalogPage& page) {
        return raw < page.entries.front().first;
      });
  return it == pages_.begin()
             ? 0
             : static_cast<std::size_t>(it - pages_.begin()) - 1;
}

const Extent* Catalog::Find(Oid oid) const {
  if (pages_.empty()) return nullptr;
  const auto& entries = pages_[PageFor(oid)].entries;
  auto it = std::lower_bound(
      entries.begin(), entries.end(), oid.raw,
      [](const auto& entry, std::uint64_t raw) { return entry.first < raw; });
  return it != entries.end() && it->first == oid.raw ? &it->second : nullptr;
}

std::vector<std::uint8_t> Catalog::EncodePage(const CatalogPage& page) {
  ByteWriter out;
  std::uint64_t prev = page.entries.front().first;
  out.PutU64(prev);
  for (const auto& [oid, extent] : page.entries) {
    out.PutU32(static_cast<std::uint32_t>(oid - prev));
    prev = oid;
    out.PutU32(extent.byte_len);
    out.PutU64(extent.checksum);
    out.PutU32(static_cast<std::uint32_t>(extent.tracks.size()));
    for (TrackId t : extent.tracks) out.PutU32(t);
  }
  return out.Take();
}

Result<Catalog> Catalog::Decode(const PageTree& tree) {
  Catalog catalog;
  catalog.index_ = tree.index;
  catalog.pages_.reserve(tree.leaves.size());
  for (const PageImage& image : tree.leaves) {
    CatalogPage page;
    page.ref = image.ref;
    ByteReader in(image.body);
    GS_ASSIGN_OR_RETURN(std::uint64_t oid, in.GetU64());
    if (!catalog.pages_.empty() &&
        oid <= catalog.pages_.back().entries.back().first) {
      return Status::Corruption("catalog pages out of order");
    }
    while (in.remaining() != 0) {
      // The first entry sits at the page's own oid; each later one beyond
      // the entry before it.
      GS_ASSIGN_OR_RETURN(std::uint32_t delta, in.GetU32());
      if ((delta == 0) != page.entries.empty()) {
        return Status::Corruption("catalog oids out of order");
      }
      oid += delta;
      Extent extent;
      GS_ASSIGN_OR_RETURN(extent.byte_len, in.GetU32());
      GS_ASSIGN_OR_RETURN(extent.checksum, in.GetU64());
      GS_ASSIGN_OR_RETURN(std::uint32_t num_tracks, in.GetU32());
      extent.tracks.reserve(num_tracks);
      for (std::uint32_t t = 0; t < num_tracks; ++t) {
        GS_ASSIGN_OR_RETURN(TrackId track, in.GetU32());
        extent.tracks.push_back(track);
      }
      page.entries.emplace_back(oid, std::move(extent));
    }
    if (page.entries.empty()) return Status::Corruption("empty catalog page");
    catalog.size_ += page.entries.size();
    catalog.pages_.push_back(std::move(page));
  }
  return catalog;
}

void Catalog::Apply(std::vector<LeafSplice> leaves,
                    std::vector<IndexSplice> index) {
  for (const LeafSplice& splice : leaves) {
    for (std::size_t p = splice.first; p < splice.first + splice.count; ++p) {
      size_ -= pages_[p].entries.size();
    }
    for (const CatalogPage& page : splice.pages) size_ += page.entries.size();
  }
  ApplySplices(&pages_, std::move(leaves));
  ApplySplices(&index_, std::move(index));
}

Linker::LinkResult Linker::Link(
    const Catalog& current,
    const std::vector<std::pair<Oid, Extent>>& changed) {
  LinkResult result;
  // The changes in oid order; stable, so a repeated oid's last extent wins.
  std::vector<const std::pair<Oid, Extent>*> order;
  order.reserve(changed.size());
  for (const auto& change : changed) order.push_back(&change);
  std::stable_sort(order.begin(), order.end(),
                   [](const auto* a, const auto* b) {
                     return a->first < b->first;
                   });
  const std::vector<CatalogPage>& pages = current.pages();
  std::size_t i = 0;
  while (i < order.size()) {
    // One run of consecutive dirty leaves, [first, last], and its changes,
    // [i, j).
    const std::size_t first = current.PageFor(order[i]->first);
    std::size_t last = first;
    std::size_t j = i;
    for (; j < order.size(); ++j) {
      const std::size_t page = current.PageFor(order[j]->first);
      if (page > last + 1) break;
      last = page;
    }
    LeafSplice splice;
    splice.first = first;
    splice.count = pages.empty() ? 0 : last + 1 - first;

    // Merge the run's entries with its changes, both ascending.
    std::vector<std::pair<std::uint64_t, Extent>> merged;
    auto take_change = [&] {
      while (i + 1 < j && order[i + 1]->first == order[i]->first) {
        const auto& dropped = order[i++]->second.tracks;
        result.superseded_tracks.insert(result.superseded_tracks.end(),
                                        dropped.begin(), dropped.end());
      }
      merged.emplace_back(order[i]->first.raw, order[i]->second);
      ++i;
    };
    for (std::size_t p = splice.first; p < splice.first + splice.count; ++p) {
      result.superseded_pages.push_back(pages[p].ref.track);
      for (const auto& entry : pages[p].entries) {
        while (i < j && order[i]->first.raw < entry.first) take_change();
        if (i < j && order[i]->first.raw == entry.first) {
          result.superseded_tracks.insert(result.superseded_tracks.end(),
                                          entry.second.tracks.begin(),
                                          entry.second.tracks.end());
          take_change();
        } else {
          merged.push_back(entry);
        }
      }
    }
    while (i < j) take_change();

    auto next = std::make_move_iterator(merged.begin());
    for (std::size_t take : GreedyCut(
             merged.size(), Catalog::kPageHeaderBytes,
             CommitManager::kPageBodyBytes,
             [&](std::size_t e) {
               return Catalog::EntryBytes(merged[e].second);
             },
             [&](std::size_t e) {
               return e != 0 &&
                      merged[e].first - merged[e - 1].first > UINT32_MAX;
             })) {
      CatalogPage page;
      page.entries.assign(next, next + static_cast<std::ptrdiff_t>(take));
      next += static_cast<std::ptrdiff_t>(take);
      splice.pages.push_back(std::move(page));
    }
    result.leaves.push_back(std::move(splice));
  }

  // The index level: every index page over a dirty leaf is dirty, and a
  // run of consecutive dirty index pages is re-cut over the leaves it
  // names once the leaf splices apply.
  const std::vector<IndexPage>& index = current.index();
  std::vector<std::size_t> starts(index.size() + 1, 0);  // first leaf of each
  for (std::size_t k = 0; k < index.size(); ++k) {
    starts[k + 1] = starts[k] + index[k].leaves;
  }
  auto index_of = [&](std::size_t leaf) {
    return static_cast<std::size_t>(
        std::upper_bound(starts.begin() + 1, starts.end() - 1, leaf) -
        starts.begin() - 1);
  };
  std::ptrdiff_t grown = 0;  // leaves the runs so far added
  for (std::size_t s = 0; s < result.leaves.size();) {
    // An empty catalog has one leaf splice, and one index splice at 0.
    IndexSplice splice;
    std::ptrdiff_t run_grown = 0;
    std::size_t last = 0;
    if (!index.empty()) splice.first = last = index_of(result.leaves[s].first);
    for (; s < result.leaves.size(); ++s) {
      const LeafSplice& leaf = result.leaves[s];
      if (!index.empty()) {
        if (index_of(leaf.first) > last + 1) break;
        last = std::max(last, index_of(leaf.first + leaf.count - 1));
      }
      run_grown += static_cast<std::ptrdiff_t>(leaf.pages.size()) -
                   static_cast<std::ptrdiff_t>(leaf.count);
    }
    if (!index.empty()) {
      splice.count = last + 1 - splice.first;
      for (std::size_t k = splice.first; k <= last; ++k) {
        result.superseded_pages.push_back(index[k].ref.track);
      }
    }
    const std::size_t leaves = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(starts[splice.first + splice.count] -
                                    starts[splice.first]) +
        run_grown);
    result.index_first_leaf.push_back(static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(starts[splice.first]) + grown));
    for (std::size_t take :
         GreedyCut(leaves, 0, CommitManager::kPageBodyBytes,
                   [](std::size_t) { return CommitManager::kIndexRefBytes; },
                   [](std::size_t) { return false; })) {
      splice.pages.push_back(IndexPage{take, PageRef()});
    }
    grown += run_grown;
    result.index.push_back(std::move(splice));
  }
  return result;
}

}  // namespace gemstone::storage
