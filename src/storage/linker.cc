#include "storage/linker.h"

#include <algorithm>
#include <iterator>

#include "storage/serializer.h"

namespace gemstone::storage {

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

Result<Catalog> Catalog::Decode(const std::vector<PageImage>& images) {
  Catalog catalog;
  catalog.pages_.reserve(images.size());
  for (const PageImage& image : images) {
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

std::vector<PageRef> Catalog::RefsAfter(
    const std::vector<PageSplice>& splices) const {
  std::vector<PageRef> refs;
  std::size_t next = 0;
  for (const PageSplice& splice : splices) {
    for (; next < splice.first; ++next) refs.push_back(pages_[next].ref);
    for (const CatalogPage& page : splice.pages) refs.push_back(page.ref);
    next = splice.first + splice.count;
  }
  for (; next < pages_.size(); ++next) refs.push_back(pages_[next].ref);
  return refs;
}

void Catalog::Apply(std::vector<PageSplice> splices) {
  // Back to front, so each splice's indexes still name the pages it saw.
  for (auto it = splices.rbegin(); it != splices.rend(); ++it) {
    const auto begin =
        pages_.begin() + static_cast<std::ptrdiff_t>(it->first);
    const auto end = begin + static_cast<std::ptrdiff_t>(it->count);
    for (auto page = begin; page != end; ++page) size_ -= page->entries.size();
    for (const CatalogPage& page : it->pages) size_ += page.entries.size();
    pages_.insert(pages_.erase(begin, end),
                  std::make_move_iterator(it->pages.begin()),
                  std::make_move_iterator(it->pages.end()));
  }
}

Linker::LinkResult Linker::Link(
    const Catalog& current,
    const std::vector<std::pair<Oid, Extent>>& changed,
    std::size_t page_capacity) {
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
    // One run of consecutive dirty pages, [first, last], and its changes,
    // [i, j).
    const std::size_t first = current.PageFor(order[i]->first);
    std::size_t last = first;
    std::size_t j = i;
    for (; j < order.size(); ++j) {
      const std::size_t page = current.PageFor(order[j]->first);
      if (page > last + 1) break;
      last = page;
    }
    PageSplice splice;
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

    // Greedy cut: each page fills its track before the next begins.
    CatalogPage page;
    std::size_t page_bytes = Catalog::kPageHeaderBytes;
    for (auto& entry : merged) {
      const std::size_t bytes = Catalog::EntryBytes(entry.second);
      if (!page.entries.empty() &&
          (page_bytes + bytes > page_capacity ||
           entry.first - page.entries.back().first > UINT32_MAX)) {
        splice.pages.push_back(std::move(page));
        page = CatalogPage();
        page_bytes = Catalog::kPageHeaderBytes;
      }
      page_bytes += bytes;
      page.entries.push_back(std::move(entry));
    }
    splice.pages.push_back(std::move(page));
    result.splices.push_back(std::move(splice));
  }
  return result;
}

}  // namespace gemstone::storage
