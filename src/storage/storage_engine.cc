#include "storage/storage_engine.h"

#include <algorithm>
#include <map>

#include "storage/serializer.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/trace.h"

namespace gemstone::storage {

StorageEngine::StorageEngine(SimulatedDisk* disk)
    : disk_(disk),
      commit_manager_(disk),
      boxer_(disk->track_capacity()),
      telemetry_(telemetry::MetricsRegistry::Global().Register(
          [this](telemetry::SampleSink* sink) {
            sink->Counter("engine.commits", commits_.value());
            sink->Counter("engine.objects_written", objects_written_.value());
            sink->Counter("engine.bytes_written", bytes_written_.value());
            sink->Counter("engine.objects_loaded", objects_loaded_.value());
            sink->Counter("engine.recovery_fallbacks",
                          recovery_fallbacks_.value());
            sink->Gauge("engine.free_tracks", free_tracks_gauge_.value());
            sink->Gauge("engine.epoch", epoch_gauge_.value());
          })) {}

EngineStats StorageEngine::stats() const {
  EngineStats stats;
  stats.commits = commits_.value();
  stats.objects_written = objects_written_.value();
  stats.bytes_written = bytes_written_.value();
  stats.objects_loaded = objects_loaded_.value();
  stats.recovery_fallbacks = recovery_fallbacks_.value();
  return stats;
}

Status StorageEngine::Format() {
  GS_RETURN_IF_ERROR(commit_manager_.Format());
  return Open();
}

Status StorageEngine::Open() {
  const std::vector<RootState> candidates =
      commit_manager_.RecoverRootCandidates();
  if (candidates.empty()) {
    return Status::Corruption("no valid root block on device");
  }
  // Try the newest root first; when a page it names is unreadable (torn
  // track, bit rot, read fault), fall back to the older slot — the reason
  // the device keeps two. The fallback epoch is the pre-crash committed
  // state, so recovering it is correct, never a hybrid. A page both roots
  // share fails both, and Open fails with it.
  Catalog catalog;
  const RootState* adopted = nullptr;
  Status last_error = Status::OK();
  for (const RootState& root : candidates) {
    auto tree = commit_manager_.ReadTree(root);
    auto parsed = tree.ok() ? Catalog::Decode(tree.value())
                            : Result<Catalog>(tree.status());
    if (!parsed.ok()) {
      recovery_fallbacks_.Increment();
      telemetry::FlightRecorder::Global().Record(
          telemetry::FlightEventKind::kRecoveryFallback, 0, root.epoch, 0,
          parsed.status().message());
      last_error = parsed.status();
      continue;
    }
    catalog = std::move(parsed).value();
    adopted = &root;
    break;
  }
  if (adopted == nullptr) {
    return last_error;
  }
  // Every track the catalog's pages and extents name is in use, once per
  // page or extent on it.
  std::unordered_map<TrackId, std::uint32_t> refs;
  for (const IndexPage& page : catalog.index()) ++refs[page.ref.track];
  for (const CatalogPage& page : catalog.pages()) {
    ++refs[page.ref.track];
    for (const auto& [oid, extent] : page.entries) {
      for (TrackId t : extent.tracks) ++refs[t];
    }
  }
  tracks_.Reset(disk_->num_tracks());
  for (const auto& [track, count] : refs) {
    if (track >= disk_->num_tracks()) {
      return Status::Corruption("catalog names a track beyond the device");
    }
    tracks_.MarkUsed(track);
  }
  catalog_ = std::move(catalog);
  track_refs_ = std::move(refs);
  epoch_ = adopted->epoch;
  open_ = true;
  free_tracks_gauge_.Set(static_cast<std::int64_t>(tracks_.free_count()));
  epoch_gauge_.Set(static_cast<std::int64_t>(epoch_));
  return Status::OK();
}

void StorageEngine::AddRefs(const std::vector<TrackId>& tracks) {
  for (TrackId t : tracks) ++track_refs_[t];
}

void StorageEngine::DropRefs(const std::vector<TrackId>& tracks) {
  for (TrackId t : tracks) {
    auto it = track_refs_.find(t);
    if (it == track_refs_.end()) continue;
    if (--it->second == 0) {
      track_refs_.erase(it);
      tracks_.Free(t);
    }
  }
}

Status StorageEngine::CommitObjects(
    const std::vector<const GsObject*>& objects, const SymbolTable& symbols) {
  if (!open_) return Status::TransactionState("engine not open");
  TELEM_SPAN("engine.commit");
  // 1. Serialize + 2. box into track payloads.
  std::vector<Oid> oids;
  std::vector<std::vector<std::uint8_t>> blobs;
  oids.reserve(objects.size());
  blobs.reserve(objects.size());
  Boxing boxing;
  {
    TELEM_SPAN("commit.box");
    for (const GsObject* object : objects) {
      oids.push_back(object->oid());
      blobs.push_back(SerializeObject(*object, symbols));
    }
    GS_ASSIGN_OR_RETURN(boxing, boxer_.Pack(oids, blobs));
  }
  // 3. Allocate shadow tracks for the data.
  GS_ASSIGN_OR_RETURN(std::vector<TrackId> data_tracks,
                      tracks_.Allocate(boxing.payloads.size()));
  // 4. Build the changed-extent list and link the next versions of the
  // leaves it touches and of the index pages over them.
  Linker::LinkResult linked;
  std::vector<std::pair<Oid, Extent>> changed;
  {
    TELEM_SPAN("commit.link");
    changed.reserve(objects.size());
    for (std::size_t i = 0; i < oids.size(); ++i) {
      Extent extent;
      extent.byte_len = static_cast<std::uint32_t>(blobs[i].size());
      extent.checksum = Fnv1a(std::span<const std::uint8_t>(blobs[i]));
      for (std::size_t payload_index : boxing.placements[i]) {
        extent.tracks.push_back(data_tracks[payload_index]);
      }
      if (Catalog::kPageHeaderBytes + Catalog::EntryBytes(extent) >
          CommitManager::kPageBodyBytes) {
        tracks_.Release(data_tracks);
        return Status::InvalidArgument("catalog entry exceeds a page");
      }
      changed.emplace_back(oids[i], std::move(extent));
    }
    linked = Linker::Link(catalog_, changed);
  }
  std::size_t new_pages = 0;
  for (const auto& splice : linked.leaves) new_pages += splice.pages.size();
  for (const auto& splice : linked.index) new_pages += splice.pages.size();
  auto page_alloc = tracks_.Allocate(commit_manager_.PageTracksFor(new_pages));
  if (!page_alloc.ok()) {
    tracks_.Release(data_tracks);
    return page_alloc.status();
  }
  const std::vector<TrackId> page_tracks = std::move(page_alloc).value();

  // 5. Lay the rewritten leaves, then the index pages naming them, onto
  // the page tracks.
  CommitManager::PageTrackWriter pages(page_tracks,
                                       commit_manager_.pages_per_track());
  std::vector<TrackId> written_pages;  // each new page's track
  for (LeafSplice& splice : linked.leaves) {
    for (CatalogPage& page : splice.pages) {
      page.ref = pages.Add(Catalog::EncodePage(page));
      written_pages.push_back(page.ref.track);
    }
  }
  const std::vector<PageRef> leaf_refs =
      RefsAfter(catalog_.pages(), linked.leaves);
  for (std::size_t s = 0; s < linked.index.size(); ++s) {
    std::size_t leaf = linked.index_first_leaf[s];
    for (IndexPage& page : linked.index[s].pages) {
      page.ref = pages.Add(CommitManager::EncodeIndexPage(
          std::span<const PageRef>(leaf_refs).subspan(leaf, page.leaves)));
      written_pages.push_back(page.ref.track);
      leaf += page.leaves;
    }
  }
  const std::vector<PageRef> index = RefsAfter(catalog_.index(), linked.index);

  // 6. Safe group write: the data, the page tracks, the root flip.
  std::uint64_t bytes_written = 0;
  TrackWrites group;
  group.reserve(boxing.payloads.size());
  for (std::size_t i = 0; i < boxing.payloads.size(); ++i) {
    bytes_written += boxing.payloads[i].bytes.size();
    group.emplace_back(data_tracks[i], std::move(boxing.payloads[i].bytes));
  }
  const TrackWrites page_writes = pages.Take();
  for (const auto& [track, image] : page_writes) bytes_written += image.size();
  bytes_written += CommitManager::RootBytes(index.size());
  Status commit_status =
      commit_manager_.CommitGroup(group, page_writes, index, epoch_ + 1);
  if (!commit_status.ok()) {
    tracks_.Release(data_tracks);
    tracks_.Release(page_tracks);
    return commit_status;
  }

  // 7. The group is durable: adopt the new pages and recycle superseded
  // track versions (object history lives inside the new images). A shared
  // track frees only when its last extent or page is superseded.
  for (const auto& [oid, extent] : changed) {
    AddRefs(extent.tracks);
  }
  AddRefs(written_pages);
  DropRefs(linked.superseded_tracks);
  DropRefs(linked.superseded_pages);
  catalog_.Apply(std::move(linked.leaves), std::move(linked.index));
  ++epoch_;
  commits_.Increment();
  objects_written_.Increment(objects.size());
  bytes_written_.Increment(bytes_written);
  free_tracks_gauge_.Set(static_cast<std::int64_t>(tracks_.free_count()));
  epoch_gauge_.Set(static_cast<std::int64_t>(epoch_));
  return Status::OK();
}

Result<GsObject> StorageEngine::LoadObject(Oid oid, SymbolTable* symbols) {
  if (!open_) return Status::TransactionState("engine not open");
  const Extent* extent = catalog_.Find(oid);
  if (extent == nullptr) {
    return Status::NotFound("object not in catalog: " + oid.ToString());
  }
  std::vector<std::uint8_t> image(extent->byte_len);
  std::size_t placed = 0;
  for (TrackId t : extent->tracks) {
    GS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> track, disk_->ReadTrack(t));
    GS_ASSIGN_OR_RETURN(
        std::size_t n,
        Boxer::ExtractFragments(track, oid,
                                std::span<std::uint8_t>(image)));
    placed += n;
  }
  if (placed != image.size()) {
    return Status::Corruption("object image incomplete: got " +
                              std::to_string(placed) + " of " +
                              std::to_string(image.size()) + " bytes");
  }
  if (Fnv1a(std::span<const std::uint8_t>(image)) != extent->checksum) {
    return Status::Corruption("object image checksum mismatch");
  }
  objects_loaded_.Increment();
  return DeserializeObject(image, symbols);
}

Result<std::vector<GsObject>> StorageEngine::LoadObjects(
    const std::vector<Oid>& oids, SymbolTable* symbols) {
  if (!open_) return Status::TransactionState("engine not open");
  // Plan: every distinct track, ascending (one sweep across the platter),
  // with the images it must fill.
  struct Pending {
    const Extent* extent;
    std::vector<std::uint8_t> image;
    std::size_t placed = 0;
  };
  std::vector<Pending> pending(oids.size());
  std::map<TrackId, std::vector<std::size_t>> plan;
  for (std::size_t i = 0; i < oids.size(); ++i) {
    const Extent* extent = catalog_.Find(oids[i]);
    if (extent == nullptr) {
      return Status::NotFound("object not in catalog: " +
                              oids[i].ToString());
    }
    pending[i].extent = extent;
    pending[i].image.resize(extent->byte_len);
    for (TrackId t : extent->tracks) plan[t].push_back(i);
  }
  for (const auto& [track, members] : plan) {
    GS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> bytes,
                        disk_->ReadTrack(track));
    // Accept fragments only for requests whose *live extent* includes
    // this track (a shared track can still carry a neighbor's superseded
    // fragments; those must not leak into its current image).
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> wanted;
    for (std::size_t i : members) wanted[oids[i].raw].push_back(i);
    // One sweep over the payload fills every co-located wanted image.
    GS_RETURN_IF_ERROR(Boxer::ForEachFragment(
        bytes, [&](const Boxer::FragmentView& fragment) -> Status {
          auto it = wanted.find(fragment.oid.raw);
          if (it == wanted.end()) return Status::OK();
          for (std::size_t i : it->second) {
            if (fragment.offset + fragment.bytes.size() >
                pending[i].image.size()) {
              return Status::Corruption("fragment outside image bounds");
            }
            std::copy(fragment.bytes.begin(), fragment.bytes.end(),
                      pending[i].image.begin() + fragment.offset);
            pending[i].placed += fragment.bytes.size();
          }
          return Status::OK();
        }));
  }
  std::vector<GsObject> out;
  out.reserve(oids.size());
  for (std::size_t i = 0; i < oids.size(); ++i) {
    if (pending[i].placed != pending[i].image.size()) {
      return Status::Corruption("object image incomplete: " +
                                oids[i].ToString());
    }
    if (Fnv1a(std::span<const std::uint8_t>(pending[i].image)) !=
        pending[i].extent->checksum) {
      return Status::Corruption("object image checksum mismatch: " +
                                oids[i].ToString());
    }
    GS_ASSIGN_OR_RETURN(GsObject object,
                        DeserializeObject(pending[i].image, symbols));
    out.push_back(std::move(object));
    objects_loaded_.Increment();
  }
  return out;
}

std::vector<Oid> StorageEngine::CatalogOids() const {
  std::vector<Oid> oids;
  oids.reserve(catalog_.size());
  for (const CatalogPage& page : catalog_.pages()) {
    for (const auto& [raw, extent] : page.entries) oids.push_back(Oid(raw));
  }
  return oids;
}

double StorageEngine::HistoricalHeatOf(Oid oid) const {
  const Extent* extent = catalog_.Find(oid);
  if (extent == nullptr) return 0;
  const TrackHeatmap& heatmap = disk_->heatmap();
  double heat = 0;
  for (TrackId track : extent->tracks) {
    heat += heatmap.HeatOf(track).historical_heat;
  }
  return heat;
}

void StorageEngine::NoteHistoricalObjectAccess(Oid oid) {
  const Extent* extent = catalog_.Find(oid);
  if (extent == nullptr) return;
  TrackHeatmap& heatmap = disk_->heatmap();
  for (TrackId track : extent->tracks) {
    heatmap.RecordRead(track, /*historical=*/true);
  }
}

}  // namespace gemstone::storage
