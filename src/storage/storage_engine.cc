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
    auto pages = commit_manager_.ReadPages(root);
    auto parsed = pages.ok() ? Catalog::Decode(pages.value())
                             : Result<Catalog>(pages.status());
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
  catalog_ = std::move(catalog);
  epoch_ = adopted->epoch;

  std::set<TrackId> used = {CommitManager::kRootSlotA,
                            CommitManager::kRootSlotB};
  track_refs_.clear();
  for (const CatalogPage& page : catalog_.pages()) {
    used.insert(page.ref.track);
    for (const auto& [oid, extent] : page.entries) {
      for (TrackId t : extent.tracks) {
        used.insert(t);
        ++track_refs_[t];
      }
    }
  }
  free_tracks_.clear();
  for (TrackId t = 0; t < disk_->num_tracks(); ++t) {
    if (used.count(t) == 0) free_tracks_.insert(t);
  }
  open_ = true;
  free_tracks_gauge_.Set(static_cast<std::int64_t>(free_tracks_.size()));
  epoch_gauge_.Set(static_cast<std::int64_t>(epoch_));
  return Status::OK();
}

Result<std::vector<TrackId>> StorageEngine::Allocate(std::size_t n) {
  if (free_tracks_.size() < n) {
    return Status::IoError("device full: need " + std::to_string(n) +
                           " tracks, have " +
                           std::to_string(free_tracks_.size()));
  }
  std::vector<TrackId> out;
  out.reserve(n);
  auto it = free_tracks_.begin();
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(*it);
    it = free_tracks_.erase(it);
  }
  return out;
}

void StorageEngine::Release(const std::vector<TrackId>& tracks) {
  for (TrackId t : tracks) free_tracks_.insert(t);
}

void StorageEngine::AddExtentRefs(const std::vector<TrackId>& tracks) {
  for (TrackId t : tracks) ++track_refs_[t];
}

void StorageEngine::DropExtentRefs(const std::vector<TrackId>& tracks) {
  for (TrackId t : tracks) {
    auto it = track_refs_.find(t);
    if (it == track_refs_.end()) continue;
    if (--it->second == 0) {
      track_refs_.erase(it);
      free_tracks_.insert(t);
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
                      Allocate(boxing.payloads.size()));
  // 4. Build the changed-extent list and link the next versions of the
  // pages it touches.
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
      changed.emplace_back(oids[i], std::move(extent));
    }
    linked = Linker::Link(catalog_, changed, commit_manager_.page_capacity());
  }
  std::size_t page_count = 0;
  for (const PageSplice& splice : linked.splices) {
    page_count += splice.pages.size();
  }
  auto page_alloc = Allocate(page_count);
  if (!page_alloc.ok()) {
    Release(data_tracks);
    return page_alloc.status();
  }
  const std::vector<TrackId> page_tracks = std::move(page_alloc).value();

  // 5. Safe group write: the data, the changed pages, the root flip.
  std::uint64_t bytes_written = 0;
  TrackWrites group;
  group.reserve(boxing.payloads.size());
  for (std::size_t i = 0; i < boxing.payloads.size(); ++i) {
    bytes_written += boxing.payloads[i].bytes.size();
    group.emplace_back(data_tracks[i], std::move(boxing.payloads[i].bytes));
  }
  TrackWrites page_writes;
  page_writes.reserve(page_count);
  for (PageSplice& splice : linked.splices) {
    for (CatalogPage& page : splice.pages) {
      std::vector<std::uint8_t> image = Catalog::EncodePage(page);
      page.ref.track = page_tracks[page_writes.size()];
      page.ref.checksum = CommitManager::SealPage(&image);
      bytes_written += image.size();
      page_writes.emplace_back(page.ref.track, std::move(image));
    }
  }
  const std::vector<PageRef> pages = catalog_.RefsAfter(linked.splices);
  bytes_written += CommitManager::RootBytes(pages.size());
  Status commit_status =
      commit_manager_.CommitGroup(group, page_writes, pages, epoch_ + 1);
  if (!commit_status.ok()) {
    Release(data_tracks);
    Release(page_tracks);
    return commit_status;
  }

  // 6. The group is durable: adopt the new pages and recycle superseded
  // track versions (object history lives inside the new images). Shared
  // tracks free only when their last referencing extent is superseded.
  for (const auto& [oid, extent] : changed) {
    AddExtentRefs(extent.tracks);
  }
  DropExtentRefs(linked.superseded_tracks);
  Release(linked.superseded_pages);
  catalog_.Apply(std::move(linked.splices));
  ++epoch_;
  commits_.Increment();
  objects_written_.Increment(objects.size());
  bytes_written_.Increment(bytes_written);
  free_tracks_gauge_.Set(static_cast<std::int64_t>(free_tracks_.size()));
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
