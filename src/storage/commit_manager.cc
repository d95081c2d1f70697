#include "storage/commit_manager.h"

#include <algorithm>

#include "storage/serializer.h"
#include "telemetry/trace.h"

namespace gemstone::storage {

namespace {
constexpr std::uint32_t kRootMagic = 0x47535250;  // "GSRP"
// magic + epoch + page count + pages hash + trailing checksum.
constexpr std::size_t kRootFixedBytes = 4 + 8 + 4 + 8 + 8;

// Binds a root to the exact page versions it names.
std::uint64_t HashPageChecksums(const std::vector<std::uint64_t>& checksums) {
  ByteWriter out;
  for (std::uint64_t c : checksums) out.PutU64(c);
  return Fnv1a(out.bytes());
}
}  // namespace

std::size_t CommitManager::RootBytes(std::size_t pages) {
  return kRootFixedBytes + pages * sizeof(TrackId);
}

std::uint64_t CommitManager::SealPage(std::vector<std::uint8_t>* body) {
  const std::uint64_t checksum = Fnv1a(*body);
  ByteWriter trailer;
  trailer.PutU64(checksum);
  body->insert(body->end(), trailer.bytes().begin(), trailer.bytes().end());
  return checksum;
}

Status CommitManager::WriteRoot(const RootState& root) {
  ByteWriter out;
  out.PutU32(kRootMagic);
  out.PutU64(root.epoch);
  out.PutU32(static_cast<std::uint32_t>(root.pages.size()));
  out.PutU64(root.pages_hash);
  for (TrackId t : root.pages) out.PutU32(t);
  const std::uint64_t checksum = Fnv1a(out.bytes());
  out.PutU64(checksum);
  const TrackId slot =
      (root.epoch % 2 == 0) ? kRootSlotA : kRootSlotB;
  return disk_->WriteTrack(slot, out.Take());
}

Status CommitManager::Format() {
  // Both slots receive a valid empty root. Slot B (epoch 1) is written
  // last, so recovery — which prefers the highest epoch — starts from an
  // empty catalog at epoch 1 and the first commit flips epoch 2 into
  // slot A, preserving the even/odd slot alternation.
  RootState empty;
  empty.epoch = 0;
  empty.pages_hash = HashPageChecksums({});
  GS_RETURN_IF_ERROR(WriteRoot(empty));
  RootState second = empty;
  second.epoch = 1;
  return WriteRoot(second);
}

Result<RootState> CommitManager::RecoverRoot() const {
  std::vector<RootState> candidates = RecoverRootCandidates();
  if (candidates.empty()) {
    return Status::Corruption("no valid root block on device");
  }
  return std::move(candidates.front());
}

std::vector<RootState> CommitManager::RecoverRootCandidates() const {
  std::vector<RootState> candidates;
  for (TrackId slot : {kRootSlotA, kRootSlotB}) {
    auto bytes_result = disk_->ReadTrack(slot);
    if (!bytes_result.ok()) continue;
    const std::vector<std::uint8_t>& bytes = bytes_result.value();
    if (bytes.size() < 8) continue;
    const auto body = std::span<const std::uint8_t>(bytes).first(
        bytes.size() - 8);
    ByteReader tail(std::span<const std::uint8_t>(bytes).subspan(
        bytes.size() - 8));
    auto stored = tail.GetU64();
    if (!stored.ok() || Fnv1a(body) != stored.value()) continue;

    ByteReader in(body);
    auto magic = in.GetU32();
    if (!magic.ok() || magic.value() != kRootMagic) continue;
    RootState root;
    auto epoch = in.GetU64();
    auto npages = in.GetU32();
    auto hash = in.GetU64();
    if (!epoch.ok() || !npages.ok() || !hash.ok()) continue;
    if (in.remaining() != npages.value() * sizeof(TrackId)) continue;
    root.epoch = epoch.value();
    root.pages_hash = hash.value();
    root.pages.reserve(npages.value());
    for (std::uint32_t i = 0; i < npages.value(); ++i) {
      root.pages.push_back(in.GetU32().value());
    }
    candidates.push_back(std::move(root));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const RootState& a, const RootState& b) {
              return a.epoch > b.epoch;
            });
  return candidates;
}

Status CommitManager::CommitGroup(const TrackWrites& data_tracks,
                                  const TrackWrites& page_writes,
                                  const std::vector<PageRef>& pages,
                                  std::uint64_t next_epoch) {
  // Validate before any track is written: a doomed commit performs zero
  // I/O, so nothing needs undoing.
  for (const auto& [track, image] : page_writes) {
    if (image.size() > disk_->track_capacity()) {
      return Status::InvalidArgument("catalog page exceeds a track");
    }
  }
  if (RootBytes(pages.size()) > disk_->track_capacity()) {
    return Status::InvalidArgument("catalog page list does not fit the root");
  }
  {
    TELEM_SPAN("commit.write_group");
    // Phase 1: shadow writes of the data group. A failure here leaves the
    // previous root pointing exclusively at old tracks.
    for (const auto& [track, bytes] : data_tracks) {
      GS_RETURN_IF_ERROR(disk_->WriteTrack(track, bytes));
    }
    // Phase 2: the changed catalog pages, each onto a fresh track.
    for (const auto& [track, image] : page_writes) {
      GS_RETURN_IF_ERROR(disk_->WriteTrack(track, image));
    }
  }
  // Phase 3: the atomicity point — one root-track write.
  TELEM_SPAN("commit.flip_root");
  RootState root;
  root.epoch = next_epoch;
  std::vector<std::uint64_t> checksums;
  checksums.reserve(pages.size());
  root.pages.reserve(pages.size());
  for (const PageRef& page : pages) {
    root.pages.push_back(page.track);
    checksums.push_back(page.checksum);
  }
  root.pages_hash = HashPageChecksums(checksums);
  return WriteRoot(root);
}

Result<std::vector<PageImage>> CommitManager::ReadPages(
    const RootState& root) const {
  std::vector<PageImage> pages;
  pages.reserve(root.pages.size());
  std::vector<std::uint64_t> checksums;
  checksums.reserve(root.pages.size());
  for (TrackId t : root.pages) {
    GS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> image, disk_->ReadTrack(t));
    if (image.size() < kPageTrailerBytes) {
      return Status::Corruption("catalog page shorter than its trailer");
    }
    const std::size_t body_len = image.size() - kPageTrailerBytes;
    ByteReader trailer(std::span<const std::uint8_t>(image).subspan(body_len));
    GS_ASSIGN_OR_RETURN(std::uint64_t stored, trailer.GetU64());
    image.resize(body_len);
    if (Fnv1a(image) != stored) {
      return Status::Corruption("catalog page checksum mismatch");
    }
    checksums.push_back(stored);
    pages.push_back(PageImage{PageRef{t, stored}, std::move(image)});
  }
  if (HashPageChecksums(checksums) != root.pages_hash) {
    return Status::Corruption("catalog pages do not match the root");
  }
  return pages;
}

}  // namespace gemstone::storage
