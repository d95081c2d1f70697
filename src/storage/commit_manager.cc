#include "storage/commit_manager.h"

#include <algorithm>

#include "storage/serializer.h"
#include "telemetry/trace.h"

namespace gemstone::storage {

namespace {
constexpr std::uint32_t kRootMagic = 0x47535250;  // "GSRP"
// magic + epoch + index page count + index hash + trailing checksum.
constexpr std::size_t kRootFixedBytes = 4 + 8 + 4 + 8 + 8;
// Each index page in the root: its track and its slot.
constexpr std::size_t kRootEntryBytes = 4 + 2;
// A frame's checksum covers its length, body and padding.
constexpr std::size_t kPageSummedBytes =
    CommitManager::kPageBytes - CommitManager::kPageTrailerBytes;

// Binds a root to the exact index page versions it names.
std::uint64_t HashPageChecksums(const std::vector<std::uint64_t>& checksums) {
  ByteWriter out;
  for (std::uint64_t c : checksums) out.PutU64(c);
  return Fnv1a(out.bytes());
}

// The page tracks a tree read caches, one at a time: pages a commit wrote
// together sit on one track, so a tree walk mostly rereads the last one.
class TrackCache {
 public:
  explicit TrackCache(const SimulatedDisk* disk) : disk_(disk) {}

  // The verified body of the page at `ref`, and the checksum its frame
  // ends in.
  Result<std::pair<std::vector<std::uint8_t>, std::uint64_t>> ReadPage(
      const PageRef& ref) {
    if (!loaded_ || track_ != ref.track) {
      loaded_ = false;
      GS_ASSIGN_OR_RETURN(bytes_, disk_->ReadTrack(ref.track));
      track_ = ref.track;
      loaded_ = true;
    }
    const std::size_t begin =
        static_cast<std::size_t>(ref.slot) * CommitManager::kPageBytes;
    if (begin + CommitManager::kPageBytes > bytes_.size()) {
      return Status::Corruption("catalog page slot beyond its track");
    }
    const auto frame = std::span<const std::uint8_t>(bytes_).subspan(
        begin, CommitManager::kPageBytes);
    ByteReader trailer(frame.subspan(kPageSummedBytes));
    GS_ASSIGN_OR_RETURN(std::uint64_t stored, trailer.GetU64());
    if (Fnv1a(frame.first(kPageSummedBytes)) != stored) {
      return Status::Corruption("catalog page checksum mismatch");
    }
    ByteReader in(frame);
    GS_ASSIGN_OR_RETURN(std::uint16_t len, in.GetU16());
    if (len > CommitManager::kPageBodyBytes) {
      return Status::Corruption("catalog page body overruns its frame");
    }
    const auto body = frame.subspan(2, len);
    return std::make_pair(std::vector<std::uint8_t>(body.begin(), body.end()),
                          stored);
  }

 private:
  const SimulatedDisk* disk_;
  bool loaded_ = false;
  TrackId track_ = 0;
  std::vector<std::uint8_t> bytes_;
};
}  // namespace

std::size_t CommitManager::RootBytes(std::size_t index_pages) {
  return kRootFixedBytes + index_pages * kRootEntryBytes;
}

std::size_t CommitManager::max_index_pages() const {
  return disk_->track_capacity() < kRootFixedBytes
             ? 0
             : (disk_->track_capacity() - kRootFixedBytes) / kRootEntryBytes;
}

std::size_t CommitManager::pages_per_track() const {
  // Slots are u16.
  return std::min<std::size_t>(disk_->track_capacity() / kPageBytes,
                               std::size_t{1} << 16);
}

std::vector<std::uint8_t> CommitManager::EncodeIndexPage(
    std::span<const PageRef> leaves) {
  ByteWriter out;
  for (const PageRef& leaf : leaves) {
    out.PutU32(leaf.track);
    out.PutU16(leaf.slot);
    out.PutU64(leaf.checksum);
  }
  return out.Take();
}

PageRef CommitManager::PageTrackWriter::Add(
    std::span<const std::uint8_t> body) {
  const std::size_t slot = pages_++ % pages_per_track_;
  if (slot == 0) {
    writes_.emplace_back(tracks_[writes_.size()], std::vector<std::uint8_t>());
  }
  std::vector<std::uint8_t>& image = writes_.back().second;
  const std::size_t begin = image.size();
  ByteWriter head;
  head.PutU16(static_cast<std::uint16_t>(body.size()));
  image.insert(image.end(), head.bytes().begin(), head.bytes().end());
  image.insert(image.end(), body.begin(), body.end());
  image.resize(begin + kPageSummedBytes, 0);
  const std::uint64_t checksum = Fnv1a(
      std::span<const std::uint8_t>(image).subspan(begin, kPageSummedBytes));
  ByteWriter trailer;
  trailer.PutU64(checksum);
  image.insert(image.end(), trailer.bytes().begin(), trailer.bytes().end());
  return PageRef{writes_.back().first, static_cast<std::uint16_t>(slot),
                 checksum};
}

Status CommitManager::WriteRoot(const RootState& root) {
  ByteWriter out;
  out.PutU32(kRootMagic);
  out.PutU64(root.epoch);
  out.PutU32(static_cast<std::uint32_t>(root.index.size()));
  out.PutU64(root.index_hash);
  for (const PageRef& page : root.index) {
    out.PutU32(page.track);
    out.PutU16(page.slot);
  }
  const std::uint64_t checksum = Fnv1a(out.bytes());
  out.PutU64(checksum);
  const TrackId slot =
      (root.epoch % 2 == 0) ? kRootSlotA : kRootSlotB;
  return disk_->WriteTrack(slot, out.Take());
}

Status CommitManager::Format() {
  if (pages_per_track() == 0) {
    return Status::InvalidArgument("a track cannot hold a catalog page");
  }
  // Both slots receive a valid empty root. Slot B (epoch 1) is written
  // last, so recovery — which prefers the highest epoch — starts from an
  // empty catalog at epoch 1 and the first commit flips epoch 2 into
  // slot A, preserving the even/odd slot alternation.
  RootState empty;
  empty.epoch = 0;
  empty.index_hash = HashPageChecksums({});
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
    auto count = in.GetU32();
    auto hash = in.GetU64();
    if (!epoch.ok() || !count.ok() || !hash.ok()) continue;
    if (in.remaining() != count.value() * kRootEntryBytes) continue;
    root.epoch = epoch.value();
    root.index_hash = hash.value();
    root.index.reserve(count.value());
    for (std::uint32_t i = 0; i < count.value(); ++i) {
      PageRef page;
      page.track = in.GetU32().value();
      page.slot = in.GetU16().value();
      root.index.push_back(page);
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
                                  const TrackWrites& page_tracks,
                                  const std::vector<PageRef>& index,
                                  std::uint64_t next_epoch) {
  // Validate before any track is written: a doomed commit performs zero
  // I/O, so nothing needs undoing.
  for (const auto& [track, image] : page_tracks) {
    if (image.size() > disk_->track_capacity()) {
      return Status::InvalidArgument("catalog page track exceeds a track");
    }
  }
  if (index.size() > max_index_pages()) {
    return Status::InvalidArgument("catalog index list does not fit the root");
  }
  {
    TELEM_SPAN("commit.write_group");
    // Phase 1: shadow writes of the data group. A failure here leaves the
    // previous root pointing exclusively at old tracks.
    for (const auto& [track, bytes] : data_tracks) {
      GS_RETURN_IF_ERROR(disk_->WriteTrack(track, bytes));
    }
    // Phase 2: the rewritten catalog pages, on fresh page tracks.
    for (const auto& [track, image] : page_tracks) {
      GS_RETURN_IF_ERROR(disk_->WriteTrack(track, image));
    }
  }
  // Phase 3: the atomicity point — one root-track write.
  TELEM_SPAN("commit.flip_root");
  RootState root;
  root.epoch = next_epoch;
  std::vector<std::uint64_t> checksums;
  checksums.reserve(index.size());
  for (const PageRef& page : index) checksums.push_back(page.checksum);
  root.index = index;
  root.index_hash = HashPageChecksums(checksums);
  return WriteRoot(root);
}

Result<PageTree> CommitManager::ReadTree(const RootState& root) const {
  TrackCache cache(disk_);
  PageTree tree;
  tree.index.reserve(root.index.size());
  std::vector<std::vector<std::uint8_t>> bodies;
  std::vector<std::uint64_t> checksums;
  for (PageRef ref : root.index) {
    GS_ASSIGN_OR_RETURN(auto page, cache.ReadPage(ref));
    if (page.first.empty() || page.first.size() % kIndexRefBytes != 0) {
      return Status::Corruption("malformed catalog index page");
    }
    ref.checksum = page.second;
    checksums.push_back(ref.checksum);
    tree.index.push_back(IndexPage{page.first.size() / kIndexRefBytes, ref});
    bodies.push_back(std::move(page.first));
  }
  if (HashPageChecksums(checksums) != root.index_hash) {
    return Status::Corruption("catalog index pages do not match the root");
  }
  for (const std::vector<std::uint8_t>& body : bodies) {
    ByteReader in(body);
    while (in.remaining() != 0) {
      PageRef leaf;
      GS_ASSIGN_OR_RETURN(leaf.track, in.GetU32());
      GS_ASSIGN_OR_RETURN(leaf.slot, in.GetU16());
      GS_ASSIGN_OR_RETURN(leaf.checksum, in.GetU64());
      GS_ASSIGN_OR_RETURN(auto page, cache.ReadPage(leaf));
      if (page.second != leaf.checksum) {
        return Status::Corruption("catalog leaf does not match its index page");
      }
      tree.leaves.push_back(PageImage{leaf, std::move(page.first)});
    }
  }
  return tree;
}

std::size_t CommitManager::StreamPageTracks(std::size_t bytes) const {
  const std::size_t leaves = (bytes + kPageBodyBytes - 1) / kPageBodyBytes;
  return PageTracksFor(leaves +
                       (leaves + kRefsPerIndexPage - 1) / kRefsPerIndexPage);
}

Status CommitManager::CommitStream(const TrackWrites& data_tracks,
                                   std::span<const std::uint8_t> stream,
                                   const std::vector<TrackId>& page_tracks,
                                   std::uint64_t next_epoch) {
  PageTrackWriter writer(page_tracks, pages_per_track());
  std::vector<PageRef> leaves;
  for (std::size_t begin = 0; begin < stream.size(); begin += kPageBodyBytes) {
    leaves.push_back(writer.Add(stream.subspan(
        begin, std::min(kPageBodyBytes, stream.size() - begin))));
  }
  std::vector<PageRef> index;
  for (std::size_t begin = 0; begin < leaves.size();
       begin += kRefsPerIndexPage) {
    index.push_back(writer.Add(EncodeIndexPage(
        std::span<const PageRef>(leaves).subspan(
            begin, std::min(kRefsPerIndexPage, leaves.size() - begin)))));
  }
  return CommitGroup(data_tracks, writer.Take(), index, next_epoch);
}

Result<std::vector<std::uint8_t>> CommitManager::ReadStream(
    const RootState& root, std::vector<TrackId>* page_tracks) const {
  GS_ASSIGN_OR_RETURN(PageTree tree, ReadTree(root));
  std::vector<std::uint8_t> bytes;
  for (const PageImage& leaf : tree.leaves) {
    bytes.insert(bytes.end(), leaf.body.begin(), leaf.body.end());
    if (page_tracks != nullptr) page_tracks->push_back(leaf.ref.track);
  }
  if (page_tracks != nullptr) {
    for (const IndexPage& page : tree.index) {
      page_tracks->push_back(page.ref.track);
    }
  }
  return bytes;
}

}  // namespace gemstone::storage
