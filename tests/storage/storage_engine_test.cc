#include "storage/storage_engine.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "storage/serializer.h"

namespace gemstone::storage {
namespace {

class StorageEngineTest : public ::testing::Test {
 protected:
  StorageEngineTest() : disk_(512, 1024), engine_(&disk_) {
    EXPECT_TRUE(engine_.Format().ok());
  }

  GsObject MakeEmployee(std::uint64_t oid, std::string name,
                        std::int64_t salary, TxnTime t) {
    GsObject obj{Oid(oid), Oid(7)};
    obj.WriteNamed(symbols_.Intern("name"), t, Value::String(std::move(name)));
    obj.WriteNamed(symbols_.Intern("salary"), t, Value::Integer(salary));
    return obj;
  }

  // An object whose boxed image fills exactly one track of disk_'s
  // geometry, so its catalog entry names exactly one track.
  GsObject MakeTrackSized(std::uint64_t oid) {
    auto make = [&](std::size_t len) {
      GsObject obj{Oid(oid), Oid(7)};
      obj.WriteNamed(symbols_.Intern("pad"), 1,
                     Value::String(std::string(len, 'p')));
      return obj;
    };
    const std::size_t base = SerializeObject(make(0), symbols_).size();
    // A track: u32 fragment count, one 16-byte fragment header, the image.
    return make(disk_.track_capacity() - 20 - base);
  }

  // Single-track entries one catalog leaf holds (pages are a fixed size,
  // so on any geometry).
  static std::size_t PerPage() {
    Extent one_track;
    one_track.tracks = {0};
    return (CommitManager::kPageBodyBytes - Catalog::kPageHeaderBytes) /
           Catalog::EntryBytes(one_track);
  }

  // Commits `n` track-sized objects, oids 1000.., as one group.
  Status BulkCommit(StorageEngine* engine, std::size_t n) {
    std::vector<GsObject> objects;
    for (std::size_t i = 0; i < n; ++i) {
      objects.push_back(MakeTrackSized(1000 + i));
    }
    std::vector<const GsObject*> ptrs;
    for (const GsObject& o : objects) ptrs.push_back(&o);
    return engine->CommitObjects(ptrs, symbols_);
  }

  // Commits `n` small employees, oids 1000.., as one group: many share a
  // data track, so a catalog of several index pages fits disk_.
  Status BulkEmployees(StorageEngine* engine, std::size_t n) {
    std::vector<GsObject> objects;
    for (std::size_t i = 0; i < n; ++i) {
      objects.push_back(MakeEmployee(1000 + i, "e", 100, 1));
    }
    std::vector<const GsObject*> ptrs;
    for (const GsObject& o : objects) ptrs.push_back(&o);
    return engine->CommitObjects(ptrs, symbols_);
  }

  // Flips the first byte of the page frame `ref` names.
  Status CorruptPage(SimulatedDisk* disk, const PageRef& ref) {
    return disk->CorruptTrack(ref.track, ref.slot * CommitManager::kPageBytes,
                              0xFF);
  }

  static bool SamePlace(const PageRef& a, const PageRef& b) {
    return a.track == b.track && a.slot == b.slot;
  }

  SymbolTable symbols_;
  SimulatedDisk disk_;
  StorageEngine engine_;
};

TEST_F(StorageEngineTest, FormatYieldsEmptyCatalog) {
  EXPECT_TRUE(engine_.is_open());
  EXPECT_EQ(engine_.catalog().size(), 0u);
}

TEST_F(StorageEngineTest, CommitAndLoadRoundTrip) {
  GsObject emp = MakeEmployee(100, "Ellen Burns", 24650, 1);
  ASSERT_TRUE(engine_.CommitObjects({&emp}, symbols_).ok());
  EXPECT_TRUE(engine_.Contains(Oid(100)));

  auto loaded = engine_.LoadObject(Oid(100), &symbols_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded->ReadNamed(symbols_.Intern("name"), kTimeNow),
            Value::String("Ellen Burns"));
  EXPECT_EQ(engine_.stats().commits, 1u);
}

TEST_F(StorageEngineTest, LoadMissingIsNotFound) {
  EXPECT_EQ(engine_.LoadObject(Oid(77), &symbols_).status().code(),
            StatusCode::kNotFound);
}

TEST_F(StorageEngineTest, RecommitSupersedesOldVersion) {
  GsObject v1 = MakeEmployee(100, "Ellen", 24650, 1);
  ASSERT_TRUE(engine_.CommitObjects({&v1}, symbols_).ok());
  const std::size_t free_after_v1 = engine_.free_track_count();

  GsObject v2 = v1;
  v2.WriteNamed(symbols_.Intern("salary"), 5, Value::Integer(30000));
  ASSERT_TRUE(engine_.CommitObjects({&v2}, symbols_).ok());
  // Old data tracks recycled: free count does not decay monotonically.
  EXPECT_GE(engine_.free_track_count() + 2, free_after_v1);

  auto loaded = engine_.LoadObject(Oid(100), &symbols_).ValueOrDie();
  EXPECT_EQ(*loaded.ReadNamed(symbols_.Intern("salary"), kTimeNow),
            Value::Integer(30000));
  // History survives the rewrite.
  EXPECT_EQ(*loaded.ReadNamed(symbols_.Intern("salary"), 2),
            Value::Integer(24650));
}

TEST_F(StorageEngineTest, ReopenRecoversCatalog) {
  GsObject a = MakeEmployee(100, "Ellen", 24650, 1);
  GsObject b = MakeEmployee(101, "Robert", 24000, 2);
  ASSERT_TRUE(engine_.CommitObjects({&a, &b}, symbols_).ok());

  // "Crash": new engine instance over the same platters.
  StorageEngine recovered(&disk_);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.catalog().size(), 2u);
  SymbolTable fresh;
  auto loaded = recovered.LoadObject(Oid(101), &fresh).ValueOrDie();
  EXPECT_EQ(*loaded.ReadNamed(fresh.Lookup("name"), kTimeNow),
            Value::String("Robert"));
}

TEST_F(StorageEngineTest, LargeObjectSpansTracksAndRoundTrips) {
  GsObject big{Oid(500), Oid(7)};
  for (int i = 0; i < 500; ++i) {
    big.AppendIndexed(1, Value::String("padding-padding-" + std::to_string(i)));
  }
  ASSERT_TRUE(engine_.CommitObjects({&big}, symbols_).ok());
  ASSERT_GT(engine_.catalog().Find(Oid(500))->tracks.size(), 1u);
  auto loaded = engine_.LoadObject(Oid(500), &symbols_).ValueOrDie();
  EXPECT_EQ(loaded.IndexedSizeAt(kTimeNow), 500u);
  EXPECT_EQ(*loaded.ReadIndexed(499, kTimeNow),
            Value::String("padding-padding-499"));
}

// The Commit Manager's safe-writing guarantee: a crash anywhere inside the
// commit group leaves the previous state fully intact.
TEST_F(StorageEngineTest, CrashMidCommitPreservesPreviousEpoch) {
  GsObject v1 = MakeEmployee(100, "Ellen", 24650, 1);
  ASSERT_TRUE(engine_.CommitObjects({&v1}, symbols_).ok());

  // Probe every possible crash point within the next commit group.
  for (std::uint64_t crash_after = 0; crash_after < 12; ++crash_after) {
    SimulatedDisk disk(512, 1024);
    StorageEngine engine(&disk);
    ASSERT_TRUE(engine.Format().ok());
    GsObject base = MakeEmployee(100, "Ellen", 24650, 1);
    ASSERT_TRUE(engine.CommitObjects({&base}, symbols_).ok());

    GsObject update = base;
    update.WriteNamed(symbols_.Intern("salary"), 5, Value::Integer(99999));
    GsObject extra = MakeEmployee(101, "Robert", 24000, 5);
    disk.InjectWriteFailureAfter(crash_after);
    Status s = engine.CommitObjects({&update, &extra}, symbols_);
    disk.ClearFault();

    StorageEngine recovered(&disk);
    ASSERT_TRUE(recovered.Open().ok()) << "crash_after=" << crash_after;
    SymbolTable fresh;
    if (s.ok()) {
      // Fault budget exceeded the group: commit completed.
      auto loaded = recovered.LoadObject(Oid(100), &fresh).ValueOrDie();
      EXPECT_EQ(*loaded.ReadNamed(fresh.Lookup("salary"), kTimeNow),
                Value::Integer(99999));
      EXPECT_TRUE(recovered.Contains(Oid(101)));
    } else {
      // All-or-nothing: previous state intact, new object absent.
      EXPECT_TRUE(s.IsIoError());
      auto loaded = recovered.LoadObject(Oid(100), &fresh).ValueOrDie();
      EXPECT_EQ(*loaded.ReadNamed(fresh.Lookup("salary"), kTimeNow),
                Value::Integer(24650))
          << "crash_after=" << crash_after;
      EXPECT_FALSE(recovered.Contains(Oid(101)));
    }
  }
}

TEST_F(StorageEngineTest, DeviceFullReported) {
  SimulatedDisk tiny(6, 512);  // 2 roots + barely any data tracks
  StorageEngine engine(&tiny);
  ASSERT_TRUE(engine.Format().ok());
  GsObject big{Oid(1), Oid(7)};
  for (int i = 0; i < 200; ++i) {
    big.AppendIndexed(1, Value::String("xxxxxxxxxxxxxxxx"));
  }
  EXPECT_TRUE(engine.CommitObjects({&big}, symbols_).IsIoError());
  // Failed allocation must not leak tracks.
  GsObject small{Oid(2), Oid(7)};
  small.WriteNamed(symbols_.Intern("x"), 1, Value::Integer(1));
  EXPECT_TRUE(engine.CommitObjects({&small}, symbols_).ok());
}

TEST_F(StorageEngineTest, BatchLoadReadsEachTrackOnce) {
  std::vector<GsObject> objects;
  std::vector<const GsObject*> ptrs;
  std::vector<Oid> oids;
  for (int i = 0; i < 20; ++i) {
    objects.push_back(MakeEmployee(300 + static_cast<unsigned>(i),
                                   "emp" + std::to_string(i), i, 1));
    oids.push_back(Oid(300 + static_cast<unsigned>(i)));
  }
  for (const auto& o : objects) ptrs.push_back(&o);
  ASSERT_TRUE(engine_.CommitObjects(ptrs, symbols_).ok());

  disk_.ResetStats();
  auto loaded = engine_.LoadObjects(oids, &symbols_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(loaded->at(static_cast<std::size_t>(i)).oid(), oids[i]);
    EXPECT_EQ(*loaded->at(static_cast<std::size_t>(i))
                   .ReadNamed(symbols_.Intern("name"), kTimeNow),
              Value::String("emp" + std::to_string(i)));
  }
  // Clustered: far fewer track reads than objects.
  EXPECT_LT(disk_.stats().tracks_read, 20u);

  // Missing oid fails as a whole.
  std::vector<Oid> with_missing = oids;
  with_missing.push_back(Oid(9999));
  EXPECT_EQ(engine_.LoadObjects(with_missing, &symbols_).status().code(),
            StatusCode::kNotFound);
}

// Regression: two small objects share one track; superseding one of them
// must not recycle the track while the other's extent still points at it.
TEST_F(StorageEngineTest, SharedTrackSurvivesNeighborRewrite) {
  GsObject a = MakeEmployee(100, "Ellen", 1, 1);
  GsObject b = MakeEmployee(101, "Robert", 2, 1);
  ASSERT_TRUE(engine_.CommitObjects({&a, &b}, symbols_).ok());
  // Both images landed on the same track.
  ASSERT_EQ(engine_.catalog().Find(Oid(100))->tracks,
            engine_.catalog().Find(Oid(101))->tracks);

  // Rewrite only `a`, several times, forcing track churn.
  for (int i = 0; i < 8; ++i) {
    a.WriteNamed(symbols_.Intern("salary"), 2 + static_cast<TxnTime>(i),
                 Value::Integer(100 + i));
    ASSERT_TRUE(engine_.CommitObjects({&a}, symbols_).ok());
  }

  StorageEngine recovered(&disk_);
  ASSERT_TRUE(recovered.Open().ok());
  SymbolTable fresh;
  auto loaded_b = recovered.LoadObject(Oid(101), &fresh);
  ASSERT_TRUE(loaded_b.ok()) << loaded_b.status().ToString();
  EXPECT_EQ(*loaded_b->ReadNamed(fresh.Lookup("name"), kTimeNow),
            Value::String("Robert"));
  auto loaded_a = recovered.LoadObject(Oid(100), &fresh).ValueOrDie();
  EXPECT_EQ(*loaded_a.ReadNamed(fresh.Lookup("salary"), kTimeNow),
            Value::Integer(107));
}

TEST_F(StorageEngineTest, ClusteredObjectsLandOnAdjacentTracks) {
  std::vector<GsObject> objects;
  std::vector<const GsObject*> ptrs;
  for (int i = 0; i < 32; ++i) {
    objects.push_back(MakeEmployee(200 + i, "emp" + std::to_string(i),
                                   1000 + i, 1));
  }
  for (const auto& o : objects) ptrs.push_back(&o);
  ASSERT_TRUE(engine_.CommitObjects(ptrs, symbols_).ok());
  // All 32 small employees pack into a handful of adjacent tracks.
  TrackId lo = ~TrackId{0}, hi = 0;
  for (int i = 0; i < 32; ++i) {
    const Extent* e = engine_.catalog().Find(Oid(200 + i));
    ASSERT_NE(e, nullptr);
    for (TrackId t : e->tracks) {
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
  }
  EXPECT_LE(hi - lo, 8u);
}

// Regression for Format's contract: recovery over a freshly formatted
// device starts from an empty catalog at epoch 1 (slot B written last),
// so the first commit flips epoch 2 into slot A.
TEST_F(StorageEngineTest, FormatRecoversAtEpochOne) {
  CommitManager manager(&disk_);
  auto root = manager.RecoverRoot();
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ(root->epoch, 1u);
  EXPECT_TRUE(root->index.empty());
  EXPECT_EQ(engine_.epoch(), 1u);

  GsObject emp = MakeEmployee(100, "Ellen", 24650, 1);
  ASSERT_TRUE(engine_.CommitObjects({&emp}, symbols_).ok());
  EXPECT_EQ(engine_.epoch(), 2u);
  EXPECT_EQ(manager.RecoverRoot()->epoch, 2u);
}

// A doomed commit must perform zero I/O: the page-fit check runs before
// any track is written.
TEST_F(StorageEngineTest, OversizedCatalogCommitWritesNothing) {
  CommitManager manager(&disk_);
  const std::uint64_t written_before = disk_.stats().tracks_written;
  std::vector<std::uint8_t> page(disk_.track_capacity() * 2, 7);
  Status s = manager.CommitGroup({{5, {1, 2, 3}}}, {{6, page}},
                                 {PageRef{6, 0}}, /*next_epoch=*/2);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(disk_.stats().tracks_written, written_before);
  EXPECT_TRUE(disk_.ReadTrack(5).ValueOrDie().empty());
}

// The dual-root payoff: when the newest epoch's catalog stream fails its
// checksum, Open falls back to the older valid root instead of failing.
TEST_F(StorageEngineTest, OpenFallsBackWhenNewestCatalogCorrupt) {
  GsObject v1 = MakeEmployee(100, "Ellen", 24650, 1);
  ASSERT_TRUE(engine_.CommitObjects({&v1}, symbols_).ok());  // epoch 2
  GsObject v2 = v1;
  v2.WriteNamed(symbols_.Intern("salary"), 5, Value::Integer(30000));
  GsObject extra = MakeEmployee(101, "Robert", 24000, 5);
  ASSERT_TRUE(engine_.CommitObjects({&v2, &extra}, symbols_).ok());  // 3

  // Bit rot inside the index page epoch 3 wrote.
  CommitManager manager(&disk_);
  auto newest = manager.RecoverRoot().ValueOrDie();
  ASSERT_EQ(newest.epoch, 3u);
  ASSERT_FALSE(newest.index.empty());
  ASSERT_TRUE(CorruptPage(&disk_, newest.index[0]).ok());

  StorageEngine recovered(&disk_);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.epoch(), 2u);  // the older slot's state
  EXPECT_GE(recovered.stats().recovery_fallbacks, 1u);
  SymbolTable fresh;
  auto loaded = recovered.LoadObject(Oid(100), &fresh).ValueOrDie();
  EXPECT_EQ(*loaded.ReadNamed(fresh.Lookup("salary"), kTimeNow),
            Value::Integer(24650));
  EXPECT_FALSE(recovered.Contains(Oid(101)));
}

// Same fallback when the newest catalog track is unreadable outright.
TEST_F(StorageEngineTest, OpenFallsBackOnCatalogReadFault) {
  GsObject v1 = MakeEmployee(100, "Ellen", 24650, 1);
  ASSERT_TRUE(engine_.CommitObjects({&v1}, symbols_).ok());
  GsObject v2 = v1;
  v2.WriteNamed(symbols_.Intern("salary"), 5, Value::Integer(30000));
  ASSERT_TRUE(engine_.CommitObjects({&v2}, symbols_).ok());

  CommitManager manager(&disk_);
  auto newest = manager.RecoverRoot().ValueOrDie();
  ASSERT_FALSE(newest.index.empty());
  disk_.InjectReadFault(newest.index[0].track);

  StorageEngine recovered(&disk_);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.epoch(), newest.epoch - 1);
  EXPECT_GE(recovered.stats().recovery_fallbacks, 1u);
  disk_.ClearFault();
}

// One catalog entry must fit a leaf, which caps an object at 118 tracks:
// a larger one fails before any write and leaks no track.
TEST_F(StorageEngineTest, ObjectOverALeafFailsBeforeAnyWrite) {
  GsObject huge{Oid(500), Oid(7)};
  for (int i = 0; i < 7000; ++i) {
    huge.AppendIndexed(1,
                       Value::String("padding-padding-" + std::to_string(i)));
  }
  const std::uint64_t written = disk_.stats().tracks_written;
  const std::size_t free = engine_.free_track_count();
  EXPECT_EQ(engine_.CommitObjects({&huge}, symbols_).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(disk_.stats().tracks_written, written);
  EXPECT_EQ(engine_.free_track_count(), free);
  EXPECT_FALSE(engine_.Contains(Oid(500)));
}

// LoadObject/LoadObjects corruption paths, driven by the fault hooks.
TEST_F(StorageEngineTest, BitFlippedTrackFailsImageChecksum) {
  GsObject a = MakeEmployee(100, "Ellen", 24650, 1);
  GsObject b = MakeEmployee(101, "Robert", 24000, 1);
  ASSERT_TRUE(engine_.CommitObjects({&a, &b}, symbols_).ok());
  const Extent* extent = engine_.catalog().Find(Oid(100));
  ASSERT_NE(extent, nullptr);
  const TrackId track = extent->tracks[0];
  // Flip the last payload byte: framing stays intact, the image doesn't.
  const std::size_t len = disk_.ReadTrack(track).ValueOrDie().size();
  ASSERT_TRUE(disk_.CorruptTrack(track, len - 1, 0x40).ok());

  EXPECT_EQ(engine_.LoadObject(Oid(101), &symbols_).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(engine_.LoadObjects({Oid(100), Oid(101)}, &symbols_)
                .status()
                .code(),
            StatusCode::kCorruption);
}

TEST_F(StorageEngineTest, TruncatedTrackYieldsIncompleteImage) {
  GsObject big{Oid(500), Oid(7)};
  for (int i = 0; i < 500; ++i) {
    big.AppendIndexed(1, Value::String("padding-padding-" + std::to_string(i)));
  }
  ASSERT_TRUE(engine_.CommitObjects({&big}, symbols_).ok());
  const Extent* extent = engine_.catalog().Find(Oid(500));
  ASSERT_GT(extent->tracks.size(), 1u);
  // Drop the whole tail track: the image cannot be reassembled.
  ASSERT_TRUE(disk_.TruncateTrack(extent->tracks.back(), 0).ok());

  EXPECT_EQ(engine_.LoadObject(Oid(500), &symbols_).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(engine_.LoadObjects({Oid(500)}, &symbols_).status().code(),
            StatusCode::kCorruption);
}

TEST_F(StorageEngineTest, ReadFaultSurfacesAsIoError) {
  GsObject emp = MakeEmployee(100, "Ellen", 24650, 1);
  ASSERT_TRUE(engine_.CommitObjects({&emp}, symbols_).ok());
  const Extent* extent = engine_.catalog().Find(Oid(100));
  disk_.InjectReadFault(extent->tracks[0]);
  EXPECT_TRUE(engine_.LoadObject(Oid(100), &symbols_).status().IsIoError());
  EXPECT_TRUE(
      engine_.LoadObjects({Oid(100)}, &symbols_).status().IsIoError());
  disk_.ClearFault();
  EXPECT_TRUE(engine_.LoadObject(Oid(100), &symbols_).ok());
}

// A leaf both roots share condemns both: Open fails with Corruption and
// adopts no partial catalog, as for a corrupt data track.
TEST_F(StorageEngineTest, OpenFailsOnCorruptSharedCatalogPage) {
  const std::size_t n = 2 * PerPage();
  ASSERT_TRUE(BulkCommit(&engine_, n).ok());  // epoch 2: two full leaves
  const std::vector<CatalogPage> before = engine_.catalog().pages();
  ASSERT_EQ(before.size(), 2u);
  GsObject last = MakeTrackSized(1000 + n - 1);
  ASSERT_TRUE(engine_.CommitObjects({&last}, symbols_).ok());  // epoch 3
  const std::vector<CatalogPage>& after = engine_.catalog().pages();
  ASSERT_TRUE(SamePlace(after[0].ref, before[0].ref));   // shared
  ASSERT_FALSE(SamePlace(after[1].ref, before[1].ref));  // epoch 3 wrote it
  ASSERT_EQ(CommitManager(&disk_).RecoverRootCandidates().size(), 2u);
  ASSERT_TRUE(CorruptPage(&disk_, before[0].ref).ok());

  StorageEngine recovered(&disk_);
  EXPECT_EQ(recovered.Open().code(), StatusCode::kCorruption);
  EXPECT_FALSE(recovered.is_open());
  EXPECT_EQ(recovered.catalog().size(), 0u);
  EXPECT_FALSE(recovered.Contains(Oid(1000)));
}

// Two index pages, then an update of the last oid: the newest root names
// a new last leaf and a new last index page, and shares the first index
// page with the older root.
class TwoIndexPageTest : public StorageEngineTest {
 protected:
  static std::size_t Objects() {
    return CommitManager::kRefsPerIndexPage * PerPage() + 1;
  }

  void SetUp() override {
    ASSERT_TRUE(BulkEmployees(&engine_, Objects()).ok());  // epoch 2
    ASSERT_EQ(engine_.catalog().index().size(), 2u);
    GsObject last = MakeEmployee(1000 + Objects() - 1, "e", 200, 2);
    ASSERT_TRUE(engine_.CommitObjects({&last}, symbols_).ok());  // epoch 3
    roots_ = CommitManager(&disk_).RecoverRootCandidates();
    ASSERT_EQ(roots_.size(), 2u);
    ASSERT_EQ(roots_[0].epoch, 3u);
    ASSERT_EQ(roots_[0].index.size(), 2u);
    ASSERT_TRUE(SamePlace(roots_[0].index[0], roots_[1].index[0]));
    ASSERT_FALSE(SamePlace(roots_[0].index[1], roots_[1].index[1]));
  }

  std::vector<RootState> roots_;  // newest first
};

// An index page only the newest root names is bad: Open falls back to
// the older root, whose catalog is whole.
TEST_F(TwoIndexPageTest, OpenFallsBackOnCorruptNewestIndexPage) {
  ASSERT_TRUE(CorruptPage(&disk_, roots_[0].index[1]).ok());

  StorageEngine recovered(&disk_);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.epoch(), 2u);
  EXPECT_GE(recovered.stats().recovery_fallbacks, 1u);
  EXPECT_EQ(recovered.catalog().size(), Objects());
  SymbolTable fresh;
  auto loaded = recovered.LoadObject(Oid(1000 + Objects() - 1), &fresh);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded->ReadNamed(fresh.Lookup("salary"), kTimeNow),
            Value::Integer(100));
}

// An index page both roots share is bad: Open fails.
TEST_F(TwoIndexPageTest, OpenFailsOnCorruptSharedIndexPage) {
  ASSERT_TRUE(CorruptPage(&disk_, roots_[0].index[0]).ok());

  StorageEngine recovered(&disk_);
  EXPECT_EQ(recovered.Open().code(), StatusCode::kCorruption);
  EXPECT_FALSE(recovered.is_open());
  EXPECT_EQ(recovered.catalog().size(), 0u);
}

// The paged catalog round-trips through Open at the page boundaries: no
// entry, one entry, one full leaf, one full leaf plus one entry.
TEST_F(StorageEngineTest, PagedCatalogRoundTripsThroughOpen) {
  const std::size_t per_page = PerPage();
  ASSERT_GT(per_page, 1u);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, per_page,
                        per_page + 1}) {
    SimulatedDisk disk(512, disk_.track_capacity());
    StorageEngine engine(&disk);
    ASSERT_TRUE(engine.Format().ok());
    ASSERT_TRUE(BulkCommit(&engine, n).ok()) << n;
    const std::size_t pages = (n + per_page - 1) / per_page;
    ASSERT_EQ(engine.catalog().pages().size(), pages) << n;
    ASSERT_EQ(engine.catalog().index().size(), pages == 0 ? 0u : 1u) << n;

    StorageEngine recovered(&disk);
    ASSERT_TRUE(recovered.Open().ok()) << n;
    EXPECT_EQ(recovered.epoch(), 2u) << n;
    EXPECT_EQ(recovered.catalog().size(), n);
    EXPECT_EQ(recovered.catalog().pages().size(), pages) << n;
    EXPECT_EQ(recovered.catalog().index().size(),
              engine.catalog().index().size())
        << n;
    EXPECT_EQ(recovered.CatalogOids(), engine.CatalogOids()) << n;
    SymbolTable fresh;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(recovered.catalog().Find(Oid(1000 + i))->tracks.size(), 1u);
      EXPECT_TRUE(recovered.LoadObject(Oid(1000 + i), &fresh).ok())
          << n << " oid " << 1000 + i;
    }
  }
}

// A bulk commit packs leaves full: N single-track entries take
// ceil(N / per-leaf) leaves, every leaf but the last holding per-leaf.
TEST_F(StorageEngineTest, BulkCommitPacksPagesFull) {
  const std::size_t per_page = PerPage();
  const std::size_t n = 3 * per_page + 5;
  ASSERT_TRUE(BulkCommit(&engine_, n).ok());
  const std::vector<CatalogPage>& pages = engine_.catalog().pages();
  ASSERT_EQ(pages.size(), (n + per_page - 1) / per_page);
  for (std::size_t p = 0; p + 1 < pages.size(); ++p) {
    EXPECT_EQ(pages[p].entries.size(), per_page) << "page " << p;
  }
  EXPECT_EQ(pages.back().entries.size(), 5u);
}

// The index level packs full too, and every page a bulk commit writes
// shares page tracks with its neighbours: 2 full index pages and 1 over
// the last leaf, on as few page tracks as the pages fill.
TEST_F(StorageEngineTest, BulkCommitPacksIndexPagesAndPageTracksFull) {
  const std::size_t per_index = CommitManager::kRefsPerIndexPage;
  const std::size_t leaves = 2 * per_index + 1;
  ASSERT_TRUE(BulkEmployees(&engine_, (leaves - 1) * PerPage() + 1).ok());
  const Catalog& catalog = engine_.catalog();
  ASSERT_EQ(catalog.pages().size(), leaves);
  ASSERT_EQ(catalog.index().size(), 3u);
  EXPECT_EQ(catalog.index()[0].leaves, per_index);
  EXPECT_EQ(catalog.index()[1].leaves, per_index);
  EXPECT_EQ(catalog.index()[2].leaves, 1u);

  std::set<TrackId> page_tracks;
  for (const CatalogPage& page : catalog.pages()) {
    page_tracks.insert(page.ref.track);
  }
  for (const IndexPage& page : catalog.index()) {
    page_tracks.insert(page.ref.track);
  }
  const CommitManager manager(&disk_);
  EXPECT_EQ(page_tracks.size(), manager.PageTracksFor(leaves + 3));
}

// The point of the two-level catalog: one object updated in a
// 10,000-object catalog writes its data track, one page track holding
// the one leaf with its oid and the one index page over that leaf, and
// the root — and engine.bytes_written counts exactly those bytes.
TEST_F(StorageEngineTest, SingleUpdateIntoLargeCatalogWritesThreeTracks) {
  SimulatedDisk disk(4096, 8192);
  StorageEngine engine(&disk);
  ASSERT_TRUE(engine.Format().ok());
  std::vector<GsObject> objects;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    objects.push_back(MakeEmployee(1000 + i, "e", 100, 1));
  }
  std::vector<const GsObject*> ptrs;
  for (const GsObject& o : objects) ptrs.push_back(&o);
  ASSERT_TRUE(engine.CommitObjects(ptrs, symbols_).ok());
  const std::vector<CatalogPage> before = engine.catalog().pages();
  const std::vector<IndexPage> index_before = engine.catalog().index();
  ASSERT_GE(index_before.size(), 3u);

  const Oid oid(1000 + 5000);
  GsObject updated = objects[5000];
  updated.WriteNamed(symbols_.Intern("salary"), 2, Value::Integer(200));
  const std::uint64_t tracks_before = disk.stats().tracks_written;
  const std::uint64_t bytes_before = engine.stats().bytes_written;
  ASSERT_TRUE(engine.CommitObjects({&updated}, symbols_).ok());
  EXPECT_EQ(disk.stats().tracks_written - tracks_before, 3u);

  // Exactly one leaf and one index page moved, onto one page track.
  const std::vector<CatalogPage>& after = engine.catalog().pages();
  ASSERT_EQ(after.size(), before.size());
  const std::size_t dirty = engine.catalog().PageFor(oid);
  for (std::size_t p = 0; p < after.size(); ++p) {
    EXPECT_EQ(!SamePlace(after[p].ref, before[p].ref), p == dirty) << p;
  }
  const std::vector<IndexPage>& index_after = engine.catalog().index();
  ASSERT_EQ(index_after.size(), index_before.size());
  std::size_t moved = 0;
  for (std::size_t k = 0; k < index_after.size(); ++k) {
    if (SamePlace(index_after[k].ref, index_before[k].ref)) continue;
    ++moved;
    EXPECT_EQ(index_after[k].ref.track, after[dirty].ref.track);
  }
  EXPECT_EQ(moved, 1u);

  const TrackId root_slot = engine.epoch() % 2 == 0 ? CommitManager::kRootSlotA
                                                    : CommitManager::kRootSlotB;
  const std::size_t root_bytes = disk.ReadTrack(root_slot).ValueOrDie().size();
  EXPECT_EQ(root_bytes, CommitManager::RootBytes(index_after.size()));
  const std::size_t page_track_bytes =
      disk.ReadTrack(after[dirty].ref.track).ValueOrDie().size();
  EXPECT_EQ(page_track_bytes, 2 * CommitManager::kPageBytes);  // leaf + index
  const Extent* extent = engine.catalog().Find(oid);
  ASSERT_EQ(extent->tracks.size(), 1u);
  const std::size_t payload_bytes =
      disk.ReadTrack(extent->tracks[0]).ValueOrDie().size();
  EXPECT_EQ(engine.stats().bytes_written - bytes_before,
            payload_bytes + page_track_bytes + root_bytes);
  EXPECT_LT(engine.stats().bytes_written - bytes_before, 2000u);
}

// Seeded random commits — updates anywhere, inserts between and after
// existing oids — keep both levels well formed, and Open reads back the
// same tree after every one.
TEST_F(StorageEngineTest, RandomCommitsKeepTheTreeWellFormed) {
  SimulatedDisk disk(4096, 8192);
  StorageEngine engine(&disk);
  ASSERT_TRUE(engine.Format().ok());
  std::mt19937_64 rng(17);
  std::set<std::uint64_t> live;
  for (int commit = 0; commit < 40; ++commit) {
    std::vector<GsObject> objects;
    const std::size_t n = 1 + rng() % (commit % 5 == 0 ? 400 : 20);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t oid = 1000 + rng() % 6000;
      objects.push_back(MakeEmployee(oid, "e", commit, 1));
      live.insert(oid);
    }
    std::vector<const GsObject*> ptrs;
    for (const GsObject& o : objects) ptrs.push_back(&o);
    ASSERT_TRUE(engine.CommitObjects(ptrs, symbols_).ok()) << commit;

    const Catalog& catalog = engine.catalog();
    ASSERT_EQ(catalog.size(), live.size()) << commit;
    std::size_t leaves = 0;
    for (const IndexPage& page : catalog.index()) {
      EXPECT_GE(page.leaves, 1u) << commit;
      EXPECT_LE(page.leaves, CommitManager::kRefsPerIndexPage) << commit;
      leaves += page.leaves;
    }
    ASSERT_EQ(leaves, catalog.pages().size()) << commit;
    for (const CatalogPage& page : catalog.pages()) {
      EXPECT_LE(Catalog::EncodePage(page).size(),
                CommitManager::kPageBodyBytes)
          << commit;
    }
    StorageEngine recovered(&disk);
    ASSERT_TRUE(recovered.Open().ok()) << commit;
    EXPECT_EQ(recovered.CatalogOids(), engine.CatalogOids()) << commit;
    EXPECT_EQ(recovered.catalog().index().size(), catalog.index().size());
    EXPECT_EQ(recovered.free_track_count(), engine.free_track_count())
        << commit;
  }
}

// The root addresses every index page an 8 KiB root holds track-and-slot
// entries for (1,360); one index page more fails before any track is
// written.
TEST_F(StorageEngineTest, PageListOverTheRootWritesNothing) {
  SimulatedDisk disk(64, 8192);
  CommitManager manager(&disk);
  ASSERT_TRUE(manager.Format().ok());
  ASSERT_EQ(manager.max_index_pages(), 1360u);
  ASSERT_LE(CommitManager::RootBytes(manager.max_index_pages()),
            disk.track_capacity());
  ASSERT_GT(CommitManager::RootBytes(manager.max_index_pages() + 1),
            disk.track_capacity());
  std::vector<PageRef> index(manager.max_index_pages(), PageRef{5, 3, 0});
  ASSERT_TRUE(manager.CommitGroup({}, {}, index, /*next_epoch=*/2).ok());
  EXPECT_EQ(manager.RecoverRoot()->index.size(), index.size());

  index.push_back(PageRef{5, 3, 0});
  const std::uint64_t written_before = disk.stats().tracks_written;
  Status s = manager.CommitGroup({{6, {1, 2, 3}}}, {{7, {4}}}, index,
                                 /*next_epoch=*/3);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(disk.stats().tracks_written, written_before);
  EXPECT_TRUE(disk.ReadTrack(6).ValueOrDie().empty());
  EXPECT_EQ(manager.RecoverRoot()->epoch, 2u);
}

// The capacity the two levels give at 8 KiB tracks: root entries x refs
// per index page x single-track entries per leaf. The single-level
// catalog before it addressed 693,600 (2,040 pages of 340).
TEST_F(StorageEngineTest, CatalogAddressesAtLeastTheSingleLevelLimit) {
  SimulatedDisk disk(64, 8192);
  const std::size_t bound = CommitManager(&disk).max_index_pages() *
                            CommitManager::kRefsPerIndexPage * PerPage();
  EXPECT_EQ(PerPage(), 20u);
  EXPECT_EQ(CommitManager::kRefsPerIndexPage, 35u);
  EXPECT_EQ(bound, 952000u);
  EXPECT_GE(bound, 693600u);
}

// A track smaller than a page cannot hold the catalog: Format refuses
// the device before writing anything.
TEST_F(StorageEngineTest, FormatRejectsTracksSmallerThanAPage) {
  SimulatedDisk disk(8, CommitManager::kPageBytes - 1);
  StorageEngine engine(&disk);
  EXPECT_EQ(engine.Format().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(disk.stats().tracks_written, 0u);
}

}  // namespace
}  // namespace gemstone::storage
