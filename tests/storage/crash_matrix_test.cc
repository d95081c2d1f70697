// Systematic crash-injection matrix (§6 safe writing): replay a
// multi-commit workload, crash at *every* write index in turn (clean
// failure and torn write), reopen the engine over the surviving platters,
// and assert the recovered catalog equals exactly the state after the
// last successful commit — never a hybrid of two epochs.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "object/object_memory.h"
#include "storage/storage_engine.h"
#include "txn/transaction_manager.h"

namespace gemstone::storage {
namespace {

// One employee-style object keyed by the fields the matrix checks.
using FieldMap = std::map<std::string, std::int64_t>;
// Expected catalog after a commit: oid -> its fields.
using Snapshot = std::map<std::uint64_t, FieldMap>;

class CrashMatrixTest : public ::testing::Test {
 protected:
  // The workload: four commits that mix creates, updates, and a
  // multi-track object, so every phase of CommitGroup (data tracks,
  // catalog pages, root flip) is crossed by some crash index.
  static constexpr int kCommits = 4;

  // One object a commit writes: its oid, its new "v", and how many
  // indexed pad slots make it span tracks.
  struct Touch {
    std::uint64_t oid;
    std::int64_t v;
    std::size_t pad_slots = 0;
  };

  // Commits `touches` as commit `step` (0-based) to the engine and, if the
  // commit succeeds, to `model`.
  static Status CommitTouches(const std::vector<Touch>& touches, int step,
                              StorageEngine* engine, SymbolTable* symbols,
                              Snapshot* model) {
    Snapshot next = *model;
    std::vector<GsObject> batch;
    for (const Touch& touch : touches) {
      GsObject object{Oid(touch.oid), Oid(7)};
      // Re-create the object's full history from the model (the engine
      // stores whole images, so the test mirrors that).
      next[touch.oid]["v"] = touch.v;
      object.WriteNamed(symbols->Intern("v"),
                        static_cast<TxnTime>(step + 1),
                        Value::Integer(touch.v));
      for (std::size_t i = 0; i < touch.pad_slots; ++i) {
        object.AppendIndexed(static_cast<TxnTime>(step + 1),
                             Value::String("pad-" + std::to_string(i)));
      }
      batch.push_back(std::move(object));
    }
    std::vector<const GsObject*> ptrs;
    ptrs.reserve(batch.size());
    for (const GsObject& o : batch) ptrs.push_back(&o);
    Status s = engine->CommitObjects(ptrs, *symbols);
    if (s.ok()) *model = std::move(next);
    return s;
  }

  // Applies commit `step` (0-based) to the engine and to `model`.
  // Objects carry a monotonically bumped "v" field per touch.
  static Status ApplyCommit(int step, StorageEngine* engine,
                            SymbolTable* symbols, Snapshot* model) {
    std::vector<Touch> touches;
    switch (step) {
      case 0:  // three creates
        touches = {{100, 1}, {101, 1}, {102, 1}};
        break;
      case 1:  // one update, one create
        touches = {{100, 2}, {103, 1}};
        break;
      case 2:  // updates plus a multi-track object
        touches = {{101, 2}, {104, 1, 200}};
        break;
      default:  // touch everything
        touches = {{100, 3}, {101, 3}, {102, 2}, {103, 2}, {104, 2, 200}};
        break;
    }
    return CommitTouches(touches, step, engine, symbols, model);
  }

  // A multi-leaf catalog: commit 0 bulk-loads kPagedObjects oids (at
  // least three leaves); commit 1 updates kMiddleOid, which lies on a
  // middle leaf, and appends kAppended new oids — more than a leaf holds,
  // so the last leaf splits however full it was.
  static constexpr std::uint64_t kPagedBase = 1000;
  static constexpr std::uint64_t kPagedObjects = 110;
  static constexpr std::uint64_t kMiddleOid = kPagedBase + 50;
  static constexpr std::uint64_t kAppended = 45;
  static Status ApplyPagedCommit(int step, StorageEngine* engine,
                                 SymbolTable* symbols, Snapshot* model) {
    std::vector<Touch> touches;
    if (step == 0) {
      for (std::uint64_t i = 0; i < kPagedObjects; ++i) {
        touches.push_back({kPagedBase + i, 1});
      }
    } else {
      touches.push_back({kMiddleOid, 2});
      for (std::uint64_t i = 0; i < kAppended; ++i) {
        touches.push_back({kPagedBase + kPagedObjects + i, 1});
      }
    }
    return CommitTouches(touches, step, engine, symbols, model);
  }

  // A catalog whose one index page is full: commit 0 bulk-loads
  // kLeafEntries x kIndexRefs even oids, packing kIndexRefs full leaves
  // under one full index page; commit 1 inserts the odd oid kSplitOid
  // into a middle leaf, so that leaf splits and, with one leaf more than
  // it can name, the index page splits too.
  static constexpr std::uint64_t kLeafEntries = 20;
  static constexpr std::uint64_t kIndexRefs = CommitManager::kRefsPerIndexPage;
  static constexpr std::uint64_t kSplitOid =
      kPagedBase + 2 * (kLeafEntries * kIndexRefs / 2) + 1;
  static Status ApplyIndexSplitCommit(int step, StorageEngine* engine,
                                      SymbolTable* symbols, Snapshot* model) {
    std::vector<Touch> touches;
    if (step == 0) {
      for (std::uint64_t i = 0; i < kLeafEntries * kIndexRefs; ++i) {
        touches.push_back({kPagedBase + 2 * i, 1});
      }
    } else {
      touches.push_back({kSplitOid, 1});
    }
    return CommitTouches(touches, step, engine, symbols, model);
  }

  using ApplyFn = Status (*)(int, StorageEngine*, SymbolTable*, Snapshot*);

  // Asserts the recovered engine's catalog equals `expected` exactly.
  static void ExpectCatalogMatches(StorageEngine* engine,
                                   const Snapshot& expected,
                                   const std::string& context) {
    SymbolTable fresh;
    std::vector<Oid> oids = engine->CatalogOids();
    ASSERT_EQ(oids.size(), expected.size()) << context;
    for (const auto& [raw, fields] : expected) {
      ASSERT_TRUE(engine->Contains(Oid(raw)))
          << context << " missing oid " << raw;
      auto loaded = engine->LoadObject(Oid(raw), &fresh);
      ASSERT_TRUE(loaded.ok())
          << context << " oid " << raw << ": " << loaded.status().ToString();
      for (const auto& [name, value] : fields) {
        const Value* got = loaded->ReadNamed(fresh.Intern(name), kTimeNow);
        ASSERT_NE(got, nullptr) << context << " oid " << raw << "." << name;
        EXPECT_EQ(*got, Value::Integer(value))
            << context << " oid " << raw << "." << name;
      }
    }
  }

  // Counts the writes the fault-free workload performs after Format.
  static std::uint64_t FaultFreeWriteCount(int commits, ApplyFn apply) {
    SimulatedDisk disk(512, 1024);
    StorageEngine engine(&disk);
    EXPECT_TRUE(engine.Format().ok());
    SymbolTable symbols;
    Snapshot model;
    const std::uint64_t before = disk.stats().tracks_written;
    for (int step = 0; step < commits; ++step) {
      EXPECT_TRUE(apply(step, &engine, &symbols, &model).ok());
    }
    return disk.stats().tracks_written - before;
  }

  enum class FaultMode { kFail, kTear };

  // The matrix: for every write index, run the workload until the crash
  // fires, then recover and compare against the model.
  static void RunMatrix(FaultMode mode, int commits = kCommits,
                        ApplyFn apply = &ApplyCommit) {
    const std::uint64_t total_writes = FaultFreeWriteCount(commits, apply);
    ASSERT_GT(total_writes, 8u);  // the workload is non-trivial
    for (std::uint64_t crash_at = 0; crash_at <= total_writes; ++crash_at) {
      SimulatedDisk disk(512, 1024);
      StorageEngine engine(&disk);
      ASSERT_TRUE(engine.Format().ok());
      SymbolTable symbols;
      Snapshot model;
      std::vector<Snapshot> snapshots = {model};  // [s] = after s commits

      if (mode == FaultMode::kFail) {
        disk.InjectWriteFailureAfter(crash_at);
      } else {
        // Ten surviving bytes: enough to look like data, never enough to
        // pass a checksum.
        disk.InjectTornWriteAfter(crash_at, 10);
      }
      int succeeded = 0;
      for (int step = 0; step < commits; ++step) {
        Status s = apply(step, &engine, &symbols, &model);
        if (!s.ok()) {
          EXPECT_TRUE(s.IsIoError())
              << "crash_at=" << crash_at << ": " << s.ToString();
          break;  // the machine is down from here
        }
        ++succeeded;
        snapshots.push_back(model);
      }

      // Reboot: recover from the surviving platters alone.
      disk.ClearFault();
      StorageEngine recovered(&disk);
      Status open = recovered.Open();
      const std::string context =
          (mode == FaultMode::kFail ? "fail" : "tear") +
          std::string(" crash_at=") + std::to_string(crash_at) +
          " succeeded=" + std::to_string(succeeded);
      ASSERT_TRUE(open.ok()) << context << ": " << open.ToString();
      // Exactly the last successful commit's state — never a hybrid.
      ExpectCatalogMatches(&recovered,
                           snapshots[static_cast<std::size_t>(succeeded)],
                           context);
      // The recovered epoch counts Format (epoch 1) plus one per commit.
      EXPECT_EQ(recovered.epoch(), 1u + static_cast<std::uint64_t>(succeeded))
          << context;
    }
  }
};

TEST_F(CrashMatrixTest, EveryWriteIndexCleanFailure) {
  RunMatrix(FaultMode::kFail);
}

TEST_F(CrashMatrixTest, EveryWriteIndexTornWrite) {
  RunMatrix(FaultMode::kTear);
}

// The paged workload has the shape it claims: the update lands on a
// middle leaf, the appends split the last leaf, and the leaves the commit
// did not touch stay shared with the previous epoch.
TEST_F(CrashMatrixTest, PagedWorkloadSplitsTheLastPage) {
  SimulatedDisk disk(512, 1024);
  StorageEngine engine(&disk);
  ASSERT_TRUE(engine.Format().ok());
  SymbolTable symbols;
  Snapshot model;
  ASSERT_TRUE(ApplyPagedCommit(0, &engine, &symbols, &model).ok());
  const std::vector<CatalogPage> before = engine.catalog().pages();
  ASSERT_GE(before.size(), 3u);
  const std::size_t middle = engine.catalog().PageFor(Oid(kMiddleOid));
  ASSERT_GT(middle, 0u);
  ASSERT_LT(middle, before.size() - 1);

  ASSERT_TRUE(ApplyPagedCommit(1, &engine, &symbols, &model).ok());
  const std::vector<CatalogPage>& after = engine.catalog().pages();
  EXPECT_GT(after.size(), before.size());
  for (std::size_t p = 0; p < before.size() - 1; ++p) {
    EXPECT_EQ(after[p].ref.track == before[p].ref.track &&
                  after[p].ref.slot == before[p].ref.slot,
              p != middle)
        << "page " << p;
  }
}

TEST_F(CrashMatrixTest, PagedCatalogEveryWriteIndexCleanFailure) {
  RunMatrix(FaultMode::kFail, 2, &ApplyPagedCommit);
}

TEST_F(CrashMatrixTest, PagedCatalogEveryWriteIndexTornWrite) {
  RunMatrix(FaultMode::kTear, 2, &ApplyPagedCommit);
}

// The index-split workload has the shape it claims: one full index page
// over full leaves, then one insert that splits a middle leaf and the
// index page both, leaving every other leaf where it was.
TEST_F(CrashMatrixTest, IndexSplitWorkloadSplitsALeafAndItsIndexPage) {
  SimulatedDisk disk(512, 1024);
  StorageEngine engine(&disk);
  ASSERT_TRUE(engine.Format().ok());
  SymbolTable symbols;
  Snapshot model;
  ASSERT_TRUE(ApplyIndexSplitCommit(0, &engine, &symbols, &model).ok());
  const std::vector<CatalogPage> before = engine.catalog().pages();
  ASSERT_EQ(before.size(), kIndexRefs);
  for (const CatalogPage& page : before) {
    ASSERT_EQ(page.entries.size(), kLeafEntries);
  }
  ASSERT_EQ(engine.catalog().index().size(), 1u);
  const std::size_t split = engine.catalog().PageFor(Oid(kSplitOid));
  ASSERT_GT(split, 0u);
  ASSERT_LT(split, before.size() - 1);

  ASSERT_TRUE(ApplyIndexSplitCommit(1, &engine, &symbols, &model).ok());
  const std::vector<CatalogPage>& after = engine.catalog().pages();
  ASSERT_EQ(after.size(), before.size() + 1);
  ASSERT_EQ(engine.catalog().index().size(), 2u);
  EXPECT_EQ(engine.catalog().index()[0].leaves, kIndexRefs);
  EXPECT_EQ(engine.catalog().index()[1].leaves, 1u);
  for (std::size_t p = 0; p < before.size(); ++p) {
    const CatalogPage& now = after[p < split ? p : p + 1];
    EXPECT_EQ(now.ref.track == before[p].ref.track &&
                  now.ref.slot == before[p].ref.slot,
              p != split)
        << "leaf " << p;
  }
}

TEST_F(CrashMatrixTest, IndexSplitEveryWriteIndexCleanFailure) {
  RunMatrix(FaultMode::kFail, 2, &ApplyIndexSplitCommit);
}

TEST_F(CrashMatrixTest, IndexSplitEveryWriteIndexTornWrite) {
  RunMatrix(FaultMode::kTear, 2, &ApplyIndexSplitCommit);
}

// The transaction layer over the same matrix: a storage-failed commit
// must leave ObjectMemory, last_commit_, and the logical clock unchanged,
// and a retry of the same writes must succeed without phantom conflicts.
TEST_F(CrashMatrixTest, TxnCommitFailureLeavesMemoryAndClockUntouched) {
  // Count the writes one persisted transaction needs.
  std::uint64_t txn_writes = 0;
  {
    SimulatedDisk disk(512, 1024);
    StorageEngine engine(&disk);
    ASSERT_TRUE(engine.Format().ok());
    ObjectMemory memory;
    txn::TransactionManager manager(&memory, &engine);
    auto seed = manager.Begin(0);
    Oid oid =
        manager.CreateObject(seed.get(), memory.kernel().object).ValueOrDie();
    SymbolId x = memory.symbols().Intern("x");
    ASSERT_TRUE(
        manager.WriteNamed(seed.get(), oid, x, Value::Integer(1)).ok());
    const std::uint64_t before = disk.stats().tracks_written;
    ASSERT_TRUE(manager.Commit(seed.get()).ok());
    txn_writes = disk.stats().tracks_written - before;
  }
  ASSERT_GT(txn_writes, 0u);

  for (std::uint64_t crash_at = 0; crash_at < txn_writes; ++crash_at) {
    SimulatedDisk disk(512, 1024);
    StorageEngine engine(&disk);
    ASSERT_TRUE(engine.Format().ok());
    ObjectMemory memory;
    txn::TransactionManager manager(&memory, &engine);
    SymbolId x = memory.symbols().Intern("x");

    // One durable object to update, so the failed commit has a mix of an
    // update and a create in flight.
    auto seed = manager.Begin(0);
    Oid base =
        manager.CreateObject(seed.get(), memory.kernel().object).ValueOrDie();
    ASSERT_TRUE(
        manager.WriteNamed(seed.get(), base, x, Value::Integer(10)).ok());
    ASSERT_TRUE(manager.Commit(seed.get()).ok());
    const TxnTime clock_before = manager.Now();
    const auto stats_before = manager.stats();

    disk.InjectWriteFailureAfter(crash_at);
    auto doomed = manager.Begin(1);
    ASSERT_TRUE(
        manager.WriteNamed(doomed.get(), base, x, Value::Integer(20)).ok());
    Oid fresh = manager.CreateObject(doomed.get(), memory.kernel().object)
                    .ValueOrDie();
    ASSERT_TRUE(
        manager.WriteNamed(doomed.get(), fresh, x, Value::Integer(30)).ok());
    Status failed = manager.Commit(doomed.get());
    ASSERT_TRUE(failed.IsIoError())
        << "crash_at=" << crash_at << ": " << failed.ToString();
    EXPECT_EQ(doomed->state(), txn::TxnState::kAborted);
    EXPECT_EQ(doomed->dirty_object_count(), 2u);  // marks kept for postmortem

    // Nothing published: clock, memory, and the bookkeeping are as before.
    EXPECT_EQ(manager.Now(), clock_before) << "crash_at=" << crash_at;
    EXPECT_EQ(memory.Find(fresh), nullptr) << "crash_at=" << crash_at;
    auto reader = manager.Begin(2);
    EXPECT_EQ(manager.ReadNamed(reader.get(), base, x).ValueOrDie(),
              Value::Integer(10))
        << "crash_at=" << crash_at;
    const auto stats_after = manager.stats();
    EXPECT_EQ(stats_after.committed, stats_before.committed);
    EXPECT_EQ(stats_after.aborted, stats_before.aborted + 1);
    EXPECT_EQ(stats_after.commit_storage_failures,
              stats_before.commit_storage_failures + 1);

    // The disk heals; the same writes retried in a new transaction must
    // commit without a phantom conflict against the aborted one.
    disk.ClearFault();
    auto retry = manager.Begin(1);
    ASSERT_TRUE(
        manager.WriteNamed(retry.get(), base, x, Value::Integer(20)).ok());
    Oid fresh2 = manager.CreateObject(retry.get(), memory.kernel().object)
                     .ValueOrDie();
    ASSERT_TRUE(
        manager.WriteNamed(retry.get(), fresh2, x, Value::Integer(30)).ok());
    Status retried = manager.Commit(retry.get());
    ASSERT_TRUE(retried.ok()) << "crash_at=" << crash_at << ": "
                              << retried.ToString();
    EXPECT_EQ(manager.Now(), clock_before + 1);

    // And the retried state is durable: a reboot sees it.
    StorageEngine recovered(&disk);
    ASSERT_TRUE(recovered.Open().ok());
    SymbolTable fresh_symbols;
    auto loaded = recovered.LoadObject(base, &fresh_symbols);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(*loaded->ReadNamed(fresh_symbols.Intern("x"), kTimeNow),
              Value::Integer(20));
    EXPECT_TRUE(recovered.Contains(fresh2));
  }
}

}  // namespace
}  // namespace gemstone::storage
