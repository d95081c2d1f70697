// C3 — the Commit Manager's safe group writes (§6): commit cost vs. group
// size. Expected shape: per-commit overhead (the rewritten catalog pages
// + root flip) is amortized as the group grows — committing N objects in
// one group is far cheaper than N single-object commits.

#include <benchmark/benchmark.h>

#include "bench_telemetry.h"

#include "object/object_memory.h"
#include "storage/storage_engine.h"

using namespace gemstone;  // NOLINT

namespace {

std::vector<GsObject> MakeBatch(ObjectMemory& memory, std::uint64_t base,
                                int n) {
  std::vector<GsObject> batch;
  for (int i = 0; i < n; ++i) {
    GsObject object{Oid(base + static_cast<unsigned>(i)),
                    memory.kernel().object};
    object.WriteNamed(memory.symbols().Intern("payload"), 1,
                      Value::String(std::string(64, 'x')));
    batch.push_back(std::move(object));
  }
  return batch;
}

void BM_GroupCommit(benchmark::State& state) {
  const int group = static_cast<int>(state.range(0));
  storage::SimulatedDisk disk(65536, 8192);
  storage::StorageEngine engine(&disk);
  if (!engine.Format().ok()) return;
  ObjectMemory memory;

  std::uint64_t base = 1000;
  for (auto _ : state) {
    std::vector<GsObject> batch = MakeBatch(memory, base, group);
    base += static_cast<unsigned>(group);
    std::vector<const GsObject*> ptrs;
    for (const auto& o : batch) ptrs.push_back(&o);
    if (!engine.CommitObjects(ptrs, memory.symbols()).ok()) {
      state.SkipWithError("commit failed (device full?)");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * group);
  state.counters["tracks_written_per_object"] =
      static_cast<double>(disk.stats().tracks_written) /
      static_cast<double>(state.iterations() * group);
}

// One object per commit: the degenerate group, maximal overhead.
void BM_SingleObjectCommits(benchmark::State& state) {
  storage::SimulatedDisk disk(65536, 8192);
  storage::StorageEngine engine(&disk);
  if (!engine.Format().ok()) return;
  ObjectMemory memory;

  std::uint64_t oid = 1000;
  for (auto _ : state) {
    GsObject object{Oid(oid++), memory.kernel().object};
    object.WriteNamed(memory.symbols().Intern("payload"), 1,
                      Value::String(std::string(64, 'x')));
    if (!engine.CommitObjects({&object}, memory.symbols()).ok()) {
      state.SkipWithError("commit failed (device full?)");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["tracks_written_per_object"] =
      static_cast<double>(disk.stats().tracks_written) /
      static_cast<double>(state.iterations());
}

// The atomicity machinery itself: root flips are one track write.
void BM_RootFlip(benchmark::State& state) {
  storage::SimulatedDisk disk(64, 8192);
  storage::CommitManager commit_manager(&disk);
  if (!commit_manager.Format().ok()) return;
  std::uint64_t epoch = 2;
  for (auto _ : state) {
    Status s = commit_manager.CommitGroup({}, {}, {}, epoch++);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
}

// Work-shape gauges for the CI bench gate: a FIXED workload (64 groups
// of 8 objects on a fresh device) whose I/O counts are pure SimulatedDisk
// arithmetic — identical on every host and measuring budget, unlike the
// wall-clock span percentiles. bench_diff fails the run when a gated
// dump's `*.bench.*` metric drifts past tolerance.
void BM_CommitWorkShape(benchmark::State& state) {
  for (auto _ : state) {
    storage::SimulatedDisk disk(65536, 8192);
    storage::StorageEngine engine(&disk);
    if (!engine.Format().ok()) return;
    ObjectMemory memory;
    constexpr int kGroups = 64;
    constexpr int kGroupSize = 8;
    std::uint64_t base = 1000;
    for (int g = 0; g < kGroups; ++g) {
      std::vector<GsObject> batch = MakeBatch(memory, base, kGroupSize);
      base += kGroupSize;
      std::vector<const GsObject*> ptrs;
      for (const auto& o : batch) ptrs.push_back(&o);
      if (!engine.CommitObjects(ptrs, memory.symbols()).ok()) return;
    }
    const storage::DiskStats stats = disk.stats();
    auto& registry = telemetry::MetricsRegistry::Global();
    registry.GetGauge("commit.bench.tracks_per_commit_x1000")
        ->Set(static_cast<std::int64_t>(stats.tracks_written * 1000 /
                                        kGroups));
    registry.GetGauge("commit.bench.seek_distance_per_commit")
        ->Set(static_cast<std::int64_t>(stats.seek_distance / kGroups));
  }
}

// Catalog write volume, also a gated work-shape gauge: preload 4,096
// objects in one commit, then make 64 single-object updates strided
// across the catalog. The gauge is engine.bytes_written per update — the
// object's image, the catalog bytes the commit rewrites, and the root.
void BM_CatalogBytesPerCommit(benchmark::State& state) {
  for (auto _ : state) {
    storage::SimulatedDisk disk(65536, 8192);
    storage::StorageEngine engine(&disk);
    if (!engine.Format().ok()) return;
    ObjectMemory memory;
    constexpr int kPreload = 4096;
    constexpr int kCommits = 64;
    std::vector<GsObject> objects = MakeBatch(memory, 1000, kPreload);
    std::vector<const GsObject*> ptrs;
    for (const auto& o : objects) ptrs.push_back(&o);
    if (!engine.CommitObjects(ptrs, memory.symbols()).ok()) return;
    const std::uint64_t before = engine.stats().bytes_written;
    for (int c = 0; c < kCommits; ++c) {
      GsObject& object = objects[static_cast<std::size_t>(c) * 64];
      object.WriteNamed(memory.symbols().Intern("payload"),
                        static_cast<TxnTime>(c + 2),
                        Value::String(std::string(64, 'y')));
      if (!engine.CommitObjects({&object}, memory.symbols()).ok()) return;
    }
    telemetry::MetricsRegistry::Global()
        .GetGauge("commit.bench.catalog_bytes_per_commit")
        ->Set(static_cast<std::int64_t>(
            (engine.stats().bytes_written - before) / kCommits));
  }
}

}  // namespace

BENCHMARK(BM_GroupCommit)->Arg(1)->Arg(8)->Arg(64)->Arg(512);
BENCHMARK(BM_SingleObjectCommits);
BENCHMARK(BM_RootFlip);
BENCHMARK(BM_CommitWorkShape)->Iterations(1);
BENCHMARK(BM_CatalogBytesPerCommit)->Iterations(1);

GS_BENCH_MAIN("commit");
