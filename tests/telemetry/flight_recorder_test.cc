#include "telemetry/flight_recorder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../support/minijson.h"
#include "telemetry/trace.h"

namespace gemstone::telemetry {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(FlightRecorderTest, KindNamesAreStable) {
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kTxnBegin), "txn_begin");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kTxnCommit), "txn_commit");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kTxnAbort), "txn_abort");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kTxnConflict),
            "txn_conflict");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kStorageFault),
            "storage_fault");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kRecoveryFallback),
            "recovery_fallback");
  EXPECT_EQ(FlightEventKindName(FlightEventKind::kSlowOp), "slow_op");
}

TEST(FlightRecorderTest, RecordsInSequenceOrder) {
  FlightRecorder recorder(8);
  recorder.Record(FlightEventKind::kTxnBegin, 1, 10, 0, "");
  recorder.Record(FlightEventKind::kTxnCommit, 1, 11, 42, "");
  recorder.Record(FlightEventKind::kTxnBegin, 2, 12, 0, "second session");

  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kTxnBegin);
  EXPECT_EQ(events[0].session, 1u);
  EXPECT_EQ(events[1].seq, 2u);
  EXPECT_EQ(events[1].b, 42u);
  EXPECT_EQ(events[2].detail, "second session");
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_EQ(recorder.total_recorded(), 3u);
}

TEST(FlightRecorderTest, RingWrapKeepsNewestEvents) {
  FlightRecorder recorder(4);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    recorder.Record(FlightEventKind::kTxnBegin, i, 0, 0, "");
  }
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 3u);  // 1 and 2 were overwritten
  EXPECT_EQ(events.back().seq, 6u);
  EXPECT_EQ(recorder.total_recorded(), 6u);
}

TEST(FlightRecorderTest, DumpJsonIsValidAndSelfDescribing) {
  FlightRecorder recorder(4);
  recorder.Record(FlightEventKind::kTxnAbort, 7, 0, 0,
                  "detail with \"quotes\" and \\slashes\\");
  for (int i = 0; i < 5; ++i) {
    recorder.Record(FlightEventKind::kTxnBegin, 1, 0, 0, "");
  }
  const std::string json = recorder.DumpJson();
  EXPECT_TRUE(gemstone::testsupport::IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"capacity\":4"), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":6"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":2"), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("txn_begin"), std::string::npos);
}

TEST(FlightRecorderTest, DumpToFileWritesTheJson) {
  const std::string path = TempPath("flightrec_dump.json");
  std::remove(path.c_str());
  FlightRecorder recorder(8);
  recorder.Record(FlightEventKind::kSlowOp, 0, 123456, 1, "commit.publish");
  ASSERT_TRUE(recorder.DumpToFile(path));
  const std::string body = ReadFile(path);
  EXPECT_EQ(body, recorder.DumpJson() + "\n");  // file gets a final newline
  EXPECT_TRUE(gemstone::testsupport::IsValidJson(body));
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, FailureEventsAutoDumpWhenArmed) {
  const std::string path = TempPath("flightrec_auto.json");
  std::remove(path.c_str());
  FlightRecorder recorder(8);

  // Not armed: failure events do not write anything.
  recorder.Record(FlightEventKind::kTxnAbort, 1, 0, 0, "before arming");
  EXPECT_TRUE(ReadFile(path).empty());

  recorder.SetAutoDumpPath(path);
  EXPECT_EQ(recorder.auto_dump_path(), path);

  // A benign event still does not dump...
  recorder.Record(FlightEventKind::kTxnCommit, 1, 5, 9, "");
  EXPECT_TRUE(ReadFile(path).empty());

  // ...but each failure kind rewrites the file with the latest view.
  recorder.Record(FlightEventKind::kTxnConflict, 2, 0, 0, "w-w on oid 9");
  std::string body = ReadFile(path);
  EXPECT_TRUE(gemstone::testsupport::IsValidJson(body)) << body;
  EXPECT_NE(body.find("txn_conflict"), std::string::npos);

  recorder.Record(FlightEventKind::kStorageFault, 0, 17, 0, "bad track");
  body = ReadFile(path);
  EXPECT_TRUE(gemstone::testsupport::IsValidJson(body)) << body;
  EXPECT_NE(body.find("storage_fault"), std::string::npos);

  recorder.SetAutoDumpPath("");  // disarm
  std::remove(path.c_str());
  recorder.Record(FlightEventKind::kTxnAbort, 3, 0, 0, "after disarm");
  EXPECT_TRUE(ReadFile(path).empty());
}

TEST(FlightRecorderTest, SlowSpansLandInTheGlobalRecorder) {
  FlightRecorder& global = FlightRecorder::Global();
  global.ClearForTest();
  {
    ScopedSpan span("flightrec.slow_span_test");
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(FlightRecorder::kSlowOpNs) +
        std::chrono::milliseconds(1));
  }

  bool found = false;
  for (const auto& event : global.Snapshot()) {
    if (event.kind == FlightEventKind::kSlowOp &&
        event.detail == "flightrec.slow_span_test") {
      found = true;
      EXPECT_GE(event.a, 1000000u);  // at least the 1 ms sleep
      EXPECT_GE(event.a, FlightRecorder::kSlowOpNs);
    }
  }
  EXPECT_TRUE(found);
  global.ClearForTest();
}

// Failure events record under different locks (aborts and conflicts
// under the store lock, storage faults under each device lock), so
// auto-dumps race. The armed file must always hold one whole dump: while
// the writers race, a reader finds either no file yet or a parsable one,
// and after each round the final file parses.
TEST(FlightRecorderTest, RacingAutoDumpsLeaveOneParsableFile) {
  constexpr int kRounds = 50;
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 20;
  const std::string path = TempPath("flightrec_racing_dumps.json");
  for (int round = 0; round < kRounds; ++round) {
    std::remove(path.c_str());
    FlightRecorder recorder(64);
    recorder.SetAutoDumpPath(path);
    std::atomic<int> writers_left{kThreads};
    std::atomic<std::size_t> torn_size{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&recorder, &writers_left, t] {
        for (int i = 0; i < kEventsPerThread; ++i) {
          recorder.Record(FlightEventKind::kTxnConflict,
                          static_cast<std::uint64_t>(t),
                          static_cast<std::uint64_t>(i), 0, "w-w race");
        }
        writers_left.fetch_sub(1);
      });
    }
    threads.emplace_back([&path, &writers_left, &torn_size] {
      while (writers_left.load() > 0) {
        std::ifstream in(path, std::ios::binary);
        if (!in) continue;  // no dump yet
        std::ostringstream body;
        body << in.rdbuf();
        if (!gemstone::testsupport::IsValidJson(body.str())) {
          torn_size.store(body.str().size() + 1);
        }
      }
    });
    for (std::thread& thread : threads) thread.join();
    ASSERT_EQ(torn_size.load(), 0u)
        << "round " << round << ": a reader saw a partial dump of "
        << (torn_size.load() - 1) << " bytes";
    const std::string body = ReadFile(path);
    ASSERT_TRUE(gemstone::testsupport::IsValidJson(body))
        << "round " << round << " left a torn file of " << body.size()
        << " bytes";
  }
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, EventsCaptureTheBoundTraceContext) {
  FlightRecorder recorder(8);
  recorder.Record(FlightEventKind::kTxnBegin, 1, 0, 0, "");
  {
    TraceContextScope scope(0xfeedu);
    recorder.Record(FlightEventKind::kTxnCommit, 1, 2, 3, "");
  }
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].trace_id, 0u);
  EXPECT_EQ(events[1].trace_id, 0xfeedu);
  EXPECT_NE(recorder.DumpJson().find("\"trace_id\":65261"),
            std::string::npos);
}

TEST(FlightRecorderTest, DumpJsonOfKindFiltersToOneKind) {
  FlightRecorder recorder(8);
  recorder.Record(FlightEventKind::kTxnCommit, 1, 0, 0, "");
  recorder.Record(FlightEventKind::kSlowRequest, 1, 500, 7,
                  "queue=1us lock_wait=2us");
  recorder.Record(FlightEventKind::kTxnAbort, 1, 0, 0, "");
  const std::string dump =
      recorder.DumpJsonOfKind(FlightEventKind::kSlowRequest);
  EXPECT_NE(dump.find("\"slow_request\""), std::string::npos);
  EXPECT_NE(dump.find("lock_wait=2us"), std::string::npos);
  EXPECT_EQ(dump.find("txn_commit"), std::string::npos);
  EXPECT_EQ(dump.find("txn_abort"), std::string::npos);
}

}  // namespace
}  // namespace gemstone::telemetry
