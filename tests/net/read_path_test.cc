// Snapshot read-path tests (DESIGN.md §12): read-shaped requests execute
// without the executor lock, so they complete while a writer is stalled
// inside it; a request that turns out to write retries on the exclusive
// path transparently; a commit that publishes a write never runs on the
// read path, even with a dial set; and a connection that dies
// mid-request still gets its session (and uncommitted transaction) torn
// down.
//
// Runs in the `tsan` tree: the whole point is concurrent execution of
// reads against a mutating session.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "../stdm/acme_fixture.h"
#include "admin/authorization.h"
#include "executor/executor.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "stdm/gsdm_bridge.h"

namespace gemstone::net {
namespace {

/// "key":value out of a flat JSON page; 0 when absent.
std::uint64_t JsonCounter(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

class ReadPathTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    server_ = std::make_unique<Server>(&executor_, &auth_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  Client Connected() {
    Client client;
    EXPECT_TRUE(client.Connect(server_->port()).ok());
    return client;
  }

  /// Polls /statusz until `pred(json)` or the deadline; answers the last
  /// page either way.
  std::string WaitForStatus(Client* monitor,
                            bool (*pred)(const std::string&)) {
    std::string page;
    for (int i = 0; i < 2000; ++i) {
      page = monitor->Statusz().ValueOrDie();
      if (pred(page)) return page;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return page;
  }

  executor::Executor executor_;
  admin::AuthorizationManager auth_;
  std::unique_ptr<Server> server_;
};

/// An ExecuteOpal request is in its execute stage somewhere on the page.
bool OpalExecuting(const std::string& json) {
  return json.find("\"stage\":\"execute\",\"type\":\"ExecuteOpal\"") !=
         std::string::npos;
}

TEST_F(ReadPathTest, ReadsDoNotBlockBehindAStalledWriter) {
  StartServer();

  // Seed a committed object for the readers.
  Client setup = Connected();
  ASSERT_TRUE(setup.Login().ok());
  ASSERT_TRUE(
      setup.Execute("Box := Object new. Box instVarNamed: 'v' put: 41")
          .ok());
  ASSERT_TRUE(setup.Commit().ok());
  setup.Close();

  // The writer records a write first (making its session ineligible for
  // the read path), then stalls inside the executor lock on a long
  // mutating loop.
  Client writer = Connected();
  ASSERT_TRUE(writer.Login().ok());
  ASSERT_TRUE(writer.Execute("W := Object new").ok());
  std::atomic<bool> writer_done{false};
  std::thread writer_thread([&] {
    auto slow = writer.Execute(
        "1 to: 500000 do: [:i | W instVarNamed: 'v' put: i]. 'done'");
    writer_done.store(true, std::memory_order_release);
    EXPECT_TRUE(slow.ok()) << slow.status().ToString();
  });

  // Gate on the writer actually being inside its execute stage.
  Client monitor = Connected();
  std::string page = WaitForStatus(&monitor, OpalExecuting);
  ASSERT_TRUE(OpalExecuting(page)) << page;

  // Reads complete while the writer still holds the exclusive path. If
  // they queued behind the lock this would deadline out instead.
  Client reader = Connected();
  ASSERT_TRUE(reader.Login().ok());
  for (int i = 0; i < 10; ++i) {
    auto value = reader.Execute("Box instVarNamed: 'v'");
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(value.value(), "41");
  }

  page = monitor.Statusz().ValueOrDie();
  if (!writer_done.load(std::memory_order_acquire)) {
    // The reads overlapped the writer's execution and were served on the
    // snapshot read path, not under the lock.
    EXPECT_TRUE(OpalExecuting(page)) << page;
  }
  EXPECT_GE(JsonCounter(page, "read_path_requests"), 10u) << page;

  writer_thread.join();
  ASSERT_TRUE(writer.Commit().ok());

  // The committed write is visible to a fresh read afterwards.
  EXPECT_EQ(reader.Execute("W instVarNamed: 'v'").ValueOrDie(), "500000");
}

TEST_F(ReadPathTest, WritingRequestRetriesOnTheExclusivePath) {
  StartServer();
  Client client = Connected();
  ASSERT_TRUE(client.Login().ok());

  // A fresh session is read-path eligible, so this write-shaped block is
  // tried there first, bounces with kReadOnlyRetry, and reruns under the
  // lock — invisibly to the client.
  ASSERT_TRUE(
      client.Execute("Obj := Object new. Obj instVarNamed: 'n' put: 5")
          .ok());
  EXPECT_EQ(client.Execute("Obj instVarNamed: 'n'").ValueOrDie(), "5");
  ASSERT_TRUE(client.Commit().ok());

  Client monitor = Connected();
  const std::string page = monitor.Statusz().ValueOrDie();
  EXPECT_GE(JsonCounter(page, "read_path_retries"), 1u) << page;
  // The retry also counts as a read-path attempt.
  EXPECT_GE(JsonCounter(page, "read_path_requests"),
            JsonCounter(page, "read_path_retries"))
      << page;
}

TEST_F(ReadPathTest, DialedCommitOfAWriteTakesTheExclusivePath) {
  StartServer();
  Client client = Connected();
  ASSERT_TRUE(client.Login().ok());
  ASSERT_TRUE(
      client.Execute("Obj := Object new. Obj instVarNamed: 'n' put: 7")
          .ok());
  // The dial makes the session's reads eligible again, but not its
  // commit: validate, persist and publish must run under the writer lock.
  ASSERT_TRUE(client.SetTimeDialToSafeTime().ok());

  Client monitor = Connected();
  const std::uint64_t before =
      JsonCounter(monitor.Statusz().ValueOrDie(), "read_path_requests");
  auto committed = client.Commit();
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  const std::string page = monitor.Statusz().ValueOrDie();
  EXPECT_EQ(JsonCounter(page, "read_path_requests"), before)
      << "a commit that publishes a write ran on the read path: " << page;

  // The reply's commit time names a state that holds the write.
  ASSERT_TRUE(client.Begin().ok());
  ASSERT_TRUE(client.SetTimeDial(committed.value()).ok());
  EXPECT_EQ(client.Execute("Obj instVarNamed: 'n'").ValueOrDie(), "7");
}

class StdmReadPathTest : public ReadPathTest {
 protected:
  /// The paper's Acme database behind the global X, committed before the
  /// gateway starts.
  void SetUp() override {
    SessionId session = executor_.Login().ValueOrDie();
    Value acme = stdm::ImportStdm(executor_.session(session),
                                  &executor_.memory(),
                                  stdm::BuildAcmeDatabase())
                     .ValueOrDie();
    executor_.globals().Set(executor_.memory().symbols().Intern("X"), acme);
    ASSERT_TRUE(executor_.session(session)->Commit().ok());
    ASSERT_TRUE(executor_.Logout(session).ok());
    StartServer();
  }
};

TEST_F(StdmReadPathTest, StdmAndExplainRunOnTheReadPath) {
  Client reader = Connected();
  ASSERT_TRUE(reader.Login().ok());
  Client monitor = Connected();
  const std::uint64_t before =
      JsonCounter(monitor.Statusz().ValueOrDie(), "read_path_requests");

  auto rows = reader.Stdm(
      "{{E: e} where (e in X!Employees) [(e!Salary > 24,500)]}");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_NE(rows.value().find("Burns"), std::string::npos) << rows.value();
  auto plan = reader.Explain(
      "{{E: e} where (e in X!Employees) [(e!Salary > 24,500)]}", true);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  const std::uint64_t after =
      JsonCounter(monitor.Statusz().ValueOrDie(), "read_path_requests");
  EXPECT_GE(after, before + 2) << "STDM/EXPLAIN bypassed the read path";
}

TEST_F(ReadPathTest, DisconnectMidRequestAbortsTheTransaction) {
  StartServer();

  Client doomed = Connected();
  ASSERT_TRUE(doomed.Login().ok());
  // An uncommitted write, so teardown must abort a real transaction.
  ASSERT_TRUE(
      doomed.Execute("Ghost := Object new. Ghost instVarNamed: 'v' put: 1")
          .ok());
  const std::size_t before = executor_.active_sessions();
  ASSERT_GE(before, 1u);

  // Fire a request and slam the connection before the reply: the worker
  // finds the connection dead, and the reaper logs the session out.
  const std::string frame =
      EncodeFrame(MsgType::kExecuteOpal, "1 to: 100000 do: [:i | i]");
  ASSERT_TRUE(doomed.SendRaw(frame).ok());
  doomed.Close();

  for (int i = 0; i < 2000 && executor_.active_sessions() >= before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LT(executor_.active_sessions(), before);

  // The aborted transaction's object never published: the global binding
  // survives (globals are not transactional), but the object behind it
  // does not exist in the committed state.
  Client checker = Connected();
  ASSERT_TRUE(checker.Login().ok());
  auto ghost = checker.Execute("Ghost instVarNamed: 'v'");
  EXPECT_FALSE(ghost.ok()) << ghost.value();
}

}  // namespace
}  // namespace gemstone::net
