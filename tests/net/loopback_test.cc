// Loopback integration tests: a real Server on 127.0.0.1 and real
// net::Clients exercising §6's network link end to end — login, committed
// OPAL writes, OCC conflicts across connections, time-dialed reads, STDM
// queries and EXPLAIN over the wire, and the robustness contract
// (disconnect mid-transaction, capacity rejection, error frames that
// never tear the connection).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../stdm/acme_fixture.h"
#include "admin/authorization.h"
#include "executor/executor.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "stdm/gsdm_bridge.h"
#include "telemetry/metrics.h"

namespace gemstone::net {
namespace {

class LoopbackTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    server_ = std::make_unique<Server>(&executor_, &auth_, options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  /// The reaper runs on the event loop; give it a moment.
  void WaitForConnectionCount(std::int64_t want) {
    for (int i = 0; i < 500; ++i) {
      if (server_->connection_count() == want) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server_->connection_count(), want);
  }

  Client Connected() {
    Client client;
    EXPECT_TRUE(client.Connect(server_->port()).ok());
    return client;
  }

  executor::Executor executor_;
  admin::AuthorizationManager auth_;
  std::unique_ptr<Server> server_;
};

TEST_F(LoopbackTest, LoginExecuteLogoutRoundTrip) {
  StartServer();
  Client client = Connected();
  auto session = client.Login();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_GT(session.value(), 0u);

  auto result = client.Execute("6 * 7");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value(), "42");

  EXPECT_TRUE(client.Logout().ok());
  client.Close();
  WaitForConnectionCount(0);
}

TEST_F(LoopbackTest, ErrorFramesNeverDisconnect) {
  StartServer();
  Client client = Connected();
  ASSERT_TRUE(client.Login().ok());

  // A compile error travels back as a kError frame with the same code and
  // text the local REPL would print...
  auto bad = client.Execute("1 + ");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCompileError);
  EXPECT_NE(bad.status().message().find("CompileError"), std::string::npos);

  // ...and the connection is still perfectly usable.
  EXPECT_EQ(client.Execute("1 + 1").ValueOrDie(), "2");

  // A runtime error likewise.
  auto dnu = client.Execute("3 frobnicate");
  ASSERT_FALSE(dnu.ok());
  EXPECT_EQ(dnu.status().code(), StatusCode::kDoesNotUnderstand);
  EXPECT_EQ(client.Execute("2 + 2").ValueOrDie(), "4");
}

TEST_F(LoopbackTest, RequestsBeforeLoginAreRejected) {
  StartServer();
  Client client = Connected();
  auto result = client.Execute("1");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTransactionState);
  // Begin/Commit too.
  EXPECT_EQ(client.Begin().code(), StatusCode::kTransactionState);
  // Stats is a monitoring endpoint and needs no session.
  EXPECT_TRUE(client.Stats().ok());
  // Login still works afterwards.
  EXPECT_TRUE(client.Login().ok());
  // Double login is an error, not a disconnect.
  EXPECT_EQ(client.Login().status().code(), StatusCode::kTransactionState);
}

TEST_F(LoopbackTest, CommittedWriteVisibleToOtherClientAndConflictsAbort) {
  StartServer();
  Client alice = Connected();
  ASSERT_TRUE(alice.Login().ok());
  ASSERT_TRUE(
      alice.Execute("Box := Object new. Box instVarNamed: 'v' put: 'init'")
          .ok());
  ASSERT_TRUE(alice.Commit().ok());
  ASSERT_TRUE(alice.Begin().ok());

  // Bob logs in after the commit and sees the committed state.
  Client bob = Connected();
  ASSERT_TRUE(bob.Login().ok());
  EXPECT_EQ(bob.Execute("Box instVarNamed: 'v'").ValueOrDie(), "'init'");

  // Both write the same object; first committer wins, the second gets a
  // TransactionConflict error frame (not a disconnect).
  ASSERT_TRUE(alice.Execute("Box instVarNamed: 'v' put: 'alice'").ok());
  ASSERT_TRUE(bob.Execute("Box instVarNamed: 'v' put: 'bob'").ok());
  ASSERT_TRUE(alice.Commit().ok());
  auto bob_commit = bob.Commit();
  ASSERT_FALSE(bob_commit.ok());
  EXPECT_EQ(bob_commit.status().code(), StatusCode::kTransactionConflict);

  // Bob begins a fresh transaction over the committed state and succeeds.
  ASSERT_TRUE(bob.Begin().ok());
  EXPECT_EQ(bob.Execute("Box instVarNamed: 'v'").ValueOrDie(), "'alice'");
  ASSERT_TRUE(bob.Execute("Box instVarNamed: 'v' put: 'bob'").ok());
  EXPECT_TRUE(bob.Commit().ok());
}

TEST_F(LoopbackTest, TimeDialReadsThePast) {
  StartServer();
  Client client = Connected();
  ASSERT_TRUE(client.Login().ok());
  ASSERT_TRUE(
      client.Execute("B := Object new. B instVarNamed: 'v' put: 'old'").ok());
  auto t1 = client.Commit();
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(client.Begin().ok());
  ASSERT_TRUE(client.Execute("B instVarNamed: 'v' put: 'new'").ok());
  ASSERT_TRUE(client.Commit().ok());
  ASSERT_TRUE(client.Begin().ok());

  EXPECT_EQ(client.Execute("B instVarNamed: 'v'").ValueOrDie(), "'new'");
  // Dial back to the first commit: the same read answers the past.
  ASSERT_TRUE(client.SetTimeDial(t1.value()).ok());
  EXPECT_EQ(client.Execute("B instVarNamed: 'v'").ValueOrDie(), "'old'");
  // The past is immutable through a set dial.
  EXPECT_FALSE(client.Execute("B instVarNamed: 'v' put: 'rewrite'").ok());
  ASSERT_TRUE(client.ClearTimeDial().ok());
  EXPECT_EQ(client.Execute("B instVarNamed: 'v'").ValueOrDie(), "'new'");
  // SafeTime dialing is accepted too.
  EXPECT_TRUE(client.SetTimeDialToSafeTime().ok());
  EXPECT_TRUE(client.ClearTimeDial().ok());
}

TEST_F(LoopbackTest, MalformedSetTimeDialPayloadIsAnError) {
  StartServer();
  // Both legs of the dispatch switch: a fresh session runs these requests
  // on the snapshot read path, one holding an uncommitted write under the
  // executor lock.
  Client fresh = Connected();
  ASSERT_TRUE(fresh.Login().ok());
  Client writer = Connected();
  ASSERT_TRUE(writer.Login().ok());
  ASSERT_TRUE(writer.Execute("Held := Object new").ok());
  auto& registry = telemetry::MetricsRegistry::Global();
  const telemetry::Counter* requests =
      registry.GetCounter("net.read_path_requests");
  const telemetry::Counter* retries =
      registry.GetCounter("net.read_path_retries");

  struct Case {
    MsgType type;
    std::string payload;
  };
  const Case cases[] = {
      {MsgType::kSetTimeDial, ""},
      {MsgType::kSetTimeDial, std::string{static_cast<char>(kDialExplicit),
                                          '\0'}},
      {MsgType::kExplain, ""},
  };
  for (Client* client : {&fresh, &writer}) {
    const bool read_path = client == &fresh;
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(read_path ? "read path" : "exclusive path") +
                   ", type " + std::to_string(static_cast<int>(c.type)) +
                   ", payload bytes " + std::to_string(c.payload.size()));
      const std::uint64_t requests_before = requests->value();
      const std::uint64_t retries_before = retries->value();
      ASSERT_TRUE(client->SendRaw(EncodeFrame(c.type, c.payload)).ok());
      auto frame = client->ReadFrame();
      ASSERT_TRUE(frame.ok());
      EXPECT_EQ(frame->type, MsgType::kError);
      EXPECT_EQ(DecodeErrorPayload(frame->payload).code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(requests->value(), requests_before + (read_path ? 1u : 0u));
      EXPECT_EQ(retries->value(), retries_before);
      // Still connected.
      EXPECT_EQ(client->Execute("1 + 1").ValueOrDie(), "2");
    }
  }
}

class StdmLoopbackTest : public LoopbackTest {
 protected:
  /// Builds the paper's Acme database behind the global X before the
  /// server starts (the gateway owns the Executor from then on).
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

TEST_F(StdmLoopbackTest, StdmQueryOverTheWire) {
  Client client = Connected();
  ASSERT_TRUE(client.Login().ok());
  auto result =
      client.Stdm("{{E: e} where (e in X!Employees) [(e!Salary > 24,500)]}");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result.value().find("Burns"), std::string::npos) << result.value();
  EXPECT_EQ(result.value().find("Peters"), std::string::npos)
      << result.value();

  // Parse errors come back as error frames.
  auto bad = client.Stdm("{{E: e} where");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(client.Execute("1 + 1").ValueOrDie(), "2");
}

TEST_F(StdmLoopbackTest, ExplainOverTheWire) {
  Client client = Connected();
  ASSERT_TRUE(client.Login().ok());
  auto plain = client.Explain(
      "{{E: e} where (e in X!Employees) [(e!Salary > 24,500)]}", false);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain.value().rfind("EXPLAIN {", 0), 0u) << plain.value();
  EXPECT_NE(plain.value().find("Scan[X!Employees]"), std::string::npos);
  EXPECT_EQ(plain.value().find("totals:"), std::string::npos);

  auto analyzed = client.Explain(
      "{{E: e} where (e in X!Employees) [(e!Salary > 24,500)]}", true);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ(analyzed.value().rfind("EXPLAIN ANALYZE {", 0), 0u);
  EXPECT_NE(analyzed.value().find("totals:"), std::string::npos);
}

TEST_F(LoopbackTest, StatsFormatsOverTheWire) {
  StartServer();
  Client client = Connected();
  auto text = client.Stats(kStatsText);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text.value().find("net.requests"), std::string::npos);
  auto json = client.Stats(kStatsJson);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json.value().front(), '{');
  auto prom = client.Stats(kStatsProm);
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom.value().find("gemstone_"), std::string::npos);
}

TEST_F(LoopbackTest, ConcurrentClientsContendOnOneObject) {
  ServerOptions options;
  options.workers = 4;
  StartServer(options);
  {
    Client setup = Connected();
    ASSERT_TRUE(setup.Login().ok());
    ASSERT_TRUE(
        setup.Execute("Counter := Object new. "
                      "Counter instVarNamed: 'n' put: 0")
            .ok());
    ASSERT_TRUE(setup.Commit().ok());
    ASSERT_TRUE(setup.Logout().ok());
  }

  constexpr int kClients = 6;
  constexpr int kCommitsEach = 5;
  std::atomic<int> conflicts{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      Client client;
      if (!client.Connect(server_->port()).ok() || !client.Login().ok()) {
        failed = true;
        return;
      }
      int committed = 0;
      // OCC: retry until this client lands kCommitsEach increments.
      for (int attempt = 0; committed < kCommitsEach && attempt < 500;
           ++attempt) {
        if (!client
                 .Execute("Counter instVarNamed: 'n' put: "
                          "(Counter instVarNamed: 'n') + 1")
                 .ok()) {
          failed = true;
          return;
        }
        auto commit = client.Commit();
        if (commit.ok()) {
          ++committed;
        } else if (commit.status().code() ==
                   StatusCode::kTransactionConflict) {
          conflicts.fetch_add(1);
        } else {
          failed = true;
          return;
        }
        if (!client.Begin().ok()) {
          failed = true;
          return;
        }
      }
      if (committed != kCommitsEach) failed = true;
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load());

  Client reader = Connected();
  ASSERT_TRUE(reader.Login().ok());
  EXPECT_EQ(reader.Execute("Counter instVarNamed: 'n'").ValueOrDie(),
            std::to_string(kClients * kCommitsEach));
}

TEST_F(LoopbackTest, DisconnectMidTransactionAbortsAndReclaimsSlot) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer(options);

  {
    Client doomed = Connected();
    ASSERT_TRUE(doomed.Login().ok());
    ASSERT_TRUE(
        doomed.Execute("Ghost := Object new. "
                       "Ghost instVarNamed: 'v' put: 'uncommitted'")
            .ok());
    // Vanish mid-transaction: no commit, no logout.
    doomed.Close();
  }
  WaitForConnectionCount(0);
  // The session was torn down with its transaction aborted. The reaper
  // logs out before it drops the connection, but poll briefly anyway —
  // the two counters are separate atomics.
  for (int i = 0; i < 500 && executor_.active_sessions() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(executor_.active_sessions(), 0u);

  // The single connection slot is reclaimed and the database is clean:
  // the ghost's uncommitted object state never became visible.
  Client next = Connected();
  ASSERT_TRUE(next.Login().ok());
  auto read = next.Execute("Ghost instVarNamed: 'v'");
  EXPECT_FALSE(read.ok());  // object state was never committed
  ASSERT_TRUE(
      next.Execute("Claim := Object new. Claim instVarNamed: 'v' put: 'ok'")
          .ok());
  EXPECT_TRUE(next.Commit().ok());
}

TEST_F(LoopbackTest, ConnectionsBeyondCapacityAreRefusedPolitely) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer(options);

  Client first = Connected();
  ASSERT_TRUE(first.Login().ok());

  Client second;
  ASSERT_TRUE(second.Connect(server_->port()).ok());
  auto frame = second.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, MsgType::kProtocolError);
  EXPECT_NE(frame->payload.find("capacity"), std::string::npos);
  // The server closes the refused socket after the notice.
  EXPECT_FALSE(second.ReadFrame().ok());

  // The admitted connection is unaffected.
  EXPECT_EQ(first.Execute("1 + 1").ValueOrDie(), "2");
}

TEST_F(LoopbackTest, GracefulShutdownDrainsInFlightCommits) {
  StartServer();
  Client client = Connected();
  ASSERT_TRUE(client.Login().ok());
  ASSERT_TRUE(
      client.Execute("D := Object new. D instVarNamed: 'v' put: 'durable'")
          .ok());
  // Race Stop() against the commit: the pipelined commit frame must either
  // complete (drained) or never start — a torn half-commit is a bug.
  ASSERT_TRUE(client.SendRaw(EncodeFrame(MsgType::kCommit, "")).ok());
  server_->Stop();
  EXPECT_FALSE(server_->running());

  // The executor outlives the server; check the commit's fate directly.
  SessionId session = executor_.Login().ValueOrDie();
  auto read = executor_.ExecuteToString(session, "D instVarNamed: 'v'");
  if (read.ok()) {
    EXPECT_EQ(read.value(), "'durable'");
  } else {
    EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
  }
}

TEST_F(LoopbackTest, IdleConnectionsAreClosed) {
  ServerOptions options;
  options.idle_timeout_ms = 50;
  StartServer(options);
  Client client = Connected();
  ASSERT_TRUE(client.Login().ok());
  // Stay silent past the deadline; the server hangs up.
  auto frame = client.ReadFrame();
  EXPECT_FALSE(frame.ok());
  WaitForConnectionCount(0);
}

}  // namespace
}  // namespace gemstone::net
