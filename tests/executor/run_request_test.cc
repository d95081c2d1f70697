// Executor::RunRequest, in process (DESIGN.md §12): the one entry point
// that decides how a request runs. A pinned read completes while another
// request sits inside the writer lock; pinned work that writes bounces
// exactly once, reruns under the lock and applies its side effect once;
// and a commit of a transaction that recorded anything — dialed or not —
// only ever runs under the lock.
//
// Runs in the `tsan` tree: the first test executes two sessions on two
// threads at once.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "executor/executor.h"

namespace gemstone::executor {
namespace {

using Kind = Executor::RequestKind;

class RunRequestTest : public ::testing::Test {
 protected:
  RunRequestTest() {
    const SessionId setup = executor_.Login().ValueOrDie();
    EXPECT_TRUE(executor_
                    .Execute(setup,
                             "Box := Object new. "
                             "Box instVarNamed: 'n' put: 41. "
                             "System commitTransaction")
                    .ok());
    EXPECT_TRUE(executor_.Logout(setup).ok());
  }

  /// Runs `source` as a `kind` request of `session`, recording each call
  /// of the body (pinned or not) and each writer-lock notification.
  struct Run {
    Status status;
    std::string answer;
    Executor::RunLegs legs;
    std::vector<bool> pinned_calls;
    std::vector<bool> lock_events;
  };
  Run RunSource(SessionId session, Kind kind, const std::string& source) {
    Run run;
    run.status = executor_.RunRequest(
        session, kind,
        [&]() -> Status {
          run.pinned_calls.push_back(
              executor_.session(session)->SnapshotPinned());
          GS_ASSIGN_OR_RETURN(run.answer,
                              executor_.ExecuteToString(session, source));
          return Status::OK();
        },
        [&](bool locked) { run.lock_events.push_back(locked); }, &run.legs);
    return run;
  }

  /// A commit request of `session`; `locked_calls` records, per body
  /// call, whether the writer lock was held.
  Status Commit(SessionId session, Executor::RunLegs* legs,
                std::vector<bool>* locked_calls) {
    bool locked = false;
    return executor_.RunRequest(
        session, Kind::kCommit,
        [&] {
          locked_calls->push_back(locked);
          return executor_.session(session)->Commit();
        },
        [&](bool now_locked) { locked = now_locked; }, legs);
  }

  Executor executor_;
};

TEST_F(RunRequestTest, PinnedReadCompletesWhileAWriterHoldsTheLock) {
  const SessionId writer = executor_.Login().ValueOrDie();
  const SessionId reader = executor_.Login().ValueOrDie();

  std::mutex mu;
  std::condition_variable cv;
  bool inside = false;
  bool release = false;
  bool writer_timed_out = false;
  std::thread writer_thread([&] {
    Executor::RunLegs legs;
    const Status status = executor_.RunRequest(
        writer, Kind::kOther,
        [&] {
          // Mid-execute inside the writer lock until the reader is done.
          std::unique_lock<std::mutex> lock(mu);
          inside = true;
          cv.notify_all();
          writer_timed_out = !cv.wait_for(lock, std::chrono::seconds(10),
                                          [&] { return release; });
          return Status::OK();
        },
        [](bool) {}, &legs);
    EXPECT_TRUE(status.ok());
    EXPECT_FALSE(legs.read_path);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return inside; });
  }

  // Had the read queued behind the writer lock, it would only finish
  // after the writer's 10 s timeout.
  const Run read = RunSource(reader, Kind::kQuery, "Box instVarNamed: 'n'");
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  writer_thread.join();

  ASSERT_TRUE(read.status.ok()) << read.status.ToString();
  EXPECT_EQ(read.answer, "41");
  EXPECT_TRUE(read.legs.read_path);
  EXPECT_FALSE(read.legs.retried);
  EXPECT_EQ(read.pinned_calls, std::vector<bool>{true});
  EXPECT_TRUE(read.lock_events.empty());
  EXPECT_FALSE(writer_timed_out) << "the read waited for the writer lock";
}

TEST_F(RunRequestTest, PinnedWriteBouncesOnceAndAppliesOnce) {
  const SessionId session = executor_.Login().ValueOrDie();
  const Run run = RunSource(
      session, Kind::kQuery,
      "Box instVarNamed: 'n' put: (Box instVarNamed: 'n') + 1");
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_TRUE(run.legs.read_path);
  EXPECT_TRUE(run.legs.retried);
  // One pinned attempt, then one rerun under the lock, unpinned.
  EXPECT_EQ(run.pinned_calls, (std::vector<bool>{true, false}));
  EXPECT_EQ(run.lock_events, (std::vector<bool>{false, true}));
  EXPECT_FALSE(executor_.session(session)->SnapshotPinned());

  // The increment applied once: the bounced attempt mutated nothing.
  ASSERT_TRUE(
      executor_.Execute(session, "System commitTransaction").ok());
  const SessionId other = executor_.Login().ValueOrDie();
  EXPECT_EQ(executor_.ExecuteToString(other, "Box instVarNamed: 'n'")
                .ValueOrDie(),
            "42");
}

TEST_F(RunRequestTest, CommitOfARecordedTransactionRunsOnlyUnderTheLock) {
  // A recorded read, a recorded write, and a recorded write behind a
  // time dial (the dial makes reads eligible again, never the commit).
  const char* kWork[] = {"Box instVarNamed: 'n'",
                         "Box instVarNamed: 'n' put: 7",
                         "Box instVarNamed: 'n' put: 8"};
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(kWork[i]);
    const SessionId session = executor_.Login().ValueOrDie();
    // Run unpinned, as the lock path would, so the access is recorded.
    ASSERT_TRUE(executor_.Execute(session, kWork[i]).ok());
    if (i == 2) executor_.session(session)->SetTimeDialToSafeTime();

    Executor::RunLegs legs;
    std::vector<bool> locked_calls;
    const Status status = Commit(session, &legs, &locked_calls);
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_FALSE(legs.read_path);
    EXPECT_EQ(locked_calls, std::vector<bool>{true});
  }

  // An access-free commit is the manager's lock-free tier 0.
  const SessionId fresh = executor_.Login().ValueOrDie();
  Executor::RunLegs legs;
  std::vector<bool> locked_calls;
  ASSERT_TRUE(Commit(fresh, &legs, &locked_calls).ok());
  EXPECT_TRUE(legs.read_path);
  EXPECT_EQ(locked_calls, std::vector<bool>{false});
}

}  // namespace
}  // namespace gemstone::executor
