#include "executor/executor.h"

#include <gtest/gtest.h>

namespace gemstone::executor {
namespace {

TEST(ExecutorTest, LoginExecuteLogout) {
  Executor executor;
  SessionId session = executor.Login().ValueOrDie();
  EXPECT_EQ(executor.active_sessions(), 1u);
  EXPECT_EQ(executor.Execute(session, "6 * 7").ValueOrDie(),
            Value::Integer(42));
  EXPECT_TRUE(executor.Logout(session).ok());
  EXPECT_EQ(executor.active_sessions(), 0u);
  EXPECT_EQ(executor.Execute(session, "1").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(executor.Logout(session).code(), StatusCode::kNotFound);
}

TEST(ExecutorTest, CompileErrorsReported) {
  Executor executor;
  SessionId session = executor.Login().ValueOrDie();
  Status s = executor.Execute(session, "1 + ").status();
  EXPECT_EQ(s.code(), StatusCode::kCompileError);
}

TEST(ExecutorTest, SessionsShareCommittedStateOnly) {
  Executor executor;
  SessionId alice = executor.Login().ValueOrDie();
  SessionId bob = executor.Login().ValueOrDie();
  ASSERT_TRUE(executor
                  .Execute(alice, "Acme := Object new. "
                                  "Acme instVarNamed: 'name' put: 'Acme'")
                  .ok());
  // Globals are shared immediately, but Bob cannot see Alice's
  // uncommitted object state.
  auto bob_read = executor.Execute(bob, "Acme instVarNamed: 'name'");
  EXPECT_FALSE(bob_read.ok());  // object not committed yet
  ASSERT_TRUE(executor.Execute(alice, "System commitTransaction").ok());
  EXPECT_EQ(executor.Execute(bob, "Acme instVarNamed: 'name'").ValueOrDie(),
            Value::String("Acme"));
}

// `Set add:` tests membership in place: a duplicate, by identity or by
// value, leaves the size unchanged.
TEST(ExecutorTest, SetAddOfADuplicateLeavesTheSizeUnchanged) {
  Executor executor;
  SessionId session = executor.Login().ValueOrDie();
  ASSERT_TRUE(executor
                  .Execute(session, "S := Set new. E := Object new. "
                                    "S add: 'a'; add: 3; add: E. 0")
                  .ok());
  EXPECT_EQ(executor.Execute(session, "S add: 'a'; add: 3; add: E. S size")
                .ValueOrDie(),
            Value::Integer(3));
  EXPECT_EQ(executor.Execute(session, "S add: 4. S size").ValueOrDie(),
            Value::Integer(4));
}

// Two sessions adding to one set conflict: the second to commit loses.
// So does a duplicate add, which only reads the set: the membership test
// joins the read set.
TEST(ExecutorTest, ConcurrentSetAddsConflict) {
  Executor executor;
  SessionId alice = executor.Login().ValueOrDie();
  ASSERT_TRUE(executor
                  .Execute(alice, "S := Set new. S add: 1. "
                                  "System commitTransaction")
                  .ok());
  SessionId bob = executor.Login().ValueOrDie();
  SessionId carol = executor.Login().ValueOrDie();
  ASSERT_TRUE(executor.Execute(alice, "S add: 2").ok());
  ASSERT_TRUE(executor.Execute(bob, "S add: 3").ok());
  ASSERT_TRUE(executor.Execute(carol, "S add: 1").ok());  // a duplicate
  EXPECT_EQ(executor.Execute(alice, "System commitTransaction").ValueOrDie(),
            Value::Boolean(true));
  EXPECT_EQ(executor.Execute(bob, "System commitTransaction").ValueOrDie(),
            Value::Boolean(false));
  EXPECT_EQ(executor.Execute(carol, "System commitTransaction").ValueOrDie(),
            Value::Boolean(false));
  EXPECT_EQ(executor.Execute(bob, "S size").ValueOrDie(), Value::Integer(2));
}

TEST(ExecutorTest, ExecuteToStringRendersResults) {
  Executor executor;
  SessionId session = executor.Login().ValueOrDie();
  EXPECT_EQ(executor.ExecuteToString(session, "3 + 4").ValueOrDie(), "7");
  EXPECT_EQ(executor.ExecuteToString(session, "'hi'").ValueOrDie(), "'hi'");
}

class DurableExecutorTest : public ::testing::Test {
 protected:
  DurableExecutorTest() : disk_(2048, 4096), engine_(&disk_) {
    EXPECT_TRUE(engine_.Format().ok());
  }

  storage::SimulatedDisk disk_;
  storage::StorageEngine engine_;
};

TEST_F(DurableExecutorTest, FullRecoveryOfObjectsClockAndSchema) {
  TxnTime clock_before = 0;
  Oid acme_oid;
  {
    Executor executor(&engine_);
    SessionId session = executor.Login().ValueOrDie();
    ASSERT_TRUE(executor
                    .Execute(session,
                             "Object subclass: 'Employee' "
                             "instVarNames: #('name' 'salary')")
                    .ok());
    ASSERT_TRUE(executor
                    .Execute(session,
                             "Employee compileMethod: 'name ^name'")
                    .ok());
    ASSERT_TRUE(executor
                    .Execute(session,
                             "Employee compileMethod: "
                             "'name: n name := n'")
                    .ok());
    ASSERT_TRUE(executor
                    .Execute(session,
                             "E := Employee new. "
                             "E name: 'Ellen Burns'. "
                             "System commitTransaction")
                    .ok());
    acme_oid = executor.Execute(session, "E").ValueOrDie().ref();
    ASSERT_TRUE(executor.SaveSchema(session).ok());
    clock_before = executor.transactions().Now();
  }

  // Crash: everything in memory is gone; recover from the platters.
  storage::StorageEngine recovered_engine(&disk_);
  ASSERT_TRUE(recovered_engine.Open().ok());
  auto recovered = Executor::Recover(&recovered_engine);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  Executor& executor = **recovered;

  EXPECT_GE(executor.transactions().Now(), clock_before);
  // The class came back with its compiled methods.
  const GsClass* employee = executor.memory().classes().FindByName("Employee");
  ASSERT_NE(employee, nullptr);
  EXPECT_EQ(employee->method_count(), 2u);

  // The object came back with identity and state; methods dispatch on it.
  SessionId session = executor.Login().ValueOrDie();
  executor.globals().Set(executor.memory().symbols().Intern("E"),
                         Value::Ref(acme_oid));
  EXPECT_EQ(executor.Execute(session, "E name").ValueOrDie(),
            Value::String("Ellen Burns"));
  EXPECT_EQ(executor.Execute(session, "E class name").ValueOrDie(),
            Value::String("Employee"));

  // New identities never collide with recovered ones.
  Value fresh = executor.Execute(session, "Employee new").ValueOrDie();
  EXPECT_GT(fresh.ref().raw, acme_oid.raw);
}

TEST_F(DurableExecutorTest, HistorySurvivesRecovery) {
  Oid box_oid;
  TxnTime t1 = 0;
  {
    Executor executor(&engine_);
    SessionId session = executor.Login().ValueOrDie();
    ASSERT_TRUE(executor
                    .Execute(session,
                             "B := Object new. "
                             "B instVarNamed: 'v' put: 'old'. "
                             "System commitTransaction")
                    .ok());
    t1 = executor.transactions().Now();
    box_oid = executor.Execute(session, "B").ValueOrDie().ref();
    ASSERT_TRUE(executor
                    .Execute(session,
                             "B instVarNamed: 'v' put: 'new'. "
                             "System commitTransaction")
                    .ok());
  }

  storage::StorageEngine recovered_engine(&disk_);
  ASSERT_TRUE(recovered_engine.Open().ok());
  auto recovered = Executor::Recover(&recovered_engine);
  ASSERT_TRUE(recovered.ok());
  Executor& executor = **recovered;
  SessionId session = executor.Login().ValueOrDie();
  executor.globals().Set(executor.memory().symbols().Intern("B"),
                         Value::Ref(box_oid));
  EXPECT_EQ(executor.Execute(session, "B instVarNamed: 'v'").ValueOrDie(),
            Value::String("new"));
  // The past state is still addressable after recovery.
  EXPECT_EQ(executor
                .Execute(session, "B elementAt: 'v' atTime: " +
                                      std::to_string(t1))
                .ValueOrDie(),
            Value::String("old"));
}

}  // namespace
}  // namespace gemstone::executor
