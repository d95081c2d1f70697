#include "txn/session.h"

#include <gtest/gtest.h>

#include <thread>

namespace gemstone::txn {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() : manager_(&memory_), session_(&manager_, 1) {}

  SymbolId Sym(std::string_view s) { return memory_.symbols().Intern(s); }

  /// Commits an empty transaction to advance the logical clock to `t`.
  void PadClockTo(TxnTime t) {
    while (manager_.Now() < t) {
      auto txn = manager_.Begin(0);
      Oid pad =
          manager_.CreateObject(txn.get(), memory_.kernel().object)
              .ValueOrDie();
      (void)pad;
      ASSERT_TRUE(manager_.Commit(txn.get()).ok());
    }
  }

  ObjectMemory memory_;
  TransactionManager manager_;
  Session session_;
};

TEST_F(SessionTest, TransactionLifecycle) {
  EXPECT_FALSE(session_.InTransaction());
  EXPECT_EQ(session_.Commit().code(), StatusCode::kTransactionState);
  ASSERT_TRUE(session_.Begin().ok());
  EXPECT_TRUE(session_.InTransaction());
  EXPECT_EQ(session_.Begin().code(), StatusCode::kTransactionState);
  ASSERT_TRUE(session_.Commit().ok());
  EXPECT_FALSE(session_.InTransaction());
  ASSERT_TRUE(session_.Begin().ok());
  ASSERT_TRUE(session_.Abort().ok());
}

TEST_F(SessionTest, ReadOutsideTransactionRejected) {
  EXPECT_EQ(session_.ReadNamed(Oid(1), Sym("x")).status().code(),
            StatusCode::kTransactionState);
}

TEST_F(SessionTest, TimeDialBlocksWrites) {
  ASSERT_TRUE(session_.Begin().ok());
  auto oid = session_.Create(memory_.kernel().object).ValueOrDie();
  session_.SetTimeDial(0);
  EXPECT_TRUE(session_.DialSet());
  EXPECT_EQ(session_.WriteNamed(oid, Sym("x"), Value::Integer(1)).code(),
            StatusCode::kTransactionState);
  EXPECT_EQ(session_.Create(memory_.kernel().object).status().code(),
            StatusCode::kTransactionState);
  session_.ClearTimeDial();
  EXPECT_TRUE(session_.WriteNamed(oid, Sym("x"), Value::Integer(1)).ok());
}

// §4.2: "Two entities can have equivalent structures ... but not be the
// same object. Thus, we can distinguish, say, two gates in a circuit that
// have all the same characteristics, but are not physically the same gate."
TEST_F(SessionTest, IdentityVersusStructuralEquivalence) {
  ASSERT_TRUE(session_.Begin().ok());
  Oid gate1 = session_.Create(memory_.kernel().object).ValueOrDie();
  Oid gate2 = session_.Create(memory_.kernel().object).ValueOrDie();
  for (Oid g : {gate1, gate2}) {
    ASSERT_TRUE(
        session_.WriteNamed(g, Sym("kind"), Value::String("nand")).ok());
    ASSERT_TRUE(
        session_.WriteNamed(g, Sym("delayNs"), Value::Integer(4)).ok());
  }
  ASSERT_TRUE(session_.Commit().ok());
  const TxnTime built = manager_.Now();

  ASSERT_TRUE(session_.Begin().ok());
  // Not identical...
  EXPECT_NE(Value::Ref(gate1), Value::Ref(gate2));
  // ...but structurally equivalent.
  EXPECT_TRUE(session_.DeepEquals(Value::Ref(gate1), Value::Ref(gate2))
                  .ValueOrDie());
  ASSERT_TRUE(
      session_.WriteNamed(gate2, Sym("delayNs"), Value::Integer(9)).ok());
  ASSERT_TRUE(session_.Commit().ok());

  ASSERT_TRUE(session_.Begin().ok());
  EXPECT_FALSE(session_.DeepEquals(Value::Ref(gate1), Value::Ref(gate2))
                   .ValueOrDie());
  // When first built they were still equivalent.
  session_.SetTimeDial(built);
  EXPECT_TRUE(session_.DeepEquals(Value::Ref(gate1), Value::Ref(gate2))
                  .ValueOrDie());
}

TEST_F(SessionTest, DeepEqualsDifferentClassesFalse) {
  ASSERT_TRUE(session_.Begin().ok());
  Oid a = session_.Create(memory_.kernel().set).ValueOrDie();
  Oid b = session_.Create(memory_.kernel().bag).ValueOrDie();
  EXPECT_FALSE(
      session_.DeepEquals(Value::Ref(a), Value::Ref(b)).ValueOrDie());
}

TEST_F(SessionTest, DeepEqualsSetsAreUnordered) {
  ASSERT_TRUE(session_.Begin().ok());
  Oid s1 = session_.Create(memory_.kernel().set).ValueOrDie();
  Oid s2 = session_.Create(memory_.kernel().set).ValueOrDie();
  auto add = [&](Oid set, Value v) {
    ASSERT_TRUE(session_
                    .WriteNamed(set, memory_.symbols().GenerateAlias(),
                                std::move(v))
                    .ok());
  };
  add(s1, Value::String("Olivia"));
  add(s1, Value::String("Dale"));
  add(s2, Value::String("Dale"));
  add(s2, Value::String("Olivia"));
  EXPECT_TRUE(
      session_.DeepEquals(Value::Ref(s1), Value::Ref(s2)).ValueOrDie());
  add(s2, Value::String("Paul"));
  EXPECT_FALSE(
      session_.DeepEquals(Value::Ref(s1), Value::Ref(s2)).ValueOrDie());
}

TEST_F(SessionTest, DeepEqualsHandlesCycles) {
  ASSERT_TRUE(session_.Begin().ok());
  Oid a = session_.Create(memory_.kernel().object).ValueOrDie();
  Oid b = session_.Create(memory_.kernel().object).ValueOrDie();
  ASSERT_TRUE(session_.WriteNamed(a, Sym("next"), Value::Ref(b)).ok());
  ASSERT_TRUE(session_.WriteNamed(b, Sym("next"), Value::Ref(a)).ok());
  // Two mutually-referencing objects: structurally equivalent under the
  // coinductive reading, and the comparison must terminate.
  EXPECT_TRUE(session_.DeepEquals(Value::Ref(a), Value::Ref(b)).ValueOrDie());
}

// A decision taken on a structural comparison depends on every object the
// comparison read, so those reads are validated at commit like any other:
// `(X deepEqualTo: Y) ifTrue: [Z instVarNamed: 'bal' put: 99]` must abort
// when another session changes Y first.
TEST_F(SessionTest, DeepEqualsJoinsTheReadSet) {
  ASSERT_TRUE(session_.Begin().ok());
  Oid x = session_.Create(memory_.kernel().object).ValueOrDie();
  Oid y = session_.Create(memory_.kernel().object).ValueOrDie();
  Oid z = session_.Create(memory_.kernel().object).ValueOrDie();
  for (Oid oid : {x, y, z}) {
    ASSERT_TRUE(session_.WriteNamed(oid, Sym("bal"), Value::Integer(1)).ok());
  }
  ASSERT_TRUE(session_.Commit().ok());

  Session other(&manager_, 2);
  ASSERT_TRUE(session_.Begin().ok());
  ASSERT_TRUE(other.Begin().ok());
  ASSERT_TRUE(
      session_.DeepEquals(Value::Ref(x), Value::Ref(y)).ValueOrDie());
  ASSERT_TRUE(session_.WriteNamed(z, Sym("bal"), Value::Integer(99)).ok());
  ASSERT_TRUE(other.WriteNamed(y, Sym("bal"), Value::Integer(2)).ok());
  ASSERT_TRUE(other.Commit().ok());
  EXPECT_TRUE(session_.Commit().IsTransactionConflict());
}

// Figure 1, end to end through sessions: the company president changes
// from Ayn Rand to Milton Friedman at time 8; Ayn leaves the employees
// set at 8 and moves to San Diego afterwards.
class Figure1SessionTest : public SessionTest {
 protected:
  void SetUp() override {
    ASSERT_TRUE(session_.Begin().ok());
    world_ = session_.Create(memory_.kernel().dictionary).ValueOrDie();
    acme_ = session_.Create(memory_.kernel().object).ValueOrDie();
    ayn_ = session_.Create(memory_.kernel().object).ValueOrDie();
    milton_ = session_.Create(memory_.kernel().object).ValueOrDie();
    employees_ = session_.Create(memory_.kernel().set).ValueOrDie();
    ASSERT_TRUE(
        session_.WriteNamed(world_, Sym("Acme Corp"), Value::Ref(acme_)).ok());
    ASSERT_TRUE(
        session_.WriteNamed(acme_, Sym("employees"), Value::Ref(employees_))
            .ok());
    ASSERT_TRUE(session_
                    .WriteNamed(ayn_, Sym("name"), Value::String("Ayn Rand"))
                    .ok());
    ASSERT_TRUE(session_
                    .WriteNamed(milton_, Sym("name"),
                                Value::String("Milton Friedman"))
                    .ok());
    ASSERT_TRUE(
        session_.WriteNamed(milton_, Sym("city"), Value::String("Seattle"))
            .ok());
    ASSERT_TRUE(session_.Commit().ok());  // commit time 1

    // t=2: Ayn hired (employee number 1821), lives in Portland.
    ASSERT_TRUE(session_.Begin().ok());
    ASSERT_TRUE(
        session_.WriteNamed(employees_, Sym("1821"), Value::Ref(ayn_)).ok());
    ASSERT_TRUE(
        session_.WriteNamed(ayn_, Sym("city"), Value::String("Portland"))
            .ok());
    ASSERT_TRUE(session_.Commit().ok());  // commit time 2

    PadClockTo(4);

    // t=5: Ayn becomes president.
    ASSERT_TRUE(session_.Begin().ok());
    ASSERT_TRUE(
        session_.WriteNamed(acme_, Sym("president"), Value::Ref(ayn_)).ok());
    ASSERT_TRUE(session_.Commit().ok());  // commit time 5

    PadClockTo(7);

    // t=8: Milton replaces Ayn, moves to Portland; Ayn leaves the company.
    ASSERT_TRUE(session_.Begin().ok());
    ASSERT_TRUE(
        session_.WriteNamed(acme_, Sym("president"), Value::Ref(milton_))
            .ok());
    ASSERT_TRUE(
        session_.WriteNamed(milton_, Sym("city"), Value::String("Portland"))
            .ok());
    ASSERT_TRUE(
        session_.WriteNamed(employees_, Sym("1821"), Value::Nil()).ok());
    ASSERT_TRUE(session_.Commit().ok());  // commit time 8

    PadClockTo(10);

    // t=11: shortly after leaving, Ayn moves to San Diego.
    ASSERT_TRUE(session_.Begin().ok());
    ASSERT_TRUE(
        session_.WriteNamed(ayn_, Sym("city"), Value::String("San Diego"))
            .ok());
    ASSERT_TRUE(session_.Commit().ok());  // commit time 11
  }

  Oid world_, acme_, ayn_, milton_, employees_;
};

TEST_F(Figure1SessionTest, CurrentPresidentIsMilton) {
  ASSERT_TRUE(session_.Begin().ok());
  // World!'Acme Corp'!'president'
  Value acme = session_.ReadNamed(world_, Sym("Acme Corp")).ValueOrDie();
  Value president =
      session_.ReadNamed(acme.ref(), Sym("president")).ValueOrDie();
  EXPECT_EQ(president, Value::Ref(milton_));
  EXPECT_EQ(session_.ReadNamed(president.ref(), Sym("name")).ValueOrDie(),
            Value::String("Milton Friedman"));
}

TEST_F(Figure1SessionTest, PresidentAtTenIsMiltonAtSevenIsAyn) {
  ASSERT_TRUE(session_.Begin().ok());
  // World!'Acme Corp'!'president'@10
  EXPECT_EQ(session_.ReadNamedAt(acme_, Sym("president"), 10).ValueOrDie(),
            Value::Ref(milton_));
  // ...@7 yields the previous president.
  EXPECT_EQ(session_.ReadNamedAt(acme_, Sym("president"), 7).ValueOrDie(),
            Value::Ref(ayn_));
  // Before she took office there was no binding at all -> nil view.
  EXPECT_TRUE(
      session_.ReadNamedAt(acme_, Sym("president"), 4).ValueOrDie().IsNil());
}

TEST_F(Figure1SessionTest, PreviousPresidentsCurrentCityIsSanDiego) {
  ASSERT_TRUE(session_.Begin().ok());
  // World!'Acme Corp'!'president'@7!city — @7 resolves the president,
  // the trailing step reads the *current* state.
  Value past_president =
      session_.ReadNamedAt(acme_, Sym("president"), 7).ValueOrDie();
  EXPECT_EQ(
      session_.ReadNamed(past_president.ref(), Sym("city")).ValueOrDie(),
      Value::String("San Diego"));
  // And her city as of time 7 was still Portland.
  EXPECT_EQ(session_.ReadNamedAt(past_president.ref(), Sym("city"), 7)
                .ValueOrDie(),
            Value::String("Portland"));
}

TEST_F(Figure1SessionTest, AynLeavesTheEmployeesSetAtEight) {
  ASSERT_TRUE(session_.Begin().ok());
  EXPECT_EQ(session_.ReadNamedAt(employees_, Sym("1821"), 7).ValueOrDie(),
            Value::Ref(ayn_));
  EXPECT_TRUE(
      session_.ReadNamedAt(employees_, Sym("1821"), 9).ValueOrDie().IsNil());
  // Identity outlives reachability: Ayn's object still exists with her
  // full history even though no current state references her (§5.4).
  EXPECT_EQ(session_.ReadNamed(ayn_, Sym("name")).ValueOrDie(),
            Value::String("Ayn Rand"));
}

TEST_F(Figure1SessionTest, TimeDialReplaysAPastState) {
  ASSERT_TRUE(session_.Begin().ok());
  session_.SetTimeDial(7);
  // With the dial at 7 every read resolves @7.
  EXPECT_EQ(session_.ReadNamed(acme_, Sym("president")).ValueOrDie(),
            Value::Ref(ayn_));
  EXPECT_EQ(session_.ReadNamed(ayn_, Sym("city")).ValueOrDie(),
            Value::String("Portland"));
  EXPECT_EQ(session_.ListNamed(employees_).ValueOrDie().size(), 1u);
  session_.ClearTimeDial();
  EXPECT_EQ(session_.ListNamed(employees_).ValueOrDie().size(), 0u);
}

TEST_F(Figure1SessionTest, MiltonCityHistory) {
  ASSERT_TRUE(session_.Begin().ok());
  auto history = session_.History(milton_, Sym("city")).ValueOrDie();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].value, Value::String("Seattle"));
  EXPECT_EQ(history[1].value, Value::String("Portland"));
  EXPECT_EQ(history[1].time, 8u);
}

TEST_F(Figure1SessionTest, SafeTimeReadOnlySessionNeverConflicts) {
  Session reader(&manager_, 2);
  ASSERT_TRUE(reader.Begin().ok());
  reader.SetTimeDialToSafeTime();

  // A concurrent writer changes the president while the reader works.
  Session writer(&manager_, 3);
  ASSERT_TRUE(writer.Begin().ok());
  ASSERT_TRUE(
      writer.WriteNamed(acme_, Sym("president"), Value::Ref(ayn_)).ok());

  Value seen_before = reader.ReadNamed(acme_, Sym("president")).ValueOrDie();
  ASSERT_TRUE(writer.Commit().ok());
  Value seen_after = reader.ReadNamed(acme_, Sym("president")).ValueOrDie();
  // Pinned at SafeTime, the reader's view is stable across the commit...
  EXPECT_EQ(seen_before, seen_after);
  EXPECT_EQ(seen_before, Value::Ref(milton_));
  // ...and its commit validates trivially.
  EXPECT_TRUE(reader.Commit().ok());
}

#ifdef GS_THREAD_SAFETY
using SessionOwnerDeathTest = SessionTest;

TEST_F(SessionOwnerDeathTest, CallFromNonOwnerThreadAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_TRUE(session_.Begin().ok());
  // Pin the session to this thread; a call from any other thread must
  // abort with the single-threaded-session diagnostic.
  session_.BindOwnerToCurrentThread();
  EXPECT_DEATH(
      {
        std::thread intruder([this] { (void)session_.Commit(); });
        intruder.join();
      },
      "single-threaded");
  session_.ReleaseOwner();
}

TEST_F(SessionOwnerDeathTest, OwnershipMigratesBetweenRequests) {
  // The gateway pattern: different workers serve successive requests, each
  // binding and releasing around its dispatch. Legal — never aborts.
  ASSERT_TRUE(session_.Begin().ok());
  std::thread worker_a([this] {
    session_.BindOwnerToCurrentThread();
    EXPECT_TRUE(
        session_.Create(memory_.kernel().object).ok());
    session_.ReleaseOwner();
  });
  worker_a.join();
  std::thread worker_b([this] {
    session_.BindOwnerToCurrentThread();
    EXPECT_TRUE(session_.Commit().ok());
    session_.ReleaseOwner();
  });
  worker_b.join();
}
#endif  // GS_THREAD_SAFETY

}  // namespace
}  // namespace gemstone::txn
