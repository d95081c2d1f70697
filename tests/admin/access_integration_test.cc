// Authorization enforced on the transaction data path: segments and ACLs
// (gs_admin) consulted by the TransactionManager on every access.

#include <gtest/gtest.h>

#include "admin/authorization.h"
#include "executor/executor.h"
#include "txn/session.h"
#include "txn/transaction_manager.h"

namespace gemstone {
namespace {

class AccessIntegrationTest : public ::testing::Test {
 protected:
  static constexpr UserId kAlice = 1, kBob = 2;

  AccessIntegrationTest() : manager_(&memory_) {
    manager_.set_access_controller(&auth_);
    value_sym_ = memory_.symbols().Intern("v");

    // Alice creates a payroll object in her private segment.
    txn::Session alice(&manager_, 1, kAlice);
    EXPECT_TRUE(alice.Begin().ok());
    payroll_ = alice.Create(memory_.kernel().object).ValueOrDie();
    EXPECT_TRUE(
        alice.WriteNamed(payroll_, value_sym_, Value::Integer(24650)).ok());
    EXPECT_TRUE(alice.Commit().ok());
    segment_ = auth_.CreateSegment(kAlice, "payroll");
    EXPECT_TRUE(auth_.AssignObject(kAlice, payroll_, segment_).ok());
  }

  ObjectMemory memory_;
  admin::AuthorizationManager auth_;
  txn::TransactionManager manager_;
  SymbolId value_sym_;
  Oid payroll_;
  admin::SegmentId segment_;
};

TEST_F(AccessIntegrationTest, OwnerReadsAndWrites) {
  txn::Session alice(&manager_, 1, kAlice);
  ASSERT_TRUE(alice.Begin().ok());
  EXPECT_TRUE(alice.ReadNamed(payroll_, value_sym_).ok());
  EXPECT_TRUE(
      alice.WriteNamed(payroll_, value_sym_, Value::Integer(30000)).ok());
  EXPECT_TRUE(alice.Commit().ok());
}

TEST_F(AccessIntegrationTest, StrangerDeniedOnDataPath) {
  txn::Session bob(&manager_, 2, kBob);
  ASSERT_TRUE(bob.Begin().ok());
  EXPECT_EQ(bob.ReadNamed(payroll_, value_sym_).status().code(),
            StatusCode::kAuthorizationDenied);
  EXPECT_EQ(bob.WriteNamed(payroll_, value_sym_, Value::Integer(0)).code(),
            StatusCode::kAuthorizationDenied);
  EXPECT_EQ(bob.ListNamed(payroll_).status().code(),
            StatusCode::kAuthorizationDenied);
}

TEST_F(AccessIntegrationTest, StructuralEqualityChecksReadAccess) {
  txn::Session bob(&manager_, 2, kBob);
  ASSERT_TRUE(bob.Begin().ok());
  Oid mine = bob.Create(memory_.kernel().object).ValueOrDie();
  ASSERT_TRUE(bob.WriteNamed(mine, value_sym_, Value::Integer(24650)).ok());
  // Comparing against payroll reads its contents: the answer is the
  // access error, not a boolean that leaks whether the values match.
  EXPECT_EQ(bob.DeepEquals(Value::Ref(mine), Value::Ref(payroll_))
                .status()
                .code(),
            StatusCode::kAuthorizationDenied);
  EXPECT_EQ(bob.DeepEquals(Value::Ref(payroll_), Value::Ref(mine))
                .status()
                .code(),
            StatusCode::kAuthorizationDenied);
}

TEST_F(AccessIntegrationTest, GrantOpensReadButNotWrite) {
  ASSERT_TRUE(
      auth_.Grant(kAlice, segment_, kBob, admin::AccessRight::kRead).ok());
  txn::Session bob(&manager_, 2, kBob);
  ASSERT_TRUE(bob.Begin().ok());
  EXPECT_TRUE(bob.ReadNamed(payroll_, value_sym_).ok());
  EXPECT_EQ(bob.WriteNamed(payroll_, value_sym_, Value::Integer(0)).code(),
            StatusCode::kAuthorizationDenied);
}

TEST_F(AccessIntegrationTest, OwnObjectsAlwaysAccessible) {
  // Bob can create and use his own objects even in a locked-down world.
  auth_.SetDefaultSegmentWorldAccess(admin::AccessRight::kNone);
  txn::Session bob(&manager_, 2, kBob);
  ASSERT_TRUE(bob.Begin().ok());
  Oid mine = bob.Create(memory_.kernel().object).ValueOrDie();
  EXPECT_TRUE(bob.WriteNamed(mine, value_sym_, Value::Integer(1)).ok());
  EXPECT_TRUE(bob.ReadNamed(mine, value_sym_).ok());
  EXPECT_TRUE(bob.Commit().ok());
}

TEST_F(AccessIntegrationTest, OpalSessionsCarryUsers) {
  executor::Executor server;
  server.transactions().set_access_controller(&auth_);
  SessionId alice = server.Login(kAlice).ValueOrDie();
  SessionId bob = server.Login(kBob).ValueOrDie();

  ASSERT_TRUE(server
                  .Execute(alice,
                           "Payroll := Object new. "
                           "Payroll instVarNamed: 'total' put: 100. "
                           "System commitTransaction")
                  .ok());
  Oid payroll =
      server.Execute(alice, "Payroll").ValueOrDie().ref();
  admin::SegmentId segment = auth_.CreateSegment(kAlice, "opal-payroll");
  ASSERT_TRUE(auth_.AssignObject(kAlice, payroll, segment).ok());

  // Bob's OPAL code is stopped by the Object Manager, not by convention.
  auto denied = server.Execute(bob, "Payroll instVarNamed: 'total'");
  EXPECT_EQ(denied.status().code(), StatusCode::kAuthorizationDenied);
  // Alice continues undisturbed.
  EXPECT_EQ(server.Execute(alice, "Payroll instVarNamed: 'total'")
                .ValueOrDie(),
            Value::Integer(100));
}

}  // namespace
}  // namespace gemstone
