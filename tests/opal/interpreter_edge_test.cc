// Interpreter edge cases: recursion, closures escaping their home
// activation, deep control-flow nesting, error propagation through
// blocks, and scale (no arbitrary limits — §2B).

#include <gtest/gtest.h>

#include "executor/executor.h"

namespace gemstone::opal {
namespace {

class OpalEdgeTest : public ::testing::Test {
 protected:
  OpalEdgeTest() { session_ = executor_.Login().ValueOrDie(); }

  Value Eval(std::string_view src) {
    auto result = executor_.Execute(session_, src);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n  in: "
                             << src;
    return result.ok() ? std::move(result).value() : Value::Nil();
  }

  executor::Executor executor_;
  SessionId session_ = 0;
};

TEST_F(OpalEdgeTest, RecursiveMethods) {
  Eval("Object subclass: 'Math' instVarNames: #()");
  Eval("Math compileMethod: 'factorial: n "
       "n <= 1 ifTrue: [^1]. ^n * (self factorial: n - 1)'");
  EXPECT_EQ(Eval("Math new factorial: 10"), Value::Integer(3628800));

  Eval("Math compileMethod: 'fib: n "
       "n < 2 ifTrue: [^n]. ^(self fib: n - 1) + (self fib: n - 2)'");
  EXPECT_EQ(Eval("Math new fib: 15"), Value::Integer(610));
}

TEST_F(OpalEdgeTest, RunawayRecursionIsAnErrorNotACrash) {
  Eval("Object subclass: 'Loop' instVarNames: #()");
  Eval("Loop compileMethod: 'spin ^self spin'");
  auto result = executor_.Execute(session_, "Loop new spin");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kRuntimeError);
  EXPECT_NE(result.status().message().find("stack overflow"),
            std::string::npos);
  // The session survives and keeps working.
  EXPECT_EQ(Eval("1 + 1"), Value::Integer(2));
}

TEST_F(OpalEdgeTest, EscapedBlockNonLocalReturnIsAnError) {
  Eval("Object subclass: 'Maker' instVarNames: #()");
  Eval("Maker compileMethod: 'escape ^[^42]'");
  // The home method has already returned when the block runs.
  auto result = executor_.Execute(session_, "Maker new escape value");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kRuntimeError);
}

TEST_F(OpalEdgeTest, NestedClosuresShareOuterTemps) {
  EXPECT_EQ(Eval("| make counter | "
                 "make := [:start | | n | n := start. [:d | n := n + d. n]]. "
                 "counter := make value: 100. "
                 "counter value: 1. counter value: 2. counter value: 3"),
            Value::Integer(106));
  // Two closures from the same maker have independent state.
  EXPECT_EQ(Eval("| make a b | "
                 "make := [:start | | n | n := start. [:d | n := n + d. n]]. "
                 "a := make value: 0. b := make value: 100. "
                 "a value: 1. b value: 1. a value: 1"),
            Value::Integer(2));
}

// A block stored into a temp of the environment it captured is a
// reference cycle, which the interpreter frees when its Run ends unless
// something outside still reaches it: here globals do, across Runs, and
// the cycle is freed once they let go (the sanitizer build's leak check
// sees the difference).
TEST_F(OpalEdgeTest, EscapedClosureCyclesKeepTheirTemps) {
  Eval("| n bump | n := 0. bump := [:d | n := n + d. bump]. "
       "Bump := bump. Peek := [n]");
  EXPECT_EQ(Eval("(Bump value: 5) value: 2. Peek value"), Value::Integer(7));
  EXPECT_EQ(Eval("Bump value: 1. Peek value"), Value::Integer(8));
  Eval("Bump := nil. Peek := nil");
  EXPECT_EQ(Eval("| n bump | n := 1. bump := [n := n * 2. bump]. "
                 "bump value value. n"),
            Value::Integer(4));
}

TEST_F(OpalEdgeTest, NonLocalReturnThroughNestedBlocks) {
  Eval("Object subclass: 'Search' instVarNames: #()");
  Eval("Search compileMethod: 'findPairIn: coll "
       "coll do: [:a | coll do: [:b | "
       "(a + b = 10) ifTrue: [^{a. b}]]]. ^nil'");
  Value pair = Eval("Search new findPairIn: {3. 4. 7. 9}");
  ASSERT_TRUE(pair.IsRef());
  EXPECT_EQ(Eval("(Search new findPairIn: {3. 4. 7. 9}) first"),
            Value::Integer(3));
  EXPECT_EQ(Eval("Search new findPairIn: {1. 2}"), Value::Nil());
}

TEST_F(OpalEdgeTest, ErrorsInsideBlocksPropagate) {
  auto result =
      executor_.Execute(session_, "{1. 2. 3} do: [:x | x / 0]");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kRuntimeError);
}

// §2B: "avoid arbitrary limits on the sizes of schemes and data items" —
// well beyond ST80's 32K-object / 64KB ceilings.
TEST_F(OpalEdgeTest, NoArbitrarySizeLimits) {
  EXPECT_EQ(Eval("| o | o := OrderedCollection new. "
                 "1 to: 5000 do: [:i | o add: i]. o size"),
            Value::Integer(5000));
  EXPECT_EQ(Eval("| s | s := ''. "
                 "1 to: 200 do: [:i | s := s , 'xxxxxxxxxx']. s size"),
            Value::Integer(2000));
}

TEST_F(OpalEdgeTest, DeeplyNestedControlFlow) {
  EXPECT_EQ(Eval("| n | n := 0. "
                 "1 to: 10 do: [:i | 1 to: 10 do: [:j | "
                 "(i + j) \\\\ 2 = 0 ifTrue: [n := n + 1] "
                 "ifFalse: [n := n - 1]]]. n"),
            Value::Integer(0));
}

TEST_F(OpalEdgeTest, CascadesOnExpressionsReceivers) {
  EXPECT_EQ(Eval("| s | s := Set new. (s add: 1; yourself) size"),
            Value::Integer(1));
}

TEST_F(OpalEdgeTest, SymbolsAndSelectorsInterned) {
  EXPECT_EQ(Eval("#foo == #foo"), Value::Boolean(true));
  EXPECT_EQ(Eval("'foo' asSymbol == #foo"), Value::Boolean(true));
  EXPECT_EQ(Eval("42 respondsTo: #factorial:"), Value::Boolean(false));
  Eval("Object subclass: 'Math2' instVarNames: #()");
  Eval("Math2 compileMethod: 'double: n ^n * 2'");
  EXPECT_EQ(Eval("Math2 new respondsTo: #double:"), Value::Boolean(true));
}

TEST_F(OpalEdgeTest, PathsThroughWorkspaceObjects) {
  // Uncommitted objects navigate identically to committed ones.
  EXPECT_EQ(Eval("| a b | a := Object new. b := Object new. "
                 "a instVarNamed: 'next' put: b. "
                 "b instVarNamed: 'tag' put: 'leaf'. "
                 "a!next!tag"),
            Value::String("leaf"));
}

}  // namespace
}  // namespace gemstone::opal
