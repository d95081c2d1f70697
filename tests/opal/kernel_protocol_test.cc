// Extended kernel protocol: set algebra, nil handling, collection
// queries, string utilities — and the §5.4 views claim ("Support for
// views drops out almost for free").

#include <gtest/gtest.h>

#include "executor/executor.h"

namespace gemstone::opal {
namespace {

class KernelProtocolTest : public ::testing::Test {
 protected:
  KernelProtocolTest() { session_ = executor_.Login().ValueOrDie(); }

  Value Eval(std::string_view src) {
    auto result = executor_.Execute(session_, src);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n  in: "
                             << src;
    return result.ok() ? std::move(result).value() : Value::Nil();
  }

  executor::Executor executor_;
  SessionId session_ = 0;
};

TEST_F(KernelProtocolTest, NilHandling) {
  EXPECT_EQ(Eval("nil ifNil: [42]"), Value::Integer(42));
  EXPECT_EQ(Eval("7 ifNil: [42]"), Value::Integer(7));
  EXPECT_EQ(Eval("7 ifNotNil: [:x | x * 2]"), Value::Integer(14));
  EXPECT_EQ(Eval("nil ifNotNil: [:x | x * 2]"), Value::Nil());
  EXPECT_EQ(Eval("nil ifNil: ['empty'] ifNotNil: [:x | x]"),
            Value::String("empty"));
}

TEST_F(KernelProtocolTest, SetAlgebra) {
  Eval("A := Set new. A add: 1; add: 2; add: 3");
  Eval("B := Set new. B add: 2; add: 3; add: 4");
  EXPECT_EQ(Eval("(A union: B) size"), Value::Integer(4));
  EXPECT_EQ(Eval("(A intersection: B) size"), Value::Integer(2));
  EXPECT_EQ(Eval("(A difference: B) size"), Value::Integer(1));
  EXPECT_EQ(Eval("(A difference: B) includes: 1"), Value::Boolean(true));
  EXPECT_EQ(Eval("(A intersection: B) isSubsetOf: A"),
            Value::Boolean(true));
  EXPECT_EQ(Eval("A isSubsetOf: (A intersection: B)"),
            Value::Boolean(false));
}

TEST_F(KernelProtocolTest, CollectionQueries) {
  EXPECT_EQ(Eval("{1. 2. 3. 4} anySatisfy: [:x | x > 3]"),
            Value::Boolean(true));
  EXPECT_EQ(Eval("{1. 2. 3. 4} allSatisfy: [:x | x > 0]"),
            Value::Boolean(true));
  EXPECT_EQ(Eval("{1. 2. 3. 4} allSatisfy: [:x | x > 1]"),
            Value::Boolean(false));
  EXPECT_EQ(Eval("{1. 2. 3. 4} count: [:x | x \\\\ 2 = 0]"),
            Value::Integer(2));
}

TEST_F(KernelProtocolTest, CollectionPrintString) {
  EXPECT_EQ(Eval("{1. 2. 3} printString"),
            Value::String("an Array(1 2 3)"));
  EXPECT_EQ(Eval("Set new printString"), Value::String("a Set()"));
}

TEST_F(KernelProtocolTest, StringUtilities) {
  EXPECT_EQ(Eval("'Acme Corp' asUppercase"), Value::String("ACME CORP"));
  EXPECT_EQ(Eval("'Acme' asLowercase"), Value::String("acme"));
  EXPECT_EQ(Eval("'GemStone' includesSubstring: 'Stone'"),
            Value::Boolean(true));
  EXPECT_EQ(Eval("'GemStone' includesSubstring: 'Opal'"),
            Value::Boolean(false));
  EXPECT_EQ(Eval("'hello' indexOf: 'l'"), Value::Integer(3));
  EXPECT_EQ(Eval("'hello' indexOf: 'z'"), Value::Integer(0));
  EXPECT_EQ(Eval("'stressed' reversed"), Value::String("desserts"));
}

TEST_F(KernelProtocolTest, DictionaryValues) {
  EXPECT_EQ(Eval("| d | d := Dictionary new. d at: 'a' put: 1; "
                 "at: 'b' put: 2. (d values inject: 0 "
                 "into: [:acc :v | acc + v])"),
            Value::Integer(3));
}

// §5.4: "We can construct an object that provides a view, and that object
// can employ other objects, procedural statements and calculus
// expressions to define the extension of the view. Furthermore, since the
// view object can retain connections to the objects that contributed to
// the view ... view updates are more manageable."
TEST_F(KernelProtocolTest, AbortTransactionAnswersTrue) {
  Eval("Tally := Object new. System commitTransaction");
  Eval("Tally instVarNamed: 'n' put: 1");
  EXPECT_EQ(Eval("System abortTransaction"), Value::Boolean(true));
  // The abort discarded the write, and a fresh transaction is open.
  EXPECT_EQ(Eval("Tally instVarNamed: 'n'"), Value::Nil());
  EXPECT_EQ(Eval("System commitTransaction"), Value::Boolean(true));
}

TEST_F(KernelProtocolTest, ViewsDropOutForFree) {
  Eval("Object subclass: 'Emp' instVarNames: #('name' 'salary')");
  Eval("Emps := Set new");
  Eval("1 to: 10 do: [:i | | e | e := Emp new. "
       "e instVarNamed: 'name' put: 'e' , i printString. "
       "e instVarNamed: 'salary' put: i * 1000. Emps add: e]");

  // The view: an object whose extension is a declarative query over its
  // base collection, and which can update through to the base objects.
  Eval("Object subclass: 'HighEarners' instVarNames: #('base' 'floor')");
  Eval("HighEarners compileMethod: 'on: aSet floor: n "
       "base := aSet. floor := n'");
  Eval("HighEarners compileMethod: 'extension "
       "^base select: [:e | (e instVarNamed: ''salary'') > floor]'");
  Eval("HighEarners compileMethod: 'giveRaise: amount "
       "self extension do: [:e | e instVarNamed: ''salary'' "
       "put: (e instVarNamed: ''salary'') + amount]'");

  Eval("V := HighEarners new. V on: Emps floor: 7000");
  EXPECT_EQ(Eval("V extension size"), Value::Integer(3));  // 8k, 9k, 10k

  // A view update writes through to the base objects (retained
  // connections, not copies).
  Eval("V giveRaise: 100");
  EXPECT_EQ(Eval("(Emps detect: [:e | (e instVarNamed: 'name') = 'e10']) "
                 "instVarNamed: 'salary'"),
            Value::Integer(10100));
  // The extension is computed, so base updates are visible immediately.
  Eval("(Emps detect: [:e | (e instVarNamed: 'name') = 'e7']) "
       "instVarNamed: 'salary' put: 7500");
  EXPECT_EQ(Eval("V extension size"), Value::Integer(4));
}

TEST_F(KernelProtocolTest, ViewExtensionCanBeDeclarative) {
  Eval("Object subclass: 'Part' instVarNames: #('kind' 'qty')");
  Eval("Parts := Set new");
  Eval("1 to: 6 do: [:i | | p | p := Part new. "
       "p instVarNamed: 'kind' put: (i \\\\ 2 = 0 "
       "ifTrue: ['bolt'] ifFalse: ['nut']). "
       "p instVarNamed: 'qty' put: i. Parts add: p]");
  // The declarative subset runs through the query machinery, not
  // per-element dispatch.
  EXPECT_EQ(Eval("(Parts selectWhere: [:p | (p!kind = 'bolt') & "
                 "(p!qty > 2)]) size"),
            Value::Integer(2));
}

}  // namespace
}  // namespace gemstone::opal
