#include "src/ops5/value.hpp"

#include <gtest/gtest.h>

namespace mpps::ops5 {
namespace {

TEST(Value, SymbolEquality) {
  EXPECT_TRUE(Value::sym("blue").equals(Value::sym("blue")));
  EXPECT_FALSE(Value::sym("blue").equals(Value::sym("red")));
}

TEST(Value, NumericCrossTypeEquality) {
  EXPECT_TRUE(Value(2L).equals(Value(2.0)));
  EXPECT_TRUE(Value(2.0).equals(Value(2L)));
  EXPECT_FALSE(Value(2L).equals(Value(2.5)));
}

TEST(Value, SymbolNeverEqualsNumber) {
  EXPECT_FALSE(Value::sym("2").equals(Value(2L)));
}

TEST(Value, AbsentEqualsNothing) {
  Value absent;
  EXPECT_FALSE(absent.equals(absent));
  EXPECT_FALSE(absent.equals(Value(1L)));
  EXPECT_FALSE(Value(1L).equals(absent));
}

TEST(Value, OrderingPredicatesOnInts) {
  EXPECT_TRUE(Value(1L).test(Predicate::Lt, Value(2L)));
  EXPECT_TRUE(Value(2L).test(Predicate::Le, Value(2L)));
  EXPECT_TRUE(Value(3L).test(Predicate::Gt, Value(2L)));
  EXPECT_TRUE(Value(2L).test(Predicate::Ge, Value(2L)));
  EXPECT_FALSE(Value(2L).test(Predicate::Lt, Value(2L)));
}

TEST(Value, OrderingPredicatesMixedIntFloat) {
  EXPECT_TRUE(Value(1L).test(Predicate::Lt, Value(1.5)));
  EXPECT_TRUE(Value(1.5).test(Predicate::Gt, Value(1L)));
}

TEST(Value, OrderingOnSymbolsFails) {
  EXPECT_FALSE(Value::sym("a").test(Predicate::Lt, Value::sym("b")));
  EXPECT_FALSE(Value::sym("a").test(Predicate::Gt, Value(1L)));
}

TEST(Value, NotEqualRequiresBothPresent) {
  EXPECT_TRUE(Value(1L).test(Predicate::Ne, Value(2L)));
  EXPECT_TRUE(Value::sym("a").test(Predicate::Ne, Value(1L)));
  EXPECT_FALSE(Value(1L).test(Predicate::Ne, Value(1L)));
  EXPECT_FALSE(Value().test(Predicate::Ne, Value(1L)));
  EXPECT_FALSE(Value(1L).test(Predicate::Ne, Value()));
}

// Int and float share storage; the symbol keeps its own.
static_assert(sizeof(Value) == 16);

TEST(Value, AccessorsReturnZeroForAKindTheValueDoesNotHold) {
  const Value absent;
  const Value sym = Value::sym("blue");
  const Value integer(-7L);
  const Value real(2.5);
  EXPECT_EQ(absent.as_int(), 0);
  EXPECT_EQ(absent.as_double(), 0.0);
  EXPECT_TRUE(absent.as_symbol().empty());
  EXPECT_EQ(sym.as_int(), 0);
  EXPECT_EQ(sym.as_double(), 0.0);
  EXPECT_EQ(sym.as_symbol(), Symbol::intern("blue"));
  EXPECT_EQ(integer.as_int(), -7);
  EXPECT_EQ(integer.as_double(), -7.0);
  EXPECT_TRUE(integer.as_symbol().empty());
  EXPECT_EQ(real.as_int(), 0);
  EXPECT_EQ(real.as_double(), 2.5);
  EXPECT_TRUE(real.as_symbol().empty());
}

TEST(Value, HashConsistentWithEquality) {
  EXPECT_EQ(Value(2L).hash(), Value(2.0).hash());
  EXPECT_EQ(Value::sym("x").hash(), Value::sym("x").hash());
}

TEST(Value, ToStringRoundTrip) {
  EXPECT_EQ(Value::sym("blue").to_string(), "blue");
  EXPECT_EQ(Value(42L).to_string(), "42");
  EXPECT_EQ(Value(2.5).to_string(), "2.5");
}

TEST(Value, PredicateNames) {
  EXPECT_EQ(to_string(Predicate::Eq), "=");
  EXPECT_EQ(to_string(Predicate::Ne), "<>");
  EXPECT_EQ(to_string(Predicate::Le), "<=");
}

}  // namespace
}  // namespace mpps::ops5
