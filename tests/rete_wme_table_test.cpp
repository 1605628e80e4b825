#include "src/rete/wme_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"

namespace mpps::rete {
namespace {

using ops5::Value;
using ops5::Wme;

const Symbol kX = Symbol::intern("x");
const Symbol kY = Symbol::intern("y");

/// A `(t ^x <n> ^y <id>)` wme with id `id`; `^y` is left off when
/// `with_y` is false.
Wme make(std::uint64_t id, long n, bool with_y = true) {
  std::vector<std::pair<Symbol, Value>> attrs{{kX, Value(n)}};
  if (with_y) attrs.emplace_back(kY, Value(static_cast<long>(id)));
  Wme w(Symbol::intern("t"), std::move(attrs));
  w.rebind_id(WmeId{id});
  return w;
}

/// Every id in `live` is found, with its own values at both slots.
void expect_all_found(const WmeTable& table,
                      const std::vector<std::uint64_t>& live) {
  EXPECT_EQ(table.size(), live.size());
  for (std::uint64_t id : live) {
    const std::uint32_t row = table.find(WmeId{id});
    ASSERT_NE(row, WmeTable::kNoRow) << "id " << id;
    EXPECT_EQ(table.at(WmeId{id}).id(), WmeId{id});
    EXPECT_EQ(table.value(row, 1).as_int(), static_cast<long>(id));
  }
}

/// The index's home entry at its first size (16 entries), as the table
/// hashes: the top four bits of the Fibonacci hash.
std::uint64_t home16(std::uint64_t id) {
  return (id * 0x9E3779B97F4A7C15ull) >> 60;
}

TEST(WmeTable, SequentialIdsGrowThroughSeveralDoublings) {
  WmeTable table({kX, kY});
  std::vector<std::uint64_t> ids;
  for (std::uint64_t id = 1; id <= 5000; ++id) {
    table.insert(make(id, 7));
    ids.push_back(id);
  }
  expect_all_found(table, ids);
  EXPECT_EQ(table.find(WmeId{5001}), WmeTable::kNoRow);
  EXPECT_EQ(table.find(WmeId{0}), WmeTable::kNoRow);
}

TEST(WmeTable, ServeStyleIdsDifferingInHighBitsAreAllFound) {
  WmeTable table({kX, kY});
  std::vector<std::uint64_t> ids;
  for (std::uint64_t ordinal = 1; ordinal <= 32; ++ordinal) {
    for (std::uint64_t local = 1; local <= 64; ++local) {
      ids.push_back(ordinal << 40 | local);
      table.insert(make(ids.back(), 1));
    }
  }
  expect_all_found(table, ids);
  // Half of each session's wmes leave; the rest stay findable.
  std::vector<std::uint64_t> kept;
  for (std::uint64_t id : ids) {
    if (id % 2 == 0) {
      EXPECT_TRUE(table.erase(WmeId{id}));
    } else {
      kept.push_back(id);
    }
  }
  expect_all_found(table, kept);
  EXPECT_EQ(table.find(WmeId{std::uint64_t{1} << 40 | 2}), WmeTable::kNoRow);
}

TEST(WmeTable, ErasingFromTheMiddleOfACollisionRunKeepsTheRestFindable) {
  // Three ids with one home form a run of three entries in the 16-entry
  // index; erasing the middle one must not cut the third off.
  std::vector<std::uint64_t> run;
  for (std::uint64_t id = 1; run.size() < 3; ++id) {
    if (home16(id) == home16(1)) run.push_back(id);
  }
  for (std::size_t erased = 0; erased < run.size(); ++erased) {
    WmeTable table({kX, kY});
    for (std::uint64_t id : run) table.insert(make(id, 0));
    EXPECT_TRUE(table.erase(WmeId{run[erased]}));
    EXPECT_FALSE(table.erase(WmeId{run[erased]}));
    std::vector<std::uint64_t> rest;
    for (std::uint64_t id : run) {
      if (id != run[erased]) rest.push_back(id);
    }
    expect_all_found(table, rest);
    EXPECT_FALSE(table.contains(WmeId{run[erased]}));
  }
}

TEST(WmeTable, IdsWhoseHashesShareTheirHighHalfAreToldApart) {
  // The index keeps the high half of an id's Fibonacci hash; adding the
  // multiplier's inverse to an id adds one to its hash, which leaves that
  // half alone, so only the rows' ids can tell the two apart.
  constexpr std::uint64_t kMultiplier = 0x9E3779B97F4A7C15ull;
  std::uint64_t inverse = kMultiplier;
  for (int i = 0; i < 5; ++i) inverse *= 2 - kMultiplier * inverse;
  ASSERT_EQ(kMultiplier * inverse, 1u);
  const std::uint64_t a = 1000;
  const std::uint64_t b = a + inverse;
  ASSERT_EQ((a * kMultiplier) >> 32, (b * kMultiplier) >> 32);
  WmeTable table({kX, kY});
  table.insert(make(a, 1));
  EXPECT_FALSE(table.contains(WmeId{b}));
  table.insert(make(b, 2));
  expect_all_found(table, {a, b});
  EXPECT_TRUE(table.erase(WmeId{a}));
  expect_all_found(table, {b});
  EXPECT_FALSE(table.contains(WmeId{a}));
}

TEST(WmeTable, RandomInsertsAndErasesAgreeWithAMap) {
  WmeTable table({kX, kY});
  std::unordered_map<std::uint64_t, std::uint32_t> rows;  // the reference
  Rng rng(7);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t id = 1 + rng.below(600);
    if (const auto it = rows.find(id); it != rows.end()) {
      EXPECT_TRUE(table.erase(WmeId{id}));
      rows.erase(it);
    } else {
      rows.emplace(id, table.insert(make(id, step)));
    }
    if (step % 997 == 0) {
      for (const auto& [live, row] : rows) {
        ASSERT_EQ(table.find(WmeId{live}), row) << "id " << live;
      }
    }
  }
  EXPECT_EQ(table.size(), rows.size());
}

TEST(WmeTable, ErasedRowsAreReusedWithFreshValues) {
  WmeTable table({kX, kY});
  const std::uint32_t a = table.insert(make(1, 10));
  table.insert(make(2, 20));
  EXPECT_TRUE(table.erase(WmeId{1}));
  const std::uint32_t b = table.insert(make(3, 30, /*with_y=*/false));
  EXPECT_EQ(b, a);
  EXPECT_EQ(table.value(b, 0).as_int(), 30);
  // The new wme has no ^y: the slot reads absent, not the old row's 1.
  EXPECT_TRUE(table.value(b, 1).absent());
  EXPECT_EQ(table.at(WmeId{3}).get(kX).as_int(), 30);
  EXPECT_EQ(table.size(), 2u);
}

TEST(WmeTable, AnAttributeTheWmeLacksReadsAsAbsent) {
  const Symbol z = Symbol::intern("z");
  WmeTable table({kX, z, kY});
  const std::uint32_t row = table.insert(make(5, 3));
  EXPECT_EQ(table.value(row, 0).as_int(), 3);
  EXPECT_TRUE(table.value(row, 1).absent());
  EXPECT_EQ(table.value(row, 2).as_int(), 5);
}

TEST(WmeTable, CheckNamesTheIdOfABadChange) {
  WmeTable table({kX});
  table.insert(make(41, 0));
  const auto message = [&](ops5::WmeChange::Kind kind, std::uint64_t id) {
    try {
      table.check(ops5::WmeChange{kind, make(id, 0)});
    } catch (const RuntimeError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  using Kind = ops5::WmeChange::Kind;
  EXPECT_NE(message(Kind::Add, 41).find("wme id 41"), std::string::npos);
  EXPECT_NE(message(Kind::Delete, 42).find("wme id 42"), std::string::npos);
  EXPECT_EQ(message(Kind::Add, 42), "");
  EXPECT_EQ(message(Kind::Delete, 41), "");
  EXPECT_THROW((void)table.at(WmeId{42}), RuntimeError);
  EXPECT_THROW((void)table.row(WmeId{42}), RuntimeError);
}

}  // namespace
}  // namespace mpps::rete
