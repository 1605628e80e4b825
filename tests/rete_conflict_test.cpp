#include "src/rete/conflict.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

namespace mpps::rete {
namespace {

Instantiation inst(std::uint32_t pid, std::vector<std::uint64_t> tags) {
  Token t;
  for (auto tag : tags) t.wmes.push_back(WmeId{tag});
  return Instantiation{ProductionId{pid}, std::move(t)};
}

ConflictSet make_cs(std::size_t spec0 = 3, std::size_t spec1 = 5) {
  return ConflictSet([spec0, spec1](ProductionId p) {
    return p.value() == 0 ? spec0 : spec1;
  });
}

TEST(ConflictSet, EmptySelectsNothing) {
  ConflictSet cs = make_cs();
  EXPECT_FALSE(cs.select(Strategy::Lex).has_value());
}

TEST(ConflictSet, LexPrefersMostRecent) {
  ConflictSet cs = make_cs();
  cs.add(inst(0, {1, 2}));
  cs.add(inst(0, {1, 5}));
  const auto sel = cs.select(Strategy::Lex);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->token.wmes[1], WmeId{5});
}

TEST(ConflictSet, LexComparesSortedDescending) {
  ConflictSet cs = make_cs();
  // {9, 1} vs {8, 7}: sorted desc 9>8 → first wins despite smaller second.
  cs.add(inst(0, {9, 1}));
  cs.add(inst(0, {8, 7}));
  const auto sel = cs.select(Strategy::Lex);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->token.wmes[0], WmeId{9});
}

TEST(ConflictSet, LexLongerWinsOnPrefixTie) {
  ConflictSet cs = make_cs();
  cs.add(inst(0, {9, 5}));
  cs.add(inst(0, {9, 5, 2}));
  const auto sel = cs.select(Strategy::Lex);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->token.wmes.size(), 3u);
}

TEST(ConflictSet, SpecificityBreaksRecencyTies) {
  ConflictSet cs = make_cs(3, 5);
  cs.add(inst(0, {4}));
  cs.add(inst(1, {4}));
  const auto sel = cs.select(Strategy::Lex);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->production, ProductionId{1});  // higher specificity
}

TEST(ConflictSet, MeaPrefersFirstCeRecency) {
  ConflictSet cs = make_cs();
  // LEX would prefer {3, 9} (9 most recent); MEA looks at first-CE wme.
  cs.add(inst(0, {3, 9}));
  cs.add(inst(0, {5, 2}));
  const auto lex = cs.select(Strategy::Lex);
  ASSERT_TRUE(lex.has_value());
  EXPECT_EQ(lex->token.wmes[0], WmeId{3});
  const auto mea = cs.select(Strategy::Mea);
  ASSERT_TRUE(mea.has_value());
  EXPECT_EQ(mea->token.wmes[0], WmeId{5});
}

TEST(ConflictSet, MeaFallsBackToLex) {
  ConflictSet cs = make_cs();
  cs.add(inst(0, {5, 2}));
  cs.add(inst(0, {5, 7}));
  const auto mea = cs.select(Strategy::Mea);
  ASSERT_TRUE(mea.has_value());
  EXPECT_EQ(mea->token.wmes[1], WmeId{7});
}

TEST(ConflictSet, RefractionExcludesFired) {
  ConflictSet cs = make_cs();
  cs.add(inst(0, {9}));
  cs.add(inst(0, {4}));
  auto first = cs.select(Strategy::Lex);
  ASSERT_TRUE(first.has_value());
  cs.mark_fired(*first);
  auto second = cs.select(Strategy::Lex);
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(first->token.wmes[0], second->token.wmes[0]);
  cs.mark_fired(*second);
  EXPECT_FALSE(cs.select(Strategy::Lex).has_value());
  EXPECT_EQ(cs.size(), 2u);  // still present, just refracted
}

TEST(ConflictSet, RemoveForgetsRefraction) {
  ConflictSet cs = make_cs();
  const Instantiation i = inst(0, {9});
  cs.add(i);
  cs.mark_fired(i);
  EXPECT_TRUE(cs.remove(i));
  cs.add(i);  // re-derived: may fire again
  EXPECT_TRUE(cs.select(Strategy::Lex).has_value());
}

TEST(ConflictSet, RemoveAbsentReturnsFalse) {
  ConflictSet cs = make_cs();
  EXPECT_FALSE(cs.remove(inst(0, {1})));
}

TEST(ConflictSet, RemoveByProductionAndTokenFiresHookOnce) {
  ConflictSet cs = make_cs();
  std::vector<std::pair<Instantiation, bool>> deltas;
  cs.set_delta_hook([&](const Instantiation& i, bool added) {
    deltas.emplace_back(i, added);
  });
  const Instantiation kept = inst(1, {3, 4});
  const Instantiation gone = inst(0, {3, 4});
  cs.add(kept);
  cs.add(gone);
  // Same token, other production: only the (production, token) pair
  // identifies an entry.
  EXPECT_TRUE(cs.remove(gone.production, gone.token.wmes));
  EXPECT_FALSE(cs.remove(gone.production, gone.token.wmes));
  ASSERT_EQ(deltas.size(), 3u);
  EXPECT_EQ(deltas[2].first, gone);
  EXPECT_FALSE(deltas[2].second);
  ASSERT_EQ(cs.all().size(), 1u);
  EXPECT_EQ(cs.all()[0], kept);
}

TEST(ConflictSet, DeterministicFinalTiebreak) {
  ConflictSet cs = make_cs(4, 4);
  cs.add(inst(1, {4}));
  cs.add(inst(0, {4}));
  const auto sel = cs.select(Strategy::Lex);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->production, ProductionId{0});
}

TEST(ConflictSet, AllListsEverything) {
  ConflictSet cs = make_cs();
  cs.add(inst(0, {1}));
  cs.add(inst(1, {2}));
  EXPECT_EQ(cs.all().size(), 2u);
}

// Adding an instantiation twice keeps two copies; remove and mark_fired
// each take the earliest-added copy still present.
TEST(ConflictSet, DuplicateAddsAreSeparateCopies) {
  ConflictSet cs = make_cs();
  const Instantiation a = inst(0, {1, 2});
  cs.add(a);
  cs.add(a);
  EXPECT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs.all(), (std::vector<Instantiation>{a, a}));
  cs.mark_fired(a);
  cs.mark_fired(a);  // the same (first) copy again
  EXPECT_EQ(cs.select(Strategy::Lex), a);  // the second copy is unfired
  EXPECT_TRUE(cs.remove(a));               // removes the fired copy
  EXPECT_EQ(cs.select(Strategy::Lex), a);
  EXPECT_TRUE(cs.remove(a));
  EXPECT_FALSE(cs.remove(a));
  EXPECT_TRUE(cs.empty());

  // Fired first, then a second copy: remove still takes the fired one.
  cs.add(a);
  cs.mark_fired(a);
  cs.add(a);
  EXPECT_EQ(cs.select(Strategy::Lex), a);
  EXPECT_TRUE(cs.remove(a));
  EXPECT_EQ(cs.select(Strategy::Lex), a);
  cs.mark_fired(a);
  EXPECT_FALSE(cs.select(Strategy::Lex).has_value());

  // The same after a removal moves the second copy below the first and
  // more adds rebuild the index, which reorders its chains.
  ConflictSet big = make_cs();
  const Instantiation b = inst(0, {100, 101});
  big.add(inst(1, {1}));
  big.add(b);
  big.mark_fired(b);
  big.add(b);
  EXPECT_TRUE(big.remove(inst(1, {1})));  // the second copy fills the hole
  for (std::uint64_t i = 2; i < 40; ++i) big.add(inst(1, {i}));
  EXPECT_TRUE(big.remove(b));  // the fired first copy
  EXPECT_EQ(big.select(Strategy::Lex), b);
}

// Removing from the middle moves the last entry into the hole; every
// survivor must still be found, and the order of all() does not matter.
TEST(ConflictSet, RemoveInAnyOrderFindsEverySurvivor) {
  ConflictSet cs = make_cs();
  std::vector<Instantiation> live;
  for (std::uint64_t i = 0; i < 100; ++i) {
    live.push_back(inst(static_cast<std::uint32_t>(i % 2), {i, i + 1}));
    cs.add(live.back());
  }
  const auto sorted = [](std::vector<Instantiation> v) {
    std::sort(v.begin(), v.end(), [](const auto& x, const auto& y) {
      return std::tie(x.production, x.token.wmes) <
             std::tie(y.production, y.token.wmes);
    });
    return v;
  };
  for (std::size_t step = 0; !live.empty(); ++step) {
    const std::size_t pick = (step * 37) % live.size();
    ASSERT_TRUE(cs.remove(live[pick]));
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    ASSERT_EQ(sorted(cs.all()), sorted(live));
  }
  EXPECT_TRUE(cs.empty());
}

}  // namespace
}  // namespace mpps::rete
