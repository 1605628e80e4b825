#include "src/rete/conflict.hpp"

#include <gtest/gtest.h>

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
  EXPECT_TRUE(cs.remove(gone.production, gone.token));
  EXPECT_FALSE(cs.remove(gone.production, gone.token));
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

}  // namespace
}  // namespace mpps::rete
