#include "src/rete/conflict.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"

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
  EXPECT_EQ(sel->token[1], WmeId{5});
}

TEST(ConflictSet, LexComparesSortedDescending) {
  ConflictSet cs = make_cs();
  // {9, 1} vs {8, 7}: sorted desc 9>8 → first wins despite smaller second.
  cs.add(inst(0, {9, 1}));
  cs.add(inst(0, {8, 7}));
  const auto sel = cs.select(Strategy::Lex);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->token[0], WmeId{9});
}

TEST(ConflictSet, LexLongerWinsOnPrefixTie) {
  ConflictSet cs = make_cs();
  cs.add(inst(0, {9, 5}));
  cs.add(inst(0, {9, 5, 2}));
  const auto sel = cs.select(Strategy::Lex);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->token.size(), 3u);
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
  EXPECT_EQ(lex->token[0], WmeId{3});
  const auto mea = cs.select(Strategy::Mea);
  ASSERT_TRUE(mea.has_value());
  EXPECT_EQ(mea->token[0], WmeId{5});
}

TEST(ConflictSet, MeaFallsBackToLex) {
  ConflictSet cs = make_cs();
  cs.add(inst(0, {5, 2}));
  cs.add(inst(0, {5, 7}));
  const auto mea = cs.select(Strategy::Mea);
  ASSERT_TRUE(mea.has_value());
  EXPECT_EQ(mea->token[1], WmeId{7});
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
  EXPECT_NE(first->token[0], second->token[0]);
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

// An empty token takes no row; it still ranks, fires and leaves.
TEST(ConflictSet, EmptyTokensTakeNoRow) {
  ConflictSet cs = make_cs(3, 5);
  cs.add(inst(0, {}));
  cs.add(inst(1, {}));
  cs.add(inst(0, {2}));
  const auto mea = cs.select(Strategy::Mea);
  ASSERT_TRUE(mea.has_value());
  EXPECT_EQ(*mea, inst(0, {2}));
  cs.mark_fired(*mea);
  const auto lex = cs.select(Strategy::Lex);
  ASSERT_TRUE(lex.has_value());
  EXPECT_EQ(*lex, inst(1, {}));  // higher specificity
  EXPECT_TRUE(cs.remove(inst(1, {})));
  EXPECT_FALSE(cs.remove(inst(1, {})));
  EXPECT_EQ(cs.select(Strategy::Lex), inst(0, {}));
  EXPECT_EQ(cs.size(), 2u);
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


// ---------------------------------------------------------------------
// Differential test: the set against a plain reference written from the
// documented semantics.  The reference keeps its instantiations in a
// vector in add order, so the first match is the earliest-added copy;
// selection ranks every unfired one by an explicit key.

/// The reference conflict set.
class ReferenceSet {
 public:
  explicit ReferenceSet(std::vector<std::size_t> specificity)
      : specificity_(std::move(specificity)) {}

  void add(const Instantiation& i) { live_.push_back({i, false}); }

  bool remove(const Instantiation& i) {
    const auto it = find(i);
    if (it == live_.end()) return false;
    live_.erase(it);
    return true;
  }

  void mark_fired(const Instantiation& i) {
    const auto it = find(i);
    if (it != live_.end()) it->fired = true;
  }

  [[nodiscard]] std::optional<Instantiation> select(Strategy s) const {
    const Copy* best = nullptr;
    Rank best_rank;
    for (const Copy& c : live_) {
      if (c.fired) continue;
      Rank r = rank(c.inst, s);
      if (best == nullptr || r > best_rank) {
        best = &c;
        best_rank = std::move(r);
      }
    }
    if (best == nullptr) return std::nullopt;
    return best->inst;
  }

  [[nodiscard]] std::size_t size() const { return live_.size(); }
  [[nodiscard]] const Instantiation& at(std::size_t i) const {
    return live_[i].inst;
  }
  [[nodiscard]] std::vector<Instantiation> all() const {
    std::vector<Instantiation> out;
    for (const Copy& c : live_) out.push_back(c.inst);
    return out;
  }

 private:
  struct Copy {
    Instantiation inst;
    bool fired = false;
  };
  // Larger ranks win.  MEA: the first CE's timetag, then LEX.  LEX: the
  // timetags sorted descending, compared lexicographically (a proper
  // prefix ranks below the longer list), then specificity, then the lower
  // production id, then the raw token, compared lexicographically.
  using Rank = std::tuple<std::uint64_t, std::vector<WmeId>, std::size_t,
                          std::int64_t, std::vector<WmeId>>;

  [[nodiscard]] Rank rank(const Instantiation& i, Strategy s) const {
    std::vector<WmeId> recency = i.token.wmes;
    std::sort(recency.rbegin(), recency.rend());
    const std::uint64_t first =
        s == Strategy::Mea && !i.token.wmes.empty() ? i.token.wmes[0].value()
                                                    : 0;
    return {first, recency, specificity_[i.production.value()],
            -static_cast<std::int64_t>(i.production.value()), i.token.wmes};
  }

  std::vector<Copy>::iterator find(const Instantiation& i) {
    return std::find_if(live_.begin(), live_.end(),
                        [&](const Copy& c) { return c.inst == i; });
  }

  std::vector<std::size_t> specificity_;
  std::vector<Copy> live_;
};

std::vector<Instantiation> sorted(std::vector<Instantiation> v) {
  std::sort(v.begin(), v.end(), [](const auto& x, const auto& y) {
    return std::tie(x.production, x.token.wmes) <
           std::tie(y.production, y.token.wmes);
  });
  return v;
}

TEST(ConflictSet, MatchesAReferenceOverSeededOperations) {
  // Production 0 comes at token lengths 2 and 3; productions 1-3 at 1, 4
  // and 5.  Productions 0 and 2 share a specificity, so recency ties fall
  // through to the production id.  Timetags come from a small range, so
  // recency lists tie often.
  const std::vector<std::size_t> specificity{3, 5, 3, 4};
  const std::vector<std::size_t> lengths{2, 1, 4, 5};
  ConflictSet cs([&](ProductionId p) { return specificity[p.value()]; });
  ReferenceSet ref(specificity);
  std::vector<std::pair<Instantiation, bool>> hooked;
  cs.set_delta_hook([&](const Instantiation& i, bool added) {
    hooked.emplace_back(i, added);
  });
  Rng rng(20261019);
  const auto fresh = [&] {
    const auto p = static_cast<std::uint32_t>(rng.below(4));
    std::size_t n = lengths[p];
    if (p == 0 && rng.below(2) == 0) n = 3;
    Token t;
    for (std::size_t k = 0; k < n; ++k) t.wmes.push_back(WmeId{rng.below(24)});
    return Instantiation{ProductionId{p}, std::move(t)};
  };
  const auto live = [&] {
    return ref.at(static_cast<std::size_t>(rng.below(ref.size())));
  };
  std::size_t selected = 0;
  std::size_t peak = 0;
  for (int op = 0; op < 20000; ++op) {
    // Adds outnumber removes below 48 entries and trail them above, so
    // the set keeps growing and shrinking through that size.
    const std::uint64_t kind =
        rng.below(100) + (ref.size() < 48 ? 0 : 100);
    hooked.clear();
    if (kind < 45 || (kind >= 100 && kind < 125) || ref.size() == 0) {
      // One add in six is a duplicate of a live instantiation.
      const Instantiation i =
          rng.below(6) != 0 || ref.size() == 0 ? fresh() : live();
      cs.add(i);
      ref.add(i);
      ASSERT_EQ(hooked.size(), 1u);
      EXPECT_EQ(hooked[0].first, i);
      EXPECT_TRUE(hooked[0].second);
    } else if ((kind % 100) < 70) {
      // Mostly a live instantiation; one in six a fresh, mostly absent, one.
      const Instantiation i = rng.below(6) != 0 ? live() : fresh();
      const bool present = ref.remove(i);
      ASSERT_EQ(cs.remove(i), present) << "op " << op;
      ASSERT_EQ(hooked.size(), present ? 1u : 0u);
      if (present) {
        EXPECT_EQ(hooked[0].first, i);
        EXPECT_FALSE(hooked[0].second);
      }
    } else if ((kind % 100) < 92) {
      const Strategy s = rng.below(2) == 0 ? Strategy::Lex : Strategy::Mea;
      const auto picked = cs.select(s);
      const auto expected = ref.select(s);
      ASSERT_EQ(picked.has_value(), expected.has_value()) << "op " << op;
      if (picked.has_value()) {
        ASSERT_EQ(*picked, *expected) << "op " << op;
        cs.mark_fired(*picked);
        ref.mark_fired(*expected);
        ++selected;
      }
    } else {
      const Instantiation i = rng.below(4) != 0 ? live() : fresh();
      cs.mark_fired(i);
      ref.mark_fired(i);
    }
    ASSERT_EQ(cs.size(), ref.size()) << "op " << op;
    peak = std::max(peak, ref.size());
    for (const Strategy s : {Strategy::Lex, Strategy::Mea}) {
      const auto picked = cs.select(s);
      const auto expected = ref.select(s);
      ASSERT_EQ(picked.has_value(), expected.has_value()) << "op " << op;
      if (picked.has_value()) {
        ASSERT_EQ(*picked, *expected) << "op " << op;
      }
    }
    ASSERT_EQ(sorted(cs.all()), sorted(ref.all())) << "op " << op;
  }
  // The stream reaches the interesting states: a set of some size, and
  // many fires.
  EXPECT_GT(peak, 40u);
  EXPECT_GT(selected, 2000u);
}

}  // namespace
}  // namespace mpps::rete
