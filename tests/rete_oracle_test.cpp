// The central correctness property: after ANY sequence of working-memory
// changes, the Rete engine's conflict set equals the brute-force matcher's
// output on the same working memory.  Programs and change sequences are
// generated pseudo-randomly; each seed is one parameterized test case.
// Both match engines run their joins through one kernel (rete/join.hpp),
// so each is checked here against `naive_match`, which shares no code
// with it: the serial engine after every change, and the parallel engine
// at 2 and 4 threads after every flush of a random-sized batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/ops5/ast.hpp"
#include "src/ops5/wme.hpp"
#include "src/pmatch/engine.hpp"
#include "src/rete/engine.hpp"
#include "src/rete/naive.hpp"
#include "src/rete/network.hpp"

namespace mpps::rete {
namespace {

using ops5::ConditionElement;
using ops5::Predicate;
using ops5::Production;
using ops5::Program;
using ops5::Term;
using ops5::Value;
using ops5::Wme;
using ops5::WmeChange;
using ops5::WorkingMemory;

// Small vocabularies keep the collision rate high — the interesting regime.
const char* kClasses[] = {"a", "b", "c"};
const char* kAttrs[] = {"p", "q", "r"};

Value random_value(Rng& rng) {
  if (rng.below(2) == 0) {
    return Value(static_cast<long>(rng.below(3)));
  }
  return Value::sym(std::string("v") + std::to_string(rng.below(3)));
}

Symbol random_var(Rng& rng) {
  return Symbol::intern(std::string("x") + std::to_string(rng.below(3)));
}

ConditionElement random_ce(Rng& rng, bool may_negate) {
  ConditionElement ce;
  ce.ce_class = Symbol::intern(kClasses[rng.below(3)]);
  ce.negated = may_negate && rng.below(4) == 0;
  const std::uint64_t n_tests = 1 + rng.below(2);
  for (std::uint64_t i = 0; i < n_tests; ++i) {
    ops5::AttrTest at;
    at.attr = Symbol::intern(kAttrs[rng.below(3)]);
    ops5::AtomicTest test;
    switch (rng.below(5)) {
      case 0:  // constant equality
        test.pred = Predicate::Eq;
        test.operand = Term::make_const(random_value(rng));
        break;
      case 1:  // numeric predicate against a constant
        test.pred = rng.below(2) == 0 ? Predicate::Lt : Predicate::Ge;
        test.operand = Term::make_const(Value(static_cast<long>(rng.below(3))));
        break;
      case 2:  // disjunction
        test.pred = Predicate::Eq;
        test.disjunction = {random_value(rng), random_value(rng)};
        break;
      default:  // variable (bind or consistency test)
        test.pred = Predicate::Eq;
        test.operand = Term::make_var(random_var(rng));
        break;
    }
    at.tests.push_back(std::move(test));
    ce.attr_tests.push_back(std::move(at));
  }
  return ce;
}

Program random_program(Rng& rng) {
  Program prog;
  const std::uint64_t n_prods = 1 + rng.below(3);
  for (std::uint64_t p = 0; p < n_prods; ++p) {
    Production prod;
    prod.name = "r" + std::to_string(p);
    const std::uint64_t n_ces = 1 + rng.below(3);
    for (std::uint64_t c = 0; c < n_ces; ++c) {
      prod.lhs.push_back(random_ce(rng, c > 0));
    }
    prod.rhs.emplace_back(ops5::HaltAction{});
    // Predicates on unbound variables are compile errors; scrub them by
    // tracking binding occurrences in order (same rule as the compiler).
    std::vector<Symbol> bound;
    for (auto& ce : prod.lhs) {
      std::vector<Symbol> local = bound;
      for (auto& at : ce.attr_tests) {
        for (auto& test : at.tests) {
          if (!test.operand.is_var() || !test.disjunction.empty()) continue;
          const Symbol var = test.operand.variable;
          const bool known =
              std::find(local.begin(), local.end(), var) != local.end();
          if (!known) {
            test.pred = Predicate::Eq;  // first occurrence must bind
            local.push_back(var);
          }
        }
      }
      if (!ce.negated) bound = std::move(local);
    }
    prog.productions.push_back(std::move(prod));
  }
  return prog;
}

Wme random_wme(Rng& rng) {
  std::vector<std::pair<Symbol, Value>> attrs;
  const std::uint64_t n = 1 + rng.below(3);
  for (std::uint64_t i = 0; i < n; ++i) {
    attrs.emplace_back(Symbol::intern(kAttrs[rng.below(3)]),
                       random_value(rng));
  }
  return Wme(Symbol::intern(kClasses[rng.below(3)]), std::move(attrs));
}

using Key = std::pair<std::uint32_t, std::vector<std::uint64_t>>;

std::vector<Key> normalize(const std::vector<Instantiation>& insts) {
  std::vector<Key> out;
  out.reserve(insts.size());
  for (const auto& inst : insts) {
    Key k;
    k.first = inst.production.value();
    for (WmeId w : inst.token.wmes) k.second.push_back(w.value());
    out.push_back(std::move(k));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// One seed's random program, bucket count and stream of WM changes.
class RandomRun {
 public:
  explicit RandomRun(std::uint64_t seed)
      : rng_(seed),
        program_(random_program(rng_)),
        net_(Network::compile(program_)),
        num_buckets_(1 + static_cast<std::uint32_t>(rng_.below(32))) {}

  [[nodiscard]] const Network& net() const { return net_; }
  [[nodiscard]] std::uint32_t num_buckets() const { return num_buckets_; }

  /// Makes one random add or remove; returns the resulting changes.
  std::vector<WmeChange> step() {
    const bool do_remove = !live_.empty() && rng_.below(3) == 0;
    if (do_remove) {
      const std::uint64_t pick = rng_.below(live_.size());
      wm_.remove(live_[pick]);
      live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      live_.push_back(wm_.add(random_wme(rng_)));
    }
    return wm_.drain_changes();
  }

  /// The brute-force conflict set of the working memory so far.
  [[nodiscard]] std::vector<Key> expected() const {
    return normalize(naive_match(program_, wm_.all()));
  }

 private:
  Rng rng_;
  Program program_;
  Network net_;
  std::uint32_t num_buckets_;
  WorkingMemory wm_;
  std::vector<WmeId> live_;
};

constexpr int kSteps = 40;

class OracleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleProperty, ReteMatchesBruteForceAfterEveryChange) {
  RandomRun run(GetParam());
  EngineOptions opts;
  opts.num_buckets = run.num_buckets();
  Engine engine(run.net(), opts);
  for (int step = 0; step < kSteps; ++step) {
    for (const auto& change : run.step()) {
      engine.process_change(change);
    }
    ASSERT_EQ(normalize(engine.conflict_set().all()), run.expected())
        << "divergence at step " << step << " (seed " << GetParam() << ")";
  }
  EXPECT_EQ(engine.stats().stale_deletes, 0u);
}

TEST_P(OracleProperty, ParallelMatchesBruteForceAfterEveryFlush) {
  for (const std::uint32_t threads : {2u, 4u}) {
    RandomRun run(GetParam());
    pmatch::ParallelOptions popts;
    popts.threads = threads;
    popts.num_buckets = run.num_buckets();
    pmatch::ParallelEngine engine(run.net(), popts);
    Rng batch_sizes(GetParam() * 1000 + threads);  // leaves `run`'s draws
    for (int step = 0; step < kSteps;) {
      const std::uint64_t batch = 1 + batch_sizes.below(6);
      engine.begin_batch();
      for (std::uint64_t i = 0; i < batch && step < kSteps; ++i, ++step) {
        for (const auto& change : run.step()) {
          engine.process_change(change);
        }
      }
      engine.flush();
      ASSERT_EQ(normalize(engine.conflict_set().all()), run.expected())
          << "divergence after step " << step - 1 << " (seed " << GetParam()
          << ", " << threads << " threads)";
    }
    EXPECT_EQ(engine.stats().stale_deletes, 0u) << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, OracleProperty,
                         ::testing::Range<std::uint64_t>(1, 61));

}  // namespace
}  // namespace mpps::rete
