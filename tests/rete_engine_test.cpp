#include "src/rete/engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/ops5/parser.hpp"
#include "src/rete/memory.hpp"
#include "src/rete/network.hpp"

namespace mpps::rete {
namespace {

using ops5::Value;
using ops5::Wme;
using ops5::WmeChange;
using ops5::WorkingMemory;

struct Fixture {
  ops5::Program program;
  Network net;
  Engine engine;
  WorkingMemory wm;

  explicit Fixture(std::string_view src, EngineOptions opts = {})
      : program(ops5::parse_program(src)),
        net(Network::compile(program)),
        engine(net, opts) {}

  WmeId add(std::string_view wme_text) {
    const WmeId id = wm.add(ops5::parse_wme(wme_text));
    flush();
    return id;
  }
  void remove(WmeId id) {
    ASSERT_TRUE(wm.remove(id));
    flush();
  }
  void flush() {
    for (const auto& change : wm.drain_changes()) {
      engine.process_change(change);
    }
  }
  [[nodiscard]] std::size_t cs_size() const {
    return engine.conflict_set().size();
  }
};

TEST(Engine, SimpleJoinMatches) {
  Fixture f("(p pair (a ^v <x>) (b ^v <x>) --> (halt))");
  f.add("(a ^v 1)");
  EXPECT_EQ(f.cs_size(), 0u);
  f.add("(b ^v 1)");
  EXPECT_EQ(f.cs_size(), 1u);
  f.add("(b ^v 2)");
  EXPECT_EQ(f.cs_size(), 1u);  // no consistent binding for v 2
  f.add("(a ^v 2)");
  EXPECT_EQ(f.cs_size(), 2u);
}

TEST(Engine, DeletionRetractsInstantiations) {
  Fixture f("(p pair (a ^v <x>) (b ^v <x>) --> (halt))");
  const WmeId a = f.add("(a ^v 1)");
  f.add("(b ^v 1)");
  ASSERT_EQ(f.cs_size(), 1u);
  f.remove(a);
  EXPECT_EQ(f.cs_size(), 0u);
  EXPECT_EQ(f.engine.left_memory().total_tokens(), 0u);
}

TEST(Engine, RightDeletionRetracts) {
  Fixture f("(p pair (a ^v <x>) (b ^v <x>) --> (halt))");
  f.add("(a ^v 1)");
  const WmeId b = f.add("(b ^v 1)");
  ASSERT_EQ(f.cs_size(), 1u);
  f.remove(b);
  EXPECT_EQ(f.cs_size(), 0u);
  EXPECT_EQ(f.engine.right_memory().total_tokens(), 0u);
}

TEST(Engine, CrossProductGeneratesAllPairs) {
  // No common variable: every (a, b) pair matches.
  Fixture f("(p all (a ^v <x>) (b ^w <y>) --> (halt))");
  for (int i = 0; i < 3; ++i) {
    f.add("(a ^v " + std::to_string(i) + ")");
  }
  for (int i = 0; i < 4; ++i) {
    f.add("(b ^w " + std::to_string(i) + ")");
  }
  EXPECT_EQ(f.cs_size(), 12u);
}

TEST(Engine, ThreeWayJoin) {
  Fixture f(R"(
    (p chain (a ^v <x>) (b ^v <x> ^w <y>) (c ^w <y>) --> (halt)))");
  f.add("(a ^v 1)");
  f.add("(b ^v 1 ^w 7)");
  EXPECT_EQ(f.cs_size(), 0u);
  f.add("(c ^w 7)");
  EXPECT_EQ(f.cs_size(), 1u);
  f.add("(c ^w 8)");
  EXPECT_EQ(f.cs_size(), 1u);
}

TEST(Engine, NegationBlocksWhileMatcherExists) {
  Fixture f("(p lonely (a ^v <x>) -(b ^v <x>) --> (halt))");
  f.add("(a ^v 1)");
  EXPECT_EQ(f.cs_size(), 1u);
  const WmeId b = f.add("(b ^v 1)");
  EXPECT_EQ(f.cs_size(), 0u);
  f.remove(b);
  EXPECT_EQ(f.cs_size(), 1u);
}

TEST(Engine, NegationCountsMultipleBlockers) {
  Fixture f("(p lonely (a ^v <x>) -(b ^v <x>) --> (halt))");
  f.add("(a ^v 1)");
  const WmeId b1 = f.add("(b ^v 1)");
  const WmeId b2 = f.add("(b ^v 1)");
  EXPECT_EQ(f.cs_size(), 0u);
  f.remove(b1);
  EXPECT_EQ(f.cs_size(), 0u);  // b2 still blocks
  f.remove(b2);
  EXPECT_EQ(f.cs_size(), 1u);
}

TEST(Engine, NegationArrivingBeforePositive) {
  Fixture f("(p lonely (a ^v <x>) -(b ^v <x>) --> (halt))");
  f.add("(b ^v 1)");
  f.add("(a ^v 1)");
  EXPECT_EQ(f.cs_size(), 0u);
  f.add("(a ^v 2)");
  EXPECT_EQ(f.cs_size(), 1u);
}

TEST(Engine, NegationWithOnlyConstantTests) {
  Fixture f("(p nofree (goal ^t 1) -(hand ^state free) --> (halt))");
  f.add("(goal ^t 1)");
  EXPECT_EQ(f.cs_size(), 1u);
  const WmeId h = f.add("(hand ^state free)");
  EXPECT_EQ(f.cs_size(), 0u);
  f.remove(h);
  EXPECT_EQ(f.cs_size(), 1u);
}

TEST(Engine, PredicateJoinTest) {
  Fixture f("(p bigger (a ^v <x>) (b ^v > <x>) --> (halt))");
  f.add("(a ^v 5)");
  f.add("(b ^v 3)");
  EXPECT_EQ(f.cs_size(), 0u);
  f.add("(b ^v 9)");
  EXPECT_EQ(f.cs_size(), 1u);
}

TEST(Engine, HashedMemoryPartitionsByValue) {
  Fixture f("(p pair (a ^v <x>) (b ^v <x>) --> (halt))");
  // Tokens with different values should land in (almost surely) different
  // buckets; comparisons only scan the matching bucket.
  for (int i = 0; i < 16; ++i) {
    f.add("(a ^v k" + std::to_string(i) + ")");
  }
  const auto before = f.engine.stats().comparisons;
  f.add("(b ^v k3)");
  const auto scanned = f.engine.stats().comparisons - before;
  // A linear-list memory would scan all 16; hashing scans the one bucket
  // (collisions allowed, but far fewer than 16).
  EXPECT_LE(scanned, 3u);
  EXPECT_EQ(f.cs_size(), 1u);
}

TEST(Engine, ListenerSeesActivations) {
  struct Recorder : ActivationListener {
    std::vector<ActivationRecord> records;
    int changes = 0;
    void on_wme_change(const WmeChange&) override { ++changes; }
    void on_activation(const ActivationRecord& r) override {
      records.push_back(r);
    }
  };
  Fixture f("(p pair (a ^v <x>) (b ^v <x>) --> (halt))");
  Recorder rec;
  f.engine.set_listener(&rec);
  f.add("(a ^v 1)");
  f.add("(b ^v 1)");
  EXPECT_EQ(rec.changes, 2);
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(rec.records[0].side, Side::Left);   // a is CE 1 → left input
  EXPECT_EQ(rec.records[1].side, Side::Right);  // b is CE 2 → right input
  EXPECT_EQ(rec.records[1].instantiations, 1u);
  EXPECT_FALSE(rec.records[0].parent.valid());
}

TEST(Engine, ListenerSeesChildParentLink) {
  struct Recorder : ActivationListener {
    std::vector<ActivationRecord> records;
    void on_activation(const ActivationRecord& r) override {
      records.push_back(r);
    }
  };
  Fixture f(R"(
    (p chain (a ^v <x>) (b ^v <x>) (c ^w 1) --> (halt)))");
  Recorder rec;
  f.engine.set_listener(&rec);
  f.add("(a ^v 1)");
  f.add("(b ^v 1)");  // join 1 fires → token to join 2's left
  ASSERT_EQ(rec.records.size(), 3u);
  EXPECT_EQ(rec.records[1].successors, 1u);
  EXPECT_EQ(rec.records[2].parent, rec.records[1].id);
  EXPECT_EQ(rec.records[2].side, Side::Left);
}

TEST(Engine, StatsCountSides) {
  Fixture f("(p pair (a ^v <x>) (b ^v <x>) --> (halt))");
  f.add("(a ^v 1)");
  f.add("(a ^v 2)");
  f.add("(b ^v 1)");
  EXPECT_EQ(f.engine.stats().left_activations, 2u);
  EXPECT_EQ(f.engine.stats().right_activations, 1u);
  EXPECT_EQ(f.engine.stats().tokens_generated, 1u);
}

TEST(Engine, SharedJoinFeedsBothProductions) {
  Fixture f(R"(
    (p p1 (a ^v <x>) (b ^v <x>) (c ^k 1) --> (halt))
    (p p2 (a ^v <x>) (b ^v <x>) (d ^k 2) --> (halt)))");
  f.add("(a ^v 1)");
  f.add("(b ^v 1)");
  f.add("(c ^k 1)");
  f.add("(d ^k 2)");
  EXPECT_EQ(f.cs_size(), 2u);
}

TEST(Engine, ModifySequenceDeleteThenAdd) {
  // The multiple-modify effect: delete + re-add of the same wme content
  // flows a minus then a plus token through the same bucket.
  Fixture f("(p pair (a ^v <x>) (b ^v <x>) --> (halt))");
  f.add("(a ^v 1)");
  const WmeId b = f.add("(b ^v 1)");
  ASSERT_EQ(f.cs_size(), 1u);
  f.remove(b);
  f.add("(b ^v 1)");
  EXPECT_EQ(f.cs_size(), 1u);
  EXPECT_EQ(f.engine.stats().stale_deletes, 0u);
}

TEST(Engine, DuplicateWmeContentsAreDistinctMatches) {
  Fixture f("(p pair (a ^v <x>) (b ^v <x>) --> (halt))");
  f.add("(a ^v 1)");
  f.add("(a ^v 1)");
  f.add("(b ^v 1)");
  EXPECT_EQ(f.cs_size(), 2u);
}

TEST(Engine, UnknownDeleteAndDuplicateAddThrowBeforeAnythingChanges) {
  Fixture f("(p pair (a ^v <x>) (b ^v <x>) --> (halt))");
  struct Changes : ActivationListener {
    std::size_t seen = 0;
    void on_wme_change(const WmeChange&) override { ++seen; }
  } listener;
  f.engine.set_listener(&listener);
  const WmeId a = f.add("(a ^v 1)");
  const auto change = [](WmeChange::Kind kind, std::string_view text,
                         WmeId id) {
    WmeChange c{kind, ops5::parse_wme(text)};
    c.wme.rebind_id(id);
    return c;
  };
  const auto expect_rejected = [&](const WmeChange& bad) {
    const EngineStats before = f.engine.stats();
    try {
      f.engine.process_change(bad);
      ADD_FAILURE() << "accepted " << bad.wme;
    } catch (const RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "wme id " + std::to_string(bad.wme.id().value())),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(f.engine.stats(), before);
    EXPECT_EQ(f.engine.left_memory().total_tokens(), 1u);
    EXPECT_EQ(listener.seen, 1u);
  };
  // Unknown deletes, whether or not the wme passes an alpha test.
  expect_rejected(change(WmeChange::Kind::Delete, "(a ^v 1)", WmeId{99}));
  expect_rejected(change(WmeChange::Kind::Delete, "(z ^v 1)", WmeId{98}));
  // An add of a live id, with other content.
  expect_rejected(change(WmeChange::Kind::Add, "(a ^v 2)", a));
  // The engine stays usable and keeps the first wme's content.
  f.add("(b ^v 1)");
  EXPECT_EQ(f.cs_size(), 1u);
  EXPECT_EQ(f.engine.wme(a).get(Symbol::intern("v")).as_int(), 1);
  f.remove(a);
  EXPECT_EQ(f.cs_size(), 0u);
}

TEST(Engine, AbsentAttributeNeverMatchesConstant) {
  Fixture f("(p x (a ^v 1) --> (halt))");
  f.add("(a ^w 1)");
  EXPECT_EQ(f.cs_size(), 0u);
}

TEST(Engine, HashingCutsEntriesScanned) {
  // The Section 3.1 rationale: with one bucket per side, every lookup
  // scans the node's whole memory; real bucket counts cut that by orders
  // of magnitude.
  auto scanned_with = [](std::uint32_t buckets) {
    EngineOptions opts;
    opts.num_buckets = buckets;
    Fixture f("(p pair (a ^v <x>) (b ^v <x>) --> (halt))", opts);
    for (int i = 0; i < 64; ++i) {
      f.add("(a ^v k" + std::to_string(i) + ")");
      f.add("(b ^v k" + std::to_string(i) + ")");
    }
    return f.engine.left_memory().entries_scanned() +
           f.engine.right_memory().entries_scanned();
  };
  const auto hashed = scanned_with(256);
  const auto linear = scanned_with(1);
  EXPECT_GT(linear, 10 * hashed);
}

TEST(Engine, SingleBucketStressWithFewBuckets) {
  // With one bucket, everything collides; results must be identical.
  EngineOptions opts;
  opts.num_buckets = 1;
  Fixture f("(p pair (a ^v <x>) (b ^v <x>) --> (halt))", opts);
  f.add("(a ^v 1)");
  f.add("(a ^v 2)");
  f.add("(b ^v 1)");
  f.add("(b ^v 2)");
  f.add("(b ^v 3)");
  EXPECT_EQ(f.cs_size(), 2u);
}

// bucket_of masks a power-of-two bucket count where bucket_index divides;
// the two must agree on every count and every kind of key, or the
// recorded traces would change.
TEST(HashedMemory, BucketOfIsTheModuloIndexForEveryBucketCount) {
  Rng rng(424242);
  const auto random_value = [&]() -> Value {
    switch (rng.below(4)) {
      case 0: return Value{};  // absent
      case 1: return Value::sym("s" + std::to_string(rng.below(64)));
      case 2: return Value(static_cast<long>(rng.below(4096)) - 2048);
      default:
        return Value(static_cast<double>(rng.below(4096)) / 8.0 - 256.0);
    }
  };
  for (const std::uint32_t n : {1u, 2u, 3u, 7u, 64u, 256u, 1000u, 65536u}) {
    const HashedMemory memory(n);
    for (int i = 0; i < 4000; ++i) {
      std::vector<Value> key(rng.below(4));
      for (Value& v : key) v = random_value();
      const NodeId node{static_cast<std::uint32_t>(rng.below(512))};
      ASSERT_EQ(memory.bucket_of(node, key), bucket_index(node, key, n))
          << n << " buckets, node " << node.value();
    }
    // Int 2 equals Float 2.0, so the two keys share a bucket.
    for (std::uint32_t node = 0; node < 64; ++node) {
      const std::vector<Value> as_int{Value::sym("k"), Value(2L)};
      const std::vector<Value> as_float{Value::sym("k"), Value(2.0)};
      EXPECT_EQ(memory.bucket_of(NodeId{node}, as_int),
                memory.bucket_of(NodeId{node}, as_float));
      EXPECT_EQ(memory.bucket_of(NodeId{node}, as_int),
                bucket_index(NodeId{node}, as_float, n));
    }
  }
}

TEST(StatsMirror, FlushAddsOnlyTheDeltaSinceTheLastFlush) {
  obs::Registry registry;
  StatsMirror mirror(&registry);
  EngineStats stats;
  stats.left_activations = 3;
  stats.comparisons = 5;
  mirror.flush(stats, 7);
  stats.left_activations = 4;
  stats.stale_deletes = 1;
  mirror.flush(stats, 2);
  EXPECT_EQ(registry.counter("rete.activations", {{"side", "left"}}).value(),
            4u);
  EXPECT_EQ(registry.counter("rete.comparisons").value(), 5u);
  EXPECT_EQ(registry.counter("rete.stale_deletes").value(), 1u);
  EXPECT_EQ(registry.gauge("rete.live_tokens").value(), 2);
  StatsMirror detached(nullptr);
  detached.flush(stats, 9);  // no registry: nothing to record
  EXPECT_EQ(registry.gauge("rete.live_tokens").value(), 2);
}

}  // namespace
}  // namespace mpps::rete
