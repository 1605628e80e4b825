// Focused tests for behaviours the module suites touch only indirectly:
// activation records at negative nodes, memory bookkeeping, assignment
// construction edge cases, and configuration interactions.
#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/ops5/parser.hpp"
#include "src/rete/engine.hpp"
#include "src/rete/network.hpp"
#include "src/sim/simulator.hpp"
#include "src/trace/collector.hpp"
#include "src/trace/synth.hpp"

namespace mpps {
namespace {

using ops5::WorkingMemory;

struct Recorder : rete::ActivationListener {
  std::vector<rete::ActivationRecord> records;
  void on_activation(const rete::ActivationRecord& r) override {
    records.push_back(r);
  }
};

struct EngineRig {
  ops5::Program program;
  rete::Network net;
  rete::Engine engine;
  WorkingMemory wm;
  Recorder recorder;

  explicit EngineRig(std::string_view src)
      : program(ops5::parse_program(src)),
        net(rete::Network::compile(program)),
        engine(net) {
    engine.set_listener(&recorder);
  }
  WmeId add(std::string_view text) {
    const WmeId id = wm.add(ops5::parse_wme(text));
    flush();
    return id;
  }
  void remove(WmeId id) {
    wm.remove(id);
    flush();
  }
  void flush() {
    for (const auto& change : wm.drain_changes()) {
      engine.process_change(change);
    }
  }
};

TEST(NegativeNodeRecords, RightActivationsCarryMinusPropagation) {
  EngineRig rig("(p lonely (a ^v <x>) -(b ^v <x>) --> (halt))");
  rig.add("(a ^v 1)");
  ASSERT_EQ(rig.recorder.records.size(), 1u);
  // The left activation at the negative node propagated an instantiation.
  EXPECT_EQ(rig.recorder.records[0].side, rete::Side::Left);
  EXPECT_EQ(rig.recorder.records[0].instantiations, 1u);

  rig.add("(b ^v 1)");  // right activation: retracts via a minus token
  ASSERT_EQ(rig.recorder.records.size(), 2u);
  const auto& blocker = rig.recorder.records[1];
  EXPECT_EQ(blocker.side, rete::Side::Right);
  EXPECT_EQ(blocker.tag, rete::Tag::Plus);  // wme added...
  EXPECT_EQ(blocker.instantiations, 1u);    // ...one retraction emitted
  EXPECT_EQ(rig.engine.conflict_set().size(), 0u);
}

TEST(NegativeNodeRecords, DeletingBlockerEmitsPlus) {
  EngineRig rig("(p lonely (a ^v <x>) -(b ^v <x>) --> (halt))");
  rig.add("(a ^v 1)");
  const WmeId blocker = rig.add("(b ^v 1)");
  rig.remove(blocker);
  const auto& record = rig.recorder.records.back();
  EXPECT_EQ(record.side, rete::Side::Right);
  EXPECT_EQ(record.tag, rete::Tag::Minus);
  EXPECT_EQ(record.instantiations, 1u);  // re-assertion
  EXPECT_EQ(rig.engine.conflict_set().size(), 1u);
}

TEST(HashedMemoryBookkeeping, CellsAndTotalsTrackContents) {
  rete::HashedMemory memory(16);
  std::vector<ops5::Value> key1{ops5::Value(1L)};
  std::vector<ops5::Value> key2{ops5::Value(2L)};
  const std::uint32_t b1 = memory.bucket_of(NodeId{1}, key1);
  const std::uint32_t b2 = memory.bucket_of(NodeId{1}, key2);
  const std::uint32_t b3 = memory.bucket_of(NodeId{2}, key1);
  const WmeId w1[] = {WmeId{1}};
  const WmeId w2[] = {WmeId{2}};
  const WmeId w3[] = {WmeId{3}};
  memory.insert(NodeId{1}, b1, w1, key1);
  memory.insert(NodeId{1}, b2, w2, key2);
  memory.insert(NodeId{2}, b3, w3, key1);
  EXPECT_EQ(memory.total_tokens(), 3u);
  EXPECT_GE(memory.occupied_cells(), 2u);
  EXPECT_TRUE(memory.erase(NodeId{1}, b1, w1));
  EXPECT_FALSE(memory.erase(NodeId{1}, b1, w1));
  EXPECT_EQ(memory.total_tokens(), 2u);
}

TEST(HashedMemoryBookkeeping, FindFiltersByExactKey) {
  rete::HashedMemory memory(1);  // force every key into one bucket
  // Each entry carries its key and then one non-equality operand; only
  // the key prefix decides which entries a probe visits.
  const ops5::Value a = ops5::Value::sym("a");
  const ops5::Value b = ops5::Value::sym("b");
  const std::vector<ops5::Value> operands1{a, ops5::Value(10L)};
  const std::vector<ops5::Value> operands2{b, ops5::Value(20L)};
  const std::vector<ops5::Value> operands3{a, ops5::Value(30L)};
  const WmeId w1[] = {WmeId{1}};
  const WmeId w2[] = {WmeId{2}};
  const WmeId w3[] = {WmeId{3}};
  memory.insert(NodeId{1}, 0, w1, operands1);
  memory.insert(NodeId{1}, 0, w2, operands2);
  memory.insert(NodeId{1}, 0, w3, operands3);
  ASSERT_EQ(memory.bucket_of(NodeId{1}, std::span(&a, 1)),
            memory.bucket_of(NodeId{1}, std::span(&b, 1)));
  struct Seen {
    std::vector<WmeId> tokens;
    std::vector<long> operands;  // each visited entry's second operand
  };
  const auto probe = [&](NodeId node, const ops5::Value& key) {
    Seen seen;
    const std::uint32_t n = memory.probe(
        node, 0, std::span(&key, 1),
        [&](std::span<const WmeId> token,
            std::span<const ops5::Value> operands, int&) {
          seen.tokens.insert(seen.tokens.end(), token.begin(), token.end());
          EXPECT_EQ(operands.size(), 2u);
          EXPECT_TRUE(operands[0].equals(key));
          seen.operands.push_back(operands[1].as_int());
        });
    EXPECT_EQ(n, seen.tokens.size());
    return seen;
  };
  const Seen seen_a = probe(NodeId{1}, a);
  EXPECT_EQ(seen_a.tokens, (std::vector<WmeId>{WmeId{1}, WmeId{3}}));
  EXPECT_EQ(seen_a.operands, (std::vector<long>{10, 30}));
  const Seen seen_b = probe(NodeId{1}, b);
  EXPECT_EQ(seen_b.tokens, std::vector<WmeId>{WmeId{2}});
  EXPECT_EQ(seen_b.operands, std::vector<long>{20});
  // Same bucket index, different node: invisible.
  EXPECT_TRUE(probe(NodeId{9}, a).tokens.empty());
  // Erasing one key's entry leaves the other key's entries in place.
  EXPECT_TRUE(memory.erase(NodeId{1}, 0, w1));
  EXPECT_EQ(probe(NodeId{1}, a).operands, std::vector<long>{30});
  EXPECT_EQ(probe(NodeId{1}, b).operands, std::vector<long>{20});
}

TEST(HashedMemoryBookkeeping, EmptiedCellsAreReusedInInsertionOrder) {
  rete::HashedMemory memory(1);
  const std::vector<ops5::Value> key{ops5::Value(1L)};
  const WmeId a[] = {WmeId{1}, WmeId{2}};
  const WmeId b[] = {WmeId{3}, WmeId{4}};
  const WmeId c[] = {WmeId{5}, WmeId{6}};
  for (const auto* t : {a, b, c}) memory.insert(NodeId{4}, 0, {t, 2}, key, 7);
  int count = 0;
  EXPECT_TRUE(memory.erase(NodeId{4}, 0, b, &count));
  EXPECT_EQ(count, 7);
  std::vector<WmeId> order;
  memory.probe(NodeId{4}, 0, key,
               [&](std::span<const WmeId> token,
                   std::span<const ops5::Value>, int&) {
                 order.push_back(token[0]);
               });
  EXPECT_EQ(order, (std::vector<WmeId>{WmeId{1}, WmeId{5}}));
  // Emptying the cell frees its slot; the next node's cell takes it.
  EXPECT_TRUE(memory.erase(NodeId{4}, 0, a));
  EXPECT_TRUE(memory.erase(NodeId{4}, 0, c));
  EXPECT_EQ(memory.occupied_cells(), 0u);
  const auto ignore = [](std::span<const WmeId>, std::span<const ops5::Value>,
                         int&) {};
  EXPECT_EQ(memory.probe(NodeId{4}, 0, key, ignore), 0u);
  EXPECT_EQ(memory.insert(NodeId{5}, 0, {a, 1}, key), 1u);
  EXPECT_EQ(memory.occupied_cells(), 1u);
  EXPECT_EQ(memory.probe(NodeId{5}, 0, key, ignore), 1u);
  EXPECT_EQ(memory.total_tokens(), 1u);
}

TEST(CollectorBehaviour, AutoOpensCycleOnActivity) {
  trace::Collector collector(32);
  rete::ActivationRecord record;
  record.id = ActivationId{1};
  record.node = NodeId{1};
  record.bucket = 3;
  collector.on_activation(record);  // no begin_cycle called
  const trace::Trace t = collector.take("auto");
  ASSERT_EQ(t.cycles.size(), 1u);
  EXPECT_EQ(t.cycles[0].activations.size(), 1u);
}

TEST(CollectorBehaviour, TakeResetsForReuse) {
  trace::Collector collector(32);
  collector.begin_cycle();
  const trace::Trace first = collector.take("one");
  collector.begin_cycle();
  const trace::Trace second = collector.take("two");
  EXPECT_EQ(first.cycles.size(), 1u);
  EXPECT_EQ(second.cycles.size(), 1u);
  EXPECT_EQ(second.num_buckets, 32u);
}

TEST(AssignmentEdges, FixedMapIsStaticAcrossCycles) {
  const auto a = sim::Assignment::fixed({3u, 1u, 2u, 0u}, 4);
  for (std::size_t cycle : {0u, 5u, 99u}) {
    EXPECT_EQ(a.proc_of(cycle, 0), 3u);
    EXPECT_EQ(a.proc_of(cycle, 3), 0u);
  }
  EXPECT_EQ(a.num_buckets(), 4u);
}

TEST(ConfigInteractions, CsProcsWithChargingDisabledAreInert) {
  trace::SectionBuilder b("inert", 8);
  b.begin_cycle(1);
  const auto r = b.root_at(trace::Side::Right, NodeId{1}, 0, 0);
  b.add_instantiations(r, 3);
  const trace::Trace t = b.take();
  sim::SimConfig config;
  config.match_processors = 2;
  config.conflict_set_processors = 2;
  config.charge_instantiation_messages = false;
  config.costs = sim::CostModel::paper_run(4);
  const auto result = sim::simulate(t, config, sim::Assignment::round_robin(8, 2));
  EXPECT_EQ(result.messages, 0u);
}

TEST(ConfigInteractions, PairsWithCtProcessors) {
  // Constant-test processors feed root tokens into processor pairs; the
  // combination must schedule cleanly and conserve activations.
  const trace::Trace t = trace::make_weaver_section(64, 71);
  sim::SimConfig config;
  config.match_processors = 8;
  config.mapping = sim::MappingMode::ProcessorPairs;
  config.constant_test_processors = 2;
  config.costs = sim::CostModel::paper_run(2);
  const auto result =
      sim::simulate(t, config, sim::Assignment::round_robin(64, 4));
  std::uint64_t counted = 0;
  for (const auto& cycle : result.cycles) {
    for (const auto& proc : cycle.procs) counted += proc.activations;
  }
  EXPECT_EQ(counted, t.total_activations());
  EXPECT_GT(result.makespan, SimTime::us(0));
}

TEST(NetworkDiagnostics, SharedBetaCountSeesFanout) {
  const auto net = rete::Network::compile(ops5::parse_program(R"(
    (p p1 (a ^v <x>) (b ^v <x>) (c ^k 1) --> (halt))
    (p p2 (a ^v <x>) (b ^v <x>) (d ^k 2) --> (halt))
    (p p3 (a ^v <x>) (b ^v <x>) (e ^k 3) --> (halt)))"));
  EXPECT_EQ(net.shared_beta_count(), 1u);  // the shared a-b join
  EXPECT_EQ(net.betas().size(), 4u);
}

TEST(EngineWmeAccess, ExposesLiveWmes) {
  EngineRig rig("(p pair (a ^v <x>) (b ^v <x>) --> (halt))");
  const WmeId a = rig.add("(a ^v 7)");
  EXPECT_TRUE(rig.engine.wme(a).get(Symbol::intern("v")).equals(
      ops5::Value(7L)));
}

}  // namespace
}  // namespace mpps
