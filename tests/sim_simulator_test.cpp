#include "src/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/common/error.hpp"
#include "src/trace/record.hpp"
#include "src/trace/synth.hpp"

namespace mpps::sim {
namespace {

using trace::SectionBuilder;
using trace::Side;
using trace::Trace;

/// One right root (bucket 0) generating one left child (bucket 1) that
/// produces one instantiation.
Trace chain_trace() {
  SectionBuilder b("chain", 4);
  b.begin_cycle(1);
  const auto root = b.root_at(Side::Right, NodeId{1}, 0, 0);
  const auto child = b.child_at(root, NodeId{2}, 1, 0);
  b.add_instantiations(child);
  return b.take();
}

TEST(Simulator, BaselineMatchesHandComputation) {
  // 30 (constant tests) + [16 + 16] (right root + one successor)
  //                     + [32 + 16] (left child + one instantiation token)
  EXPECT_EQ(baseline_time(chain_trace()), SimTime::us(110));
}

TEST(Simulator, ZeroOverheadChainIsSerialAcrossTwoProcs) {
  SimConfig config;
  config.match_processors = 2;
  config.costs = CostModel::zero_overhead();
  const auto result = simulate(chain_trace(), config,
                               Assignment::round_robin(4, 2));
  // The chain has no parallelism: same 110 us even on two processors.
  EXPECT_EQ(result.makespan, SimTime::us(110));
  EXPECT_DOUBLE_EQ(speedup(chain_trace(), config,
                           Assignment::round_robin(4, 2)),
                   1.0);
}

TEST(Simulator, OverheadScheduleMatchesHandComputation) {
  // Run 2 (send 5, recv 3, latency 0.5), 2 processors, hardware broadcast:
  //  t=5.0   broadcast departs;   t=5.5 arrival at both procs
  //  t=8.5   recv done;           t=38.5 constant tests done
  //  proc0: root 16 → 54.5; successor 16 → 70.5; send 5 → 75.5
  //  wire:   arrival at proc1 at 76.0; recv 3 → 79.0
  //  proc1: left add 32 → 111.0; instantiation token 16 → 127.0;
  //         send 5 → 132.0; control receives at 132.5, recv 3 → 135.5
  SimConfig config;
  config.match_processors = 2;
  config.costs = CostModel::paper_run(2);
  const auto result =
      simulate(chain_trace(), config, Assignment::round_robin(4, 2));
  EXPECT_EQ(result.makespan, SimTime::half_us(271));  // 135.5 us
  EXPECT_EQ(result.messages, 2u);  // child + instantiation
}

TEST(Simulator, LocalBucketExchangesNoMessage) {
  SimConfig config;
  config.match_processors = 1;
  config.costs = CostModel::paper_run(4);
  config.charge_instantiation_messages = false;
  const auto result =
      simulate(chain_trace(), config, Assignment::round_robin(4, 1));
  EXPECT_EQ(result.messages, 0u);
  EXPECT_EQ(result.local_deliveries, 1u);
}

TEST(CostModel, PaperRunOwnsTheRunIndex) {
  // Run 0 is Figure 5-1's zero-overhead model; 1..4 are Table 5-1's runs;
  // anything else is a usage error naming `run`.
  const CostModel zero = CostModel::paper_run(0);
  const CostModel expected = CostModel::zero_overhead();
  EXPECT_EQ(zero.constant_tests, expected.constant_tests);
  EXPECT_EQ(zero.left_token, expected.left_token);
  EXPECT_EQ(zero.right_token, expected.right_token);
  EXPECT_EQ(zero.per_successor, expected.per_successor);
  EXPECT_EQ(zero.wire_latency, expected.wire_latency);
  EXPECT_EQ(zero.send_overhead, expected.send_overhead);
  EXPECT_EQ(zero.recv_overhead, expected.recv_overhead);
  EXPECT_EQ(zero.hardware_broadcast, expected.hardware_broadcast);
  EXPECT_EQ(zero.resolve_cost, expected.resolve_cost);
  EXPECT_EQ(CostModel::paper_run(4).send_overhead, SimTime::us(20));
  for (const int run : {5, -1}) {
    try {
      (void)CostModel::paper_run(run);
      ADD_FAILURE() << "run " << run << " was accepted";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find("run"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Simulator, OverheadNeverSpeedsThingsUp) {
  const Trace t = trace::make_weaver_section(64, 5);
  for (std::uint32_t procs : {2u, 8u, 32u}) {
    SimTime prev{};
    for (int run = 1; run <= 4; ++run) {
      SimConfig config;
      config.match_processors = procs;
      config.costs = CostModel::paper_run(run);
      const auto result =
          simulate(t, config, Assignment::round_robin(64, procs));
      EXPECT_GE(result.makespan, prev)
          << "procs " << procs << " run " << run;
      prev = result.makespan;
    }
  }
}

TEST(Simulator, SpeedupBoundedByProcessorCount) {
  const Trace t = trace::make_rubik_section(128, 9);
  for (std::uint32_t procs : {2u, 4u, 16u}) {
    SimConfig config;
    config.match_processors = procs;
    config.costs = CostModel::zero_overhead();
    const double s =
        speedup(t, config, Assignment::round_robin(128, procs));
    EXPECT_GT(s, 1.0);
    EXPECT_LE(s, static_cast<double>(procs) + 1e-9);
  }
}

TEST(Simulator, OneProcZeroOverheadEqualsActivationCostSum) {
  const Trace t = trace::make_weaver_section(64, 11);
  // Independent accounting of the serial time.
  std::int64_t expected_us = 0;
  for (const auto& cycle : t.cycles) {
    expected_us += 30;
    for (const auto& act : cycle.activations) {
      expected_us += act.side == Side::Left ? 32 : 16;
      expected_us += 16 * (act.successors + act.instantiations);
    }
  }
  EXPECT_EQ(baseline_time(t), SimTime::us(expected_us));
}

TEST(Simulator, DeterministicAcrossRuns) {
  const Trace t = trace::make_rubik_section(128, 13);
  SimConfig config;
  config.match_processors = 8;
  config.costs = CostModel::paper_run(3);
  const auto a = simulate(t, config, Assignment::round_robin(128, 8));
  const auto b = simulate(t, config, Assignment::round_robin(128, 8));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.messages, b.messages);
}

TEST(Simulator, PrecedenceRespected) {
  // A 3-deep chain across three processors cannot finish faster than the
  // sum of its stage costs, whatever the assignment.
  SectionBuilder b("deep", 8);
  b.begin_cycle(1);
  const auto r = b.root_at(Side::Right, NodeId{1}, 0, 0);
  const auto c1 = b.child_at(r, NodeId{2}, 1, 0);
  const auto c2 = b.child_at(c1, NodeId{3}, 2, 0);
  (void)c2;
  const Trace t = b.take();
  SimConfig config;
  config.match_processors = 3;
  config.costs = CostModel::zero_overhead();
  const auto result = simulate(t, config, Assignment::round_robin(8, 3));
  // 30 + (16+16) + (32+16) + 32 = 142 us of strictly ordered work.
  EXPECT_GE(result.makespan, SimTime::us(142));
}

TEST(Simulator, CyclesAreBarriers) {
  // Two one-activation cycles: the second cannot start before the first
  // ends, so the makespan is the sum of the cycle spans.
  SectionBuilder b("two", 8);
  b.begin_cycle(1);
  b.root_at(Side::Right, NodeId{1}, 0, 0);
  b.begin_cycle(1);
  b.root_at(Side::Right, NodeId{1}, 1, 0);
  const Trace t = b.take();
  SimConfig config;
  config.match_processors = 2;
  config.costs = CostModel::zero_overhead();
  const auto result = simulate(t, config, Assignment::round_robin(8, 2));
  EXPECT_EQ(result.makespan, SimTime::us(92));  // 2 × (30 + 16)
  ASSERT_EQ(result.cycles.size(), 2u);
  EXPECT_EQ(result.cycles[0].end, result.cycles[1].start);
}

TEST(Simulator, SerialBroadcastChargesControl) {
  // With enough processors, the serialized per-processor sends (20 us each
  // under Run 4) push the last processor's constant-test phase past the
  // hardware-broadcast critical path.
  SimConfig hw;
  hw.match_processors = 16;
  hw.costs = CostModel::paper_run(4);
  SimConfig serial = hw;
  serial.costs.hardware_broadcast = false;
  const Trace t = chain_trace();
  const auto a = simulate(t, hw, Assignment::round_robin(4, 16));
  const auto b = simulate(t, serial, Assignment::round_robin(4, 16));
  // 16 serialized 20 us sends (320 us) exceed the ~207.5 us critical path.
  EXPECT_GT(b.makespan, a.makespan);
}

TEST(Simulator, ResolveCostExtendsEveryCycle) {
  SimConfig config;
  config.match_processors = 1;
  config.costs = CostModel::zero_overhead();
  config.costs.resolve_cost = SimTime::us(100);
  const Trace t = trace::make_weaver_section(64, 17);
  const auto with = simulate(t, config, Assignment::round_robin(64, 1));
  EXPECT_EQ(with.makespan,
            baseline_time(t) +
                SimTime::us(100) * static_cast<std::int64_t>(t.cycles.size()));
}

TEST(Simulator, PerProcMetricsCoverAllActivations) {
  const Trace t = trace::make_rubik_section(128, 19);
  SimConfig config;
  config.match_processors = 16;
  config.costs = CostModel::zero_overhead();
  const auto result = simulate(t, config, Assignment::round_robin(128, 16));
  std::uint64_t acts = 0;
  std::uint64_t lefts = 0;
  for (const auto& cycle : result.cycles) {
    for (const auto& proc : cycle.procs) {
      acts += proc.activations;
      lefts += proc.left_activations;
    }
  }
  const auto stats = trace::compute_stats(t);
  EXPECT_EQ(acts, stats.total());
  EXPECT_EQ(lefts, stats.left);
}

TEST(Simulator, NetworkMostlyIdleAtNectarLatency) {
  // Section 5.1: at 0.5 us latency the network was 97-98% idle.
  const Trace t = trace::make_rubik_section(256, 21);
  SimConfig config;
  config.match_processors = 32;
  config.costs = CostModel::paper_run(1);  // 0.5 us latency, no overheads
  const auto result = simulate(t, config, Assignment::round_robin(256, 32));
  EXPECT_LT(result.network_utilization(), 0.05);
  EXPECT_GT(result.messages, 0u);
}

TEST(Simulator, UtilizationFractionsSane) {
  const Trace t = trace::make_weaver_section(64, 23);
  SimConfig config;
  config.match_processors = 8;
  config.costs = CostModel::paper_run(2);
  const auto result = simulate(t, config, Assignment::round_robin(64, 8));
  EXPECT_GT(result.avg_processor_utilization(), 0.0);
  EXPECT_LE(result.avg_processor_utilization(), 1.0);
}

TEST(Assignment, RoundRobinCoversAllProcs) {
  const auto a = Assignment::round_robin(16, 4);
  std::vector<int> counts(4, 0);
  for (std::uint32_t b = 0; b < 16; ++b) ++counts[a.proc_of(0, b)];
  for (int c : counts) EXPECT_EQ(c, 4);
}

TEST(Assignment, RandomIsDeterministicPerSeed) {
  const auto a = Assignment::random(64, 8, 5);
  const auto b = Assignment::random(64, 8, 5);
  const auto c = Assignment::random(64, 8, 6);
  bool same_ab = true;
  bool same_ac = true;
  for (std::uint32_t i = 0; i < 64; ++i) {
    same_ab &= a.proc_of(0, i) == b.proc_of(0, i);
    same_ac &= a.proc_of(0, i) == c.proc_of(0, i);
  }
  EXPECT_TRUE(same_ab);
  EXPECT_FALSE(same_ac);
}

TEST(Assignment, PerCycleMapsSelectedByCycle) {
  const auto a = Assignment::per_cycle({{0u, 1u}, {1u, 0u}}, 2);
  EXPECT_EQ(a.proc_of(0, 0), 0u);
  EXPECT_EQ(a.proc_of(1, 0), 1u);
  EXPECT_EQ(a.proc_of(0, 1), 1u);
}

// Regression: a map entry >= num_procs used to slip through construction
// and index past the processor array inside the simulator (UB).  Both
// factories must reject it up front, naming the cycle, bucket and
// processor.
TEST(Assignment, FixedRejectsOutOfRangeProcessor) {
  try {
    Assignment::fixed({0u, 1u, 7u, 1u}, 2);
    FAIL() << "expected RuntimeError";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bucket 2"), std::string::npos) << what;
    EXPECT_NE(what.find("processor 7"), std::string::npos) << what;
    EXPECT_NE(what.find("2 processors exist"), std::string::npos) << what;
  }
}

TEST(Assignment, PerCycleRejectsOutOfRangeProcessorNamingCycle) {
  try {
    Assignment::per_cycle({{0u, 1u}, {1u, 4u}}, 2);
    FAIL() << "expected RuntimeError";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cycle 1"), std::string::npos) << what;
    EXPECT_NE(what.find("bucket 1"), std::string::npos) << what;
    EXPECT_NE(what.find("processor 4"), std::string::npos) << what;
  }
}

TEST(Assignment, InRangeMapsStillAccepted) {
  const auto fixed = Assignment::fixed({0u, 1u, 0u, 1u}, 2);
  EXPECT_EQ(fixed.proc_of(0, 2), 0u);
  const auto per_cycle = Assignment::per_cycle({{0u, 1u}}, 2);
  EXPECT_EQ(per_cycle.proc_of(5, 1), 1u);
}

/// A single-cycle trace whose second activation names `parent` as its
/// generating activation (the first activation has id 1).
Trace trace_with_parent_ref(std::uint64_t parent) {
  Trace t;
  t.name = "broken";
  t.num_buckets = 4;
  trace::TraceCycle cycle;
  cycle.wme_changes = 1;
  trace::TraceActivation root;
  root.id = ActivationId{1};
  root.parent = ActivationId::invalid();
  root.bucket = 0;
  root.successors = 1;
  trace::TraceActivation child;
  child.id = ActivationId{2};
  child.parent = ActivationId{parent};
  child.side = Side::Left;
  child.bucket = 1;
  cycle.activations.push_back(root);
  cycle.activations.push_back(child);
  t.cycles.push_back(std::move(cycle));
  return t;
}

// Regression: a child naming a parent id absent from its cycle used to
// die with an uncaught std::out_of_range from the index's map lookup.
// Now a RuntimeError names the cycle and both activation ids.
TEST(Simulator, MissingParentRaisesDescriptiveError) {
  const Trace t = trace_with_parent_ref(99);
  SimConfig config;
  config.match_processors = 1;
  config.costs = CostModel::zero_overhead();
  try {
    simulate(t, config, Assignment::round_robin(4, 1));
    FAIL() << "expected RuntimeError";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cycle 0"), std::string::npos) << what;
    EXPECT_NE(what.find("activation 2"), std::string::npos) << what;
    EXPECT_NE(what.find("parent 99"), std::string::npos) << what;
    EXPECT_NE(what.find("does not exist"), std::string::npos) << what;
  }
}

// Regression: a parent declared AFTER its child (or an activation naming
// itself) indexed uninitialized children state.  The trace contract is
// generation order, so this is now a descriptive error too.
TEST(Simulator, ForwardDeclaredParentRaisesDescriptiveError) {
  Trace t = trace_with_parent_ref(2);  // activation 2 names itself
  SimConfig config;
  config.match_processors = 1;
  config.costs = CostModel::zero_overhead();
  try {
    simulate(t, config, Assignment::round_robin(4, 1));
    FAIL() << "expected RuntimeError";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("parents must precede"), std::string::npos) << what;
  }

  // Same for a genuine forward reference: swap so the child precedes its
  // parent in the cycle.
  std::swap(t.cycles[0].activations[0], t.cycles[0].activations[1]);
  t.cycles[0].activations[0].parent = ActivationId{1};
  try {
    simulate(t, config, Assignment::round_robin(4, 1));
    FAIL() << "expected RuntimeError";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cycle 0"), std::string::npos) << what;
    EXPECT_NE(what.find("parents must precede"), std::string::npos) << what;
  }
}

// The deprecated forwarder must agree with the always-recompute form.
TEST(Simulator, BaselineCacheMatchesBaselineTime) {
  const Trace t = chain_trace();
  EXPECT_EQ(BaselineCache::shared().baseline(t), baseline_time(t));
}

TEST(Simulator, SpeedupUsesSharedBaselineCache) {
  const Trace t = trace::make_rubik_section(64, 11);
  SimConfig config;
  config.match_processors = 4;
  config.costs = CostModel::zero_overhead();
  const double direct =
      static_cast<double>(baseline_time(t).nanos()) /
      static_cast<double>(
          simulate(t, config, Assignment::round_robin(64, 4)).makespan.nanos());
  EXPECT_DOUBLE_EQ(speedup(t, config, Assignment::round_robin(64, 4)),
                   direct);
}

}  // namespace
}  // namespace mpps::sim
