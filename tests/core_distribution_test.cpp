#include "src/core/distribution.hpp"

#include <gtest/gtest.h>

#include "src/sim/simulator.hpp"
#include "src/trace/synth.hpp"

namespace mpps::core {
namespace {

using trace::Trace;

TEST(BucketCosts, MatchesCostModel) {
  trace::SectionBuilder b("costs", 8);
  b.begin_cycle(1);
  const auto r = b.root_at(trace::Side::Right, NodeId{1}, 2, 0);
  b.child_at(r, NodeId{2}, 5, 0);
  const Trace t = b.take();
  const auto costs = sim::bucket_costs(t, 0, sim::CostModel{});
  ASSERT_EQ(costs.size(), 8u);
  EXPECT_EQ(costs[2], 32000u);  // right 16 us + one successor 16 us
  EXPECT_EQ(costs[5], 32000u);  // left 32 us
  EXPECT_EQ(costs[0], 0u);
}

TEST(Greedy, ProducesOneMapPerCycle) {
  const Trace t = trace::make_rubik_section(128, 31);
  const auto greedy = greedy_assignment(t, 8, sim::CostModel{});
  // Per-cycle maps: the same bucket may move between cycles.
  bool any_difference = false;
  for (std::uint32_t b = 0; b < 128; ++b) {
    if (greedy.proc_of(0, b) != greedy.proc_of(1, b)) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Greedy, LowersImbalanceVsRoundRobin) {
  const Trace t = trace::make_rubik_section(256, 33);
  const auto rr = sim::Assignment::round_robin(256, 16);
  const auto greedy = greedy_assignment(t, 16, sim::CostModel{});
  for (std::size_t c = 0; c < t.cycles.size(); ++c) {
    EXPECT_LE(load_imbalance(t, c, greedy, sim::CostModel{}),
              load_imbalance(t, c, rr, sim::CostModel{}) + 1e-9)
        << "cycle " << c;
  }
}

TEST(Greedy, ImprovesSimulatedTime) {
  // Section 5.2.2: the greedy distribution improved speedups (paper: ~1.4x
  // on its traces).
  const Trace t = trace::make_rubik_section(256, 1);
  sim::SimConfig config;
  config.match_processors = 32;
  config.costs = sim::CostModel::zero_overhead();
  const auto t_rr =
      simulate(t, config, sim::Assignment::round_robin(256, 32)).makespan;
  const auto t_greedy =
      simulate(t, config, greedy_assignment(t, 32, config.costs)).makespan;
  EXPECT_LT(t_greedy, t_rr);
}

TEST(Greedy, RandomDoesNotBeatGreedy) {
  const Trace t = trace::make_rubik_section(256, 1);
  sim::SimConfig config;
  config.match_processors = 32;
  config.costs = sim::CostModel::zero_overhead();
  const auto t_greedy =
      simulate(t, config, greedy_assignment(t, 32, config.costs)).makespan;
  const auto t_random =
      simulate(t, config, sim::Assignment::random(256, 32, 99)).makespan;
  EXPECT_LE(t_greedy, t_random);
}

TEST(ResidentTokens, TracksPlusAndMinusTags) {
  trace::SectionBuilder b("resident", 4);
  b.begin_cycle(1);
  b.root_at(trace::Side::Right, NodeId{1}, 0, 0);        // + bucket 0
  b.root_at(trace::Side::Right, NodeId{1}, 0, 1);        // + bucket 0
  b.root_at(trace::Side::Left, NodeId{2}, 1, 0);         // + bucket 1
  b.begin_cycle(1);
  b.root_at(trace::Side::Right, NodeId{1}, 0, 0);
  Trace t = b.take();
  t.cycles[1].activations[0].tag = trace::Tag::Minus;  // - bucket 0
  const auto resident = core::resident_tokens_per_cycle(t);
  ASSERT_EQ(resident.size(), 2u);
  EXPECT_EQ(resident[0][0], 2u);
  EXPECT_EQ(resident[0][1], 1u);
  EXPECT_EQ(resident[1][0], 1u);  // one deleted
  EXPECT_EQ(resident[1][1], 1u);
}

TEST(MigrationOverhead, ZeroForStaticAssignment) {
  const Trace t = trace::make_rubik_section(64, 63);
  const auto rr = sim::Assignment::round_robin(64, 8);
  EXPECT_EQ(core::migration_overhead(t, rr, SimTime::us(33)), SimTime::us(0));
}

TEST(MigrationOverhead, ChargesMovedBucketsByResidency) {
  trace::SectionBuilder b("move", 2);
  b.begin_cycle(1);
  b.root_at(trace::Side::Right, NodeId{1}, 0, 0);
  b.root_at(trace::Side::Right, NodeId{1}, 0, 1);
  b.begin_cycle(1);
  b.root_at(trace::Side::Right, NodeId{1}, 1, 0);
  const Trace t = b.take();
  // Bucket 0 (2 resident tokens) moves between cycles; bucket 1 stays.
  const auto moving = sim::Assignment::per_cycle({{0u, 1u}, {1u, 1u}}, 2);
  EXPECT_EQ(core::migration_overhead(t, moving, SimTime::us(10)),
            SimTime::us(20));
}

TEST(CoalesceSmallCycles, SmallCyclesLandOnOneProcessor) {
  const Trace t = trace::make_weaver_section();
  const auto base = sim::Assignment::round_robin(t.num_buckets, 16);
  const auto coalesced = core::coalesce_small_cycles(t, base, 16, 100);
  // Cycles 1-3 have ~89 activations: coalesced.  Cycle 4 has 150: kept.
  for (std::size_t c = 0; c < 3; ++c) {
    const std::uint32_t proc = coalesced.proc_of(c, 0);
    for (std::uint32_t b = 0; b < t.num_buckets; ++b) {
      EXPECT_EQ(coalesced.proc_of(c, b), proc) << "cycle " << c;
    }
  }
  bool any_spread = false;
  for (std::uint32_t b = 1; b < t.num_buckets; ++b) {
    any_spread |= coalesced.proc_of(3, b) != coalesced.proc_of(3, 0);
  }
  EXPECT_TRUE(any_spread);
}

TEST(CoalesceSmallCycles, RotatesAcrossProcessors) {
  const Trace t = trace::make_weaver_section();
  const auto base = sim::Assignment::round_robin(t.num_buckets, 16);
  const auto coalesced = core::coalesce_small_cycles(t, base, 16, 100);
  // Consecutive coalesced cycles use different processors.
  EXPECT_NE(coalesced.proc_of(0, 0), coalesced.proc_of(1, 0));
}

TEST(CoalesceSmallCycles, EliminatesMessagesInSmallCycles) {
  const Trace t = trace::make_weaver_section();
  sim::SimConfig config;
  config.match_processors = 16;
  config.costs = sim::CostModel::paper_run(4);
  config.charge_instantiation_messages = false;
  const auto base = sim::Assignment::round_robin(t.num_buckets, 16);
  const auto result = sim::simulate(
      t, config, core::coalesce_small_cycles(t, base, 16, 100));
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(result.cycles[c].messages, 0u) << "cycle " << c;
  }
}

TEST(CoalesceSmallCycles, WinsUnderExtremeOverheads) {
  // The paper's motivation: useful "especially for systems with high
  // communication overheads" (first-generation MPCs).
  const Trace t = trace::make_weaver_section();
  sim::SimConfig config;
  config.match_processors = 16;
  config.costs.send_overhead = SimTime::us(150);
  config.costs.recv_overhead = SimTime::us(150);
  config.costs.wire_latency = SimTime::us(2000);
  const auto base = sim::Assignment::round_robin(t.num_buckets, 16);
  const auto distributed = sim::simulate(t, config, base).makespan;
  const auto coalesced =
      sim::simulate(t, config, core::coalesce_small_cycles(t, base, 16, 200))
          .makespan;
  EXPECT_LT(coalesced, distributed);
}

TEST(LoadImbalance, PerfectlyEvenIsOne) {
  trace::SectionBuilder b("even", 4);
  b.begin_cycle(1);
  for (std::uint32_t i = 0; i < 4; ++i) {
    b.root_at(trace::Side::Right, NodeId{1}, i, i);
  }
  const Trace t = b.take();
  EXPECT_DOUBLE_EQ(
      load_imbalance(t, 0, sim::Assignment::round_robin(4, 4),
                     sim::CostModel{}),
      1.0);
}

TEST(LoadImbalance, AllOnOneProcIsP) {
  trace::SectionBuilder b("skew", 4);
  b.begin_cycle(1);
  for (std::uint32_t i = 0; i < 4; ++i) {
    b.root_at(trace::Side::Right, NodeId{1}, 0, i);  // all bucket 0
  }
  const Trace t = b.take();
  EXPECT_DOUBLE_EQ(
      load_imbalance(t, 0, sim::Assignment::round_robin(4, 4),
                     sim::CostModel{}),
      4.0);
}

}  // namespace
}  // namespace mpps::core
