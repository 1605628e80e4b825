// Property tests for the offline greedy (LPT) assignment
// (sim::Assignment::greedy), over randomized traces shaped like the ones
// the `mpps selfcheck` generator emits (src/core/selfcheck.cpp draws its
// RandomTraceSpec from the same ranges mirrored here).
//
// Two laws:
//   * Balance: per cycle, the greedy assignment's makespan (the maximum
//     per-processor sum of bucket costs) never exceeds the fixed
//     round-robin or fixed random assignment's makespan.  LPT carries no
//     such worst-case guarantee in general — a 4/3-approximation can in
//     principle lose to a lucky fixed deal — so this is an empirical
//     property pinned over the seeds below; a failure means the greedy
//     implementation regressed, not that scheduling theory broke.
//   * Validity: the result is a total bucket -> processor map for every
//     generated shape — one map per trace cycle, one in-range entry per
//     bucket — and is deterministic in its inputs.
#include "src/sim/assignment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
#include "src/sim/costs.hpp"
#include "src/trace/record.hpp"
#include "src/trace/synth.hpp"

namespace mpps::sim {
namespace {

using trace::Trace;

/// The selfcheck generator's trace-shape distribution (keep in sync with
/// src/core/selfcheck.cpp).
trace::RandomTraceSpec random_spec(Rng& rng) {
  trace::RandomTraceSpec spec;
  spec.cycles = 2 + static_cast<std::uint32_t>(rng.below(4));
  spec.num_buckets = 16u << rng.below(3);
  spec.nodes = 8 + static_cast<std::uint32_t>(rng.below(17));
  spec.roots_per_cycle = 4 + static_cast<std::uint32_t>(rng.below(37));
  spec.right_fraction = 0.3 + 0.6 * rng.uniform();
  spec.fanout = 0.5 + 2.0 * rng.uniform();
  spec.chain_prob = 0.5 * rng.uniform();
  spec.instantiation_prob = 0.1 * rng.uniform();
  spec.key_classes = 8 + static_cast<std::uint32_t>(rng.below(57));
  return spec;
}

constexpr std::uint32_t kProcChoices[] = {1, 2, 3, 4, 8, 16};

/// Scheduling makespan of one cycle under `assignment`: the largest total
/// bucket cost any single processor was handed.
std::uint64_t cycle_makespan(const Trace& trace, std::size_t cycle,
                             const Assignment& assignment,
                             const CostModel& costs) {
  const std::vector<std::uint64_t> weight = bucket_costs(trace, cycle, costs);
  std::vector<std::uint64_t> load(assignment.num_procs(), 0);
  for (std::uint32_t b = 0; b < trace.num_buckets; ++b) {
    load[assignment.proc_of(cycle, b)] += weight[b];
  }
  return *std::max_element(load.begin(), load.end());
}

TEST(GreedyProperty, MakespanNeverExceedsFixedAssignments) {
  const CostModel costs = CostModel::paper_run(2);
  Rng rng(2026);
  for (int round = 0; round < 40; ++round) {
    const Trace trace = trace::make_random_trace(random_spec(rng), rng());
    const std::uint32_t procs = kProcChoices[rng.below(6)];
    const Assignment greedy = Assignment::greedy(trace, procs, costs);
    const Assignment rr = Assignment::round_robin(trace.num_buckets, procs);
    const Assignment rnd =
        Assignment::random(trace.num_buckets, procs, rng());
    for (std::size_t c = 0; c < trace.cycles.size(); ++c) {
      const std::uint64_t g = cycle_makespan(trace, c, greedy, costs);
      EXPECT_LE(g, cycle_makespan(trace, c, rr, costs))
          << "round " << round << " cycle " << c << " @" << procs
          << " procs: greedy lost to round-robin";
      EXPECT_LE(g, cycle_makespan(trace, c, rnd, costs))
          << "round " << round << " cycle " << c << " @" << procs
          << " procs: greedy lost to a random fixed map";
    }
  }
}

TEST(GreedyProperty, ProducesValidTotalMapForEveryShape) {
  const CostModel costs = CostModel::paper_run(3);
  Rng rng(7);
  for (int round = 0; round < 40; ++round) {
    const Trace trace = trace::make_random_trace(random_spec(rng), rng());
    const std::uint32_t procs = kProcChoices[rng.below(6)];
    const Assignment greedy = Assignment::greedy(trace, procs, costs);
    EXPECT_EQ(greedy.num_procs(), procs);
    EXPECT_EQ(greedy.num_buckets(), trace.num_buckets);
    for (std::size_t c = 0; c < trace.cycles.size(); ++c) {
      const std::vector<std::uint32_t>& map = greedy.map_for(c);
      ASSERT_EQ(map.size(), trace.num_buckets);
      for (std::uint32_t b = 0; b < trace.num_buckets; ++b) {
        EXPECT_LT(map[b], procs) << "cycle " << c << " bucket " << b;
        EXPECT_EQ(map[b], greedy.proc_of(c, b));
      }
    }
    // One map per cycle: indexing past the last cycle wraps, it never
    // reads out of bounds.
    EXPECT_EQ(&greedy.map_for(trace.cycles.size()), &greedy.map_for(0));
  }
}

TEST(GreedyProperty, DeterministicInItsInputs) {
  Rng rng(99);
  const Trace trace = trace::make_random_trace(random_spec(rng), 4242);
  const CostModel costs = CostModel::paper_run(4);
  const Assignment a = Assignment::greedy(trace, 8, costs);
  const Assignment b = Assignment::greedy(trace, 8, costs);
  for (std::size_t c = 0; c < trace.cycles.size(); ++c) {
    EXPECT_EQ(a.map_for(c), b.map_for(c)) << "cycle " << c;
  }
}

TEST(GreedyProperty, SingleProcessorMapsEverythingToZero) {
  Rng rng(11);
  const Trace trace = trace::make_random_trace(random_spec(rng), 1);
  const Assignment greedy =
      Assignment::greedy(trace, 1, CostModel::paper_run(1));
  for (std::size_t c = 0; c < trace.cycles.size(); ++c) {
    for (std::uint32_t b = 0; b < trace.num_buckets; ++b) {
      EXPECT_EQ(greedy.proc_of(c, b), 0u);
    }
  }
}

}  // namespace
}  // namespace mpps::sim
