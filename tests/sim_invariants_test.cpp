// The metamorphic law checker: real simulations satisfy every law;
// corrupted results are caught and named; checks are counted into the
// metrics registry.
#include "src/sim/invariants.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/sim/refsim.hpp"
#include "src/sim/simulator.hpp"
#include "src/trace/record.hpp"
#include "src/trace/synth.hpp"

namespace mpps::sim {
namespace {

using trace::Trace;

SimConfig merged_config(std::uint32_t procs, int run) {
  SimConfig config;
  config.match_processors = procs;
  config.costs = CostModel::paper_run(run);
  return config;
}

Assignment rr(const Trace& trace, const SimConfig& config) {
  return Assignment::round_robin(trace.num_buckets, config.partitions());
}

TEST(Invariants, RealRunsSatisfyEveryLaw) {
  for (const Trace& trace :
       {trace::make_rubik_section(), trace::make_weaver_section()}) {
    for (const std::uint32_t procs : {1u, 2u, 8u, 32u}) {
      for (int run = 1; run <= 4; ++run) {
        const SimConfig config = merged_config(procs, run);
        const SimResult result = simulate(trace, config, rr(trace, config));
        const InvariantReport report =
            check_run_invariants(trace, config, result);
        EXPECT_TRUE(report.ok())
            << trace.name << " x " << procs << " procs, run " << run << ": "
            << report.summary();
        EXPECT_GT(report.checked, 0u);
      }
    }
  }
}

TEST(Invariants, ZeroOverheadLawsApply) {
  const Trace trace = trace::make_weaver_section();
  SimConfig config;
  config.match_processors = 1;
  config.costs = CostModel::zero_overhead();
  const SimResult one = simulate(trace, config, rr(trace, config));
  InvariantReport report = check_run_invariants(trace, config, one);
  EXPECT_TRUE(report.ok()) << report.summary();
  // serial-sum only fires for one processor at zero overhead; its
  // evaluation shows up in the count (8 shared laws + 3 zero-overhead).
  EXPECT_EQ(report.checked, 11u);

  config.match_processors = 8;
  const SimResult eight = simulate(trace, config, rr(trace, config));
  report = check_run_invariants(trace, config, eight);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.checked, 10u);  // no serial-sum
}

TEST(Invariants, PairMappingSkipsMergedOnlyLaws) {
  const Trace trace = trace::make_weaver_section();
  SimConfig config = merged_config(4, 2);
  config.mapping = MappingMode::ProcessorPairs;
  const SimResult result = simulate(trace, config, rr(trace, config));
  const InvariantReport report = check_run_invariants(trace, config, result);
  EXPECT_TRUE(report.ok()) << report.summary();
  // tiling, span, attribution + the three network-accounting laws; the
  // merged-only conservation laws are skipped.
  EXPECT_EQ(report.checked, 6u);
}

TEST(Invariants, CorruptedResultsAreCaughtByName) {
  const Trace trace = trace::make_weaver_section();
  const SimConfig config = merged_config(4, 2);
  const SimResult clean = simulate(trace, config, rr(trace, config));

  struct Corruption {
    const char* law;
    void (*apply)(SimResult&);
  };
  const Corruption corruptions[] = {
      {"cycle-tiling",
       [](SimResult& r) { r.cycles.back().end += SimTime::us(1); }},
      {"busy-within-span",
       [](SimResult& r) {
         r.cycles[0].procs[0].busy = r.cycles[0].span() + SimTime::us(1);
       }},
      {"activation-attribution",
       [](SimResult& r) { ++r.cycles[0].procs[0].activations; }},
      {"token-conservation", [](SimResult& r) { ++r.messages; }},
      {"busy-conservation",
       [](SimResult& r) { r.cycles[0].procs[1].busy += SimTime::us(1); }},
  };
  for (const Corruption& corruption : corruptions) {
    SimResult bad = clean;
    corruption.apply(bad);
    const InvariantReport report = check_run_invariants(trace, config, bad);
    ASSERT_FALSE(report.ok()) << corruption.law << " not caught";
    bool named = false;
    for (const InvariantViolation& violation : report.violations) {
      if (violation.invariant == corruption.law) named = true;
    }
    EXPECT_TRUE(named) << corruption.law << " missing from: "
                       << report.summary();
  }
}

TEST(Invariants, SerialSumViolationCaught) {
  const Trace trace = trace::make_weaver_section();
  SimConfig config;
  config.match_processors = 1;
  config.costs = CostModel::zero_overhead();
  SimResult result = simulate(trace, config, rr(trace, config));
  result.makespan += SimTime::us(1);
  result.cycles.back().end = result.makespan;
  const InvariantReport report = check_run_invariants(trace, config, result);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("serial-sum"), std::string::npos)
      << report.summary();
}

TEST(Invariants, CrossRunLawsHoldOnTheOverheadGrid) {
  const Trace trace = trace::make_rubik_section();
  std::vector<SimConfig> configs;
  std::vector<SimResult> results;
  for (int run = 1; run <= 4; ++run) {
    for (const std::uint32_t procs : {2u, 8u}) {
      configs.push_back(merged_config(procs, run));
      results.push_back(
          simulate(trace, configs.back(), rr(trace, configs.back())));
    }
  }
  std::vector<ObservedRun> runs;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    runs.push_back({configs[i], &results[i]});
  }
  const InvariantReport report = check_cross_run_invariants(trace, runs);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.checked, 0u);
}

TEST(Invariants, CrossRunEventConservationViolationCaught) {
  const Trace trace = trace::make_weaver_section();
  const SimConfig run1 = merged_config(4, 1);
  const SimConfig run3 = merged_config(4, 3);
  const SimResult result1 = simulate(trace, run1, rr(trace, run1));
  SimResult result3 = simulate(trace, run3, rr(trace, run3));
  ASSERT_EQ(result1.events, result3.events);  // the law itself
  ++result3.events;  // a cost knob that leaked into routing
  const std::vector<ObservedRun> runs = {{run1, &result1}, {run3, &result3}};
  const InvariantReport report = check_cross_run_invariants(trace, runs);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("cross-run-event-conservation"),
            std::string::npos)
      << report.summary();
}

TEST(Invariants, CrossRunMonotonicityViolationCaught) {
  const Trace trace = trace::make_weaver_section();
  const SimConfig cheap = merged_config(4, 1);
  const SimConfig costly = merged_config(4, 4);
  const SimResult cheap_result = simulate(trace, cheap, rr(trace, cheap));
  SimResult costly_result = simulate(trace, costly, rr(trace, costly));
  // Pretend the costly run finished faster than the free one.
  costly_result.makespan = cheap_result.makespan - SimTime::us(1);
  const std::vector<ObservedRun> runs = {{cheap, &cheap_result},
                                         {costly, &costly_result}};
  const InvariantReport report = check_cross_run_invariants(trace, runs);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("overhead-monotonicity"), std::string::npos)
      << report.summary();
}

// A timing anomaly, pinned: on this Weaver section at 32 processors
// (round-robin, flat wire) run 1 finishes before run 0, although the two
// differ only in run 1's 0.5 us wire latency.  The reference simulator
// agrees on both makespans, so both engines implement the same semantics
// and `overhead-monotonicity` is not a theorem of them: `mpps sweep` on
// this trace with `--procs 32 --runs 0,1` fails on a correct result.
// This test pins the case and says nothing about the law's verdict.
TEST(Invariants, WeaverSeed4RunOneFinishesBeforeRunZero) {
  const Trace trace = trace::make_weaver_section(256, 4);
  SimConfig run0 = merged_config(32, 1);
  run0.costs = CostModel::zero_overhead();
  const SimConfig run1 = merged_config(32, 1);
  const Assignment assignment = rr(trace, run0);
  const SimResult result0 = simulate(trace, run0, assignment);
  const SimResult result1 = simulate(trace, run1, assignment);
  EXPECT_EQ(result0.makespan, SimTime::us(1976));
  EXPECT_EQ(result1.makespan, SimTime::us(1948));
  EXPECT_EQ(describe_divergence(result0,
                                ref_simulate(trace, run0, assignment)),
            "");
  EXPECT_EQ(describe_divergence(result1,
                                ref_simulate(trace, run1, assignment)),
            "");
}

TEST(Invariants, ChecksAreCountedIntoTheRegistry) {
  const Trace trace = trace::make_weaver_section();
  const SimConfig config = merged_config(2, 2);
  SimResult result = simulate(trace, config, rr(trace, config));
  obs::Registry metrics;
  const InvariantReport clean =
      check_run_invariants(trace, config, result, &metrics);
  EXPECT_EQ(metrics.counter("sim.invariants.checked").value(), clean.checked);
  EXPECT_EQ(metrics.counter("sim.invariants.violated").value(), 0u);

  ++result.messages;
  check_run_invariants(trace, config, result, &metrics);
  EXPECT_GT(metrics.counter("sim.invariants.violated").value(), 0u);
  EXPECT_GT(metrics
                .counter("sim.invariants.violated",
                         {{"invariant", "token-conservation"}})
                .value(),
            0u);
}

TEST(Invariants, ReportMergeAccumulates) {
  InvariantReport a;
  a.checked = 3;
  a.violations.push_back({"x", "d1"});
  InvariantReport b;
  b.checked = 4;
  b.violations.push_back({"y", "d2"});
  a.merge_from(b);
  EXPECT_EQ(a.checked, 7u);
  ASSERT_EQ(a.violations.size(), 2u);
  EXPECT_EQ(a.summary(), "x: d1\ny: d2");
}

}  // namespace
}  // namespace mpps::sim
