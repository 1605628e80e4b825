// The sweep engine's contract: outcomes equal the serial simulations, the
// merged observability sinks equal serial accumulation, and everything is
// bit-identical for every --jobs value (the determinism guarantee the CLI
// and benches rely on).  These tests are also the TSan workload in
// scripts/ci.sh.
#include "src/core/sweep.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/core/experiments.hpp"
#include "src/trace/synth.hpp"

namespace mpps::core {
namespace {

using trace::Trace;

/// A small (traces x processors x overhead-runs) grid: 12 scenarios over
/// two structurally different sections.
std::vector<SweepScenario> small_grid(const Trace& rubik,
                                      const Trace& weaver) {
  std::vector<SweepScenario> scenarios;
  for (const Trace* t : {&rubik, &weaver}) {
    for (std::uint32_t p : {1u, 2u, 4u}) {
      for (int run : {0, 2}) {
        SweepScenario scenario;
        scenario.label = t->name + "/p" + std::to_string(p) + "/r" +
                         std::to_string(run);
        scenario.trace = t;
        scenario.config.match_processors = p;
        scenario.config.costs = run == 0 ? sim::CostModel::zero_overhead()
                                         : sim::CostModel::paper_run(run);
        scenario.assignment =
            sim::Assignment::round_robin(t->num_buckets, p);
        scenarios.push_back(std::move(scenario));
      }
    }
  }
  return scenarios;
}

/// Every observable field of an outcome list, as one string — the
/// determinism tests compare these byte-for-byte.
std::string serialize(const std::vector<SweepOutcome>& outcomes) {
  std::ostringstream os;
  for (const SweepOutcome& o : outcomes) {
    os << o.label << ' ' << o.result.makespan.nanos() << ' '
       << o.result.messages << ' ' << o.result.local_deliveries << ' '
       << o.result.network_busy.nanos() << ' '
       << o.result.termination_overhead.nanos() << ' '
       << o.result.cycles.size() << ' ' << o.baseline.nanos() << ' '
       << o.speedup << '\n';
    for (const sim::CycleMetrics& c : o.result.cycles) {
      os << "  " << c.start.nanos() << ' ' << c.end.nanos() << ' '
         << c.messages;
      for (const sim::ProcCycleMetrics& p : c.procs) {
        os << " (" << p.busy.nanos() << ',' << p.activations << ','
           << p.left_activations << ')';
      }
      os << '\n';
    }
  }
  return os.str();
}

TEST(SweepRunner, OutcomesMatchSerialSimulate) {
  const Trace rubik = trace::make_rubik_section(32, 7);
  const Trace weaver = trace::make_weaver_section(32, 7);
  const auto scenarios = small_grid(rubik, weaver);
  const auto outcomes = run_sweep(scenarios, 3);
  ASSERT_EQ(outcomes.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const sim::SimResult direct = sim::simulate(
        *scenarios[i].trace, scenarios[i].config, scenarios[i].assignment);
    EXPECT_EQ(outcomes[i].label, scenarios[i].label);
    EXPECT_EQ(outcomes[i].result.makespan, direct.makespan) << i;
    EXPECT_EQ(outcomes[i].result.messages, direct.messages) << i;
    EXPECT_EQ(outcomes[i].baseline,
              sim::baseline_time(*scenarios[i].trace))
        << i;
    EXPECT_DOUBLE_EQ(outcomes[i].speedup,
                     static_cast<double>(outcomes[i].baseline.nanos()) /
                         static_cast<double>(direct.makespan.nanos()))
        << i;
  }
}

TEST(SweepRunner, BitIdenticalAcrossJobCounts) {
  const Trace rubik = trace::make_rubik_section(32, 3);
  const Trace weaver = trace::make_weaver_section(32, 3);
  auto scenarios = small_grid(rubik, weaver);
  // Half the grid again, measured against the other trace's baseline, so
  // one call resolves each trace as its own and as another's baseline.
  const auto grid = small_grid(rubik, weaver);
  for (std::size_t i = 0; i < grid.size(); i += 2) {
    SweepScenario scenario = grid[i];
    scenario.label += "/vs-other";
    scenario.baseline = scenario.trace == &rubik ? &weaver : &rubik;
    scenarios.push_back(std::move(scenario));
  }

  std::string serialized[3];
  std::string metrics_csv[3];
  std::string trace_json[3];
  const unsigned job_counts[3] = {1, 4, 9};
  for (int i = 0; i < 3; ++i) {
    obs::Registry registry;
    obs::Tracer tracer;
    SweepOptions options;
    options.jobs = job_counts[i];
    options.metrics = &registry;
    options.tracer = &tracer;
    const auto outcomes = SweepRunner(options).run(scenarios);
    serialized[i] = serialize(outcomes);
    std::ostringstream csv;
    registry.write_csv(csv);
    metrics_csv[i] = csv.str();
    std::ostringstream json;
    tracer.write_chrome_json(json);
    trace_json[i] = json.str();
  }
  EXPECT_FALSE(serialized[0].empty());
  EXPECT_FALSE(metrics_csv[0].empty());
  EXPECT_EQ(serialized[0], serialized[1]);
  EXPECT_EQ(serialized[0], serialized[2]);
  EXPECT_EQ(metrics_csv[0], metrics_csv[1]);
  EXPECT_EQ(metrics_csv[0], metrics_csv[2]);
  EXPECT_EQ(trace_json[0], trace_json[1]);
  EXPECT_EQ(trace_json[0], trace_json[2]);
}

TEST(SweepRunner, MergedRegistryEqualsSerialAccumulation) {
  const Trace rubik = trace::make_rubik_section(32, 5);
  const Trace weaver = trace::make_weaver_section(32, 5);
  const auto scenarios = small_grid(rubik, weaver);

  // Serial accumulation: every scenario records directly into one shared
  // registry, in order.
  obs::Registry serial;
  for (const SweepScenario& scenario : scenarios) {
    sim::SimConfig config = scenario.config;
    config.metrics = &serial;
    sim::simulate(*scenario.trace, config, scenario.assignment);
  }
  std::ostringstream serial_csv;
  serial.write_csv(serial_csv);

  obs::Registry merged;
  SweepOptions options;
  options.jobs = 4;
  options.metrics = &merged;
  SweepRunner(options).run(scenarios);
  std::ostringstream merged_csv;
  merged.write_csv(merged_csv);

  EXPECT_FALSE(serial_csv.str().empty());
  EXPECT_EQ(serial_csv.str(), merged_csv.str());
}

TEST(SweepRunner, CrossRunLawsCountedInMergedMetrics) {
  // small_grid replays each (trace, procs) machine shape under two cost
  // models with one shared round-robin assignment, so the invariant pass
  // groups them and the cross-run laws — including event conservation —
  // must fire and be accounted in the merged registry, bit-identically
  // for every jobs value.
  const Trace rubik = trace::make_rubik_section(32, 11);
  const Trace weaver = trace::make_weaver_section(32, 11);
  const auto scenarios = small_grid(rubik, weaver);

  std::string csv[2];
  const unsigned job_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    obs::Registry registry;
    SweepOptions options;
    options.jobs = job_counts[i];
    options.metrics = &registry;
    options.check_invariants = true;
    const auto outcomes = SweepRunner(options).run(scenarios);
    ASSERT_EQ(outcomes.size(), scenarios.size());
    EXPECT_GT(
        registry
            .counter("sim.invariants.checked",
                     {{"invariant", "cross-run-event-conservation"}})
            .value(),
        0u);
    EXPECT_GT(registry
                  .counter("sim.invariants.checked",
                           {{"invariant", "overhead-monotonicity"}})
                  .value(),
              0u);
    std::ostringstream os;
    registry.write_csv(os);
    csv[i] = os.str();
  }
  EXPECT_FALSE(csv[0].empty());
  EXPECT_EQ(csv[0], csv[1]);
}

TEST(SweepRunner, LowestIndexedFailureWins) {
  const Trace rubik = trace::make_rubik_section(32, 2);
  std::vector<SweepScenario> scenarios;
  for (std::uint32_t procs : {2u, 4u}) {
    SweepScenario good;
    good.label = "good/p" + std::to_string(procs);
    good.trace = &rubik;
    good.config.match_processors = procs;
    good.assignment = sim::Assignment::round_robin(rubik.num_buckets, procs);
    scenarios.push_back(std::move(good));
  }
  // Two failing scenarios with DISTINGUISHABLE errors: the assignment
  // partition counts (3 and 5) both disagree with the config.
  for (std::uint32_t wrong : {3u, 5u}) {
    SweepScenario bad;
    bad.label = "bad/" + std::to_string(wrong);
    bad.trace = &rubik;
    bad.config.match_processors = 8;
    bad.assignment = sim::Assignment::round_robin(rubik.num_buckets, wrong);
    scenarios.push_back(std::move(bad));
  }
  for (unsigned jobs : {1u, 4u}) {
    try {
      run_sweep(scenarios, jobs);
      FAIL() << "expected RuntimeError (jobs " << jobs << ")";
    } catch (const RuntimeError& e) {
      // Index 2 (the 3-partition assignment) is the lowest failure for
      // every jobs value.
      EXPECT_NE(std::string(e.what()).find("targets 3"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SweepRunner, RejectsScenarioWithoutTrace) {
  std::vector<SweepScenario> scenarios(1);
  scenarios[0].label = "empty";
  try {
    run_sweep(scenarios, 2);
    FAIL() << "expected RuntimeError";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("'empty'"), std::string::npos)
        << e.what();
  }
}

TEST(SweepRunner, ExplicitBaselineTraceSetsDenominator) {
  const Trace rubik = trace::make_rubik_section(32, 4);
  const Trace weaver = trace::make_weaver_section(32, 4);
  SweepScenario scenario;
  scenario.label = "weaver-vs-rubik-baseline";
  scenario.trace = &weaver;
  scenario.baseline = &rubik;
  scenario.config.match_processors = 2;
  scenario.assignment = sim::Assignment::round_robin(weaver.num_buckets, 2);
  const auto outcomes = run_sweep({scenario}, 1);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].baseline, sim::baseline_time(rubik));
}

TEST(SweepRunner, BaselineFollowsATraceEditedBetweenRuns) {
  // No baseline outlives its run call: a trace edited in place between
  // two calls (same address, new content) gets its new baseline.
  Trace t = trace::make_weaver_section(32, 3);
  std::vector<SweepScenario> scenarios(1);
  scenarios[0].label = "edited";
  scenarios[0].trace = &t;
  scenarios[0].config.match_processors = 2;
  scenarios[0].assignment = sim::Assignment::round_robin(t.num_buckets, 2);
  const SimTime before = run_sweep(scenarios, 1)[0].baseline;
  EXPECT_EQ(before, sim::baseline_time(t));

  const std::vector<trace::TraceCycle> cycles = t.cycles;
  t.cycles.insert(t.cycles.end(), cycles.begin(), cycles.end());
  const SweepOutcome after = run_sweep(scenarios, 2)[0];
  EXPECT_EQ(after.baseline, sim::baseline_time(t));
  EXPECT_NE(after.baseline, before);
  EXPECT_DOUBLE_EQ(after.speedup,
                   sim::speedup_ratio(after.baseline, after.result.makespan));
}

TEST(SweepRunner, ResolvesJobCount) {
  SweepOptions four;
  four.jobs = 4;
  EXPECT_EQ(SweepRunner(four).jobs(), 4u);
  EXPECT_GE(SweepRunner(SweepOptions{}).jobs(), 1u);
}

TEST(Experiments, OverheadGridOrderAndLabels) {
  const Section section{"Toy", trace::make_rubik_section(32, 6)};
  const auto grid = overhead_grid(section, {2u, 4u}, {0, 1});
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0].label, "Toy/p2/r0");
  EXPECT_EQ(grid[1].label, "Toy/p2/r1");
  EXPECT_EQ(grid[2].label, "Toy/p4/r0");
  EXPECT_EQ(grid[3].label, "Toy/p4/r1");
  EXPECT_EQ(grid[3].config.match_processors, 4u);
  for (const auto& scenario : grid) EXPECT_EQ(scenario.trace, &section.trace);
}

TEST(Experiments, OverheadSweepCoversSectionsInOrder) {
  const std::vector<Section> sections = {
      {"A", trace::make_rubik_section(32, 8)},
      {"B", trace::make_weaver_section(32, 8)}};
  const auto outcomes = overhead_sweep(sections, {1u, 2u}, {0}, 2);
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(outcomes[0].label, "A/p1/r0");
  EXPECT_EQ(outcomes[3].label, "B/p2/r0");
  // p=1 at zero overhead IS the baseline machine: speedup exactly 1.
  EXPECT_DOUBLE_EQ(outcomes[0].speedup, 1.0);
  EXPECT_DOUBLE_EQ(outcomes[2].speedup, 1.0);
}

}  // namespace
}  // namespace mpps::core
