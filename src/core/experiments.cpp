#include "src/core/experiments.hpp"

#include <iterator>

#include "src/trace/synth.hpp"

namespace mpps::core {

std::vector<Section> standard_sections(std::uint32_t num_buckets,
                                       std::uint64_t seed) {
  std::vector<Section> out;
  out.push_back({"Rubik", trace::make_rubik_section(num_buckets, seed)});
  out.push_back({"Tourney", trace::make_tourney_section(num_buckets, seed)});
  out.push_back({"Weaver", trace::make_weaver_section(num_buckets, seed)});
  return out;
}

std::vector<std::uint32_t> standard_proc_counts() {
  return {1, 2, 4, 8, 16, 32, 64};
}

double zero_overhead_speedup(const trace::Trace& trace, std::uint32_t procs) {
  sim::SimConfig config;
  config.match_processors = procs;
  config.costs = sim::CostModel::zero_overhead();
  return sim::speedup(trace, config,
                      sim::Assignment::round_robin(trace.num_buckets, procs));
}

double run_speedup(const trace::Trace& trace, int run, std::uint32_t procs) {
  sim::SimConfig config;
  config.match_processors = procs;
  config.costs = sim::CostModel::paper_run(run);
  return sim::speedup(trace, config,
                      sim::Assignment::round_robin(trace.num_buckets, procs));
}

std::vector<SweepScenario> overhead_grid(
    const Section& section, const std::vector<std::uint32_t>& procs,
    const std::vector<int>& runs) {
  std::vector<SweepScenario> grid;
  grid.reserve(procs.size() * runs.size());
  for (std::uint32_t p : procs) {
    for (int run : runs) {
      SweepScenario scenario;
      scenario.label = section.label + "/p" + std::to_string(p) + "/r" +
                       std::to_string(run);
      scenario.trace = &section.trace;
      scenario.config.match_processors = p;
      scenario.config.costs = sim::CostModel::paper_run(run);
      scenario.assignment =
          sim::Assignment::round_robin(section.trace.num_buckets, p);
      grid.push_back(std::move(scenario));
    }
  }
  return grid;
}

std::vector<SweepOutcome> overhead_sweep(const std::vector<Section>& sections,
                                         const std::vector<std::uint32_t>& procs,
                                         const std::vector<int>& runs,
                                         unsigned jobs) {
  std::vector<SweepScenario> scenarios;
  for (const Section& section : sections) {
    auto grid = overhead_grid(section, procs, runs);
    scenarios.insert(scenarios.end(), std::make_move_iterator(grid.begin()),
                     std::make_move_iterator(grid.end()));
  }
  return run_sweep(scenarios, jobs);
}

}  // namespace mpps::core
