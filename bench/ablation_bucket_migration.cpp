// Section 5.2.2's rejected alternative, quantified.  "A potential solution
// for this distribution problem is dynamic (run-time) load balancing.
// However ... a token cannot be sent to an arbitrary processor, as its
// target hash-bucket is present only on a particular processor.  Also,
// moving hash-buckets around to change the token distribution is too
// costly."
//
// This harness prices exactly that: switch to the per-cycle greedy maps at
// every cycle boundary and pay one token-transfer (send + receive + copy)
// for every resident token of every moved bucket.  The "ideal" column
// (greedy with free migration) is the offline bound the paper reports
// (~x1.4); the "dynamic" column shows what shipping the state eats.
//
// The (section x processors x policy) simulations fan out across worker
// threads (--jobs N); the migration-cost accounting is arithmetic over the
// trace and stays serial.
#include <iostream>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/common/table.hpp"
#include "src/core/distribution.hpp"

int main(int argc, char** argv) {
  using namespace mpps;
  print_banner(std::cout,
               "Dynamic bucket migration: greedy per-cycle maps with REAL "
               "transfer costs (run 4 overheads)");
  const auto sections = core::standard_sections();
  const std::vector<std::uint32_t> procs = {8u, 16u, 32u};

  std::vector<core::SweepScenario> scenarios;
  std::vector<sim::Assignment> greedy_maps;
  greedy_maps.reserve(sections.size() * procs.size());
  for (const auto& section : sections) {
    for (std::uint32_t p : procs) {
      const sim::SimConfig config = bench::config_for(p, 4);
      greedy_maps.push_back(
          core::greedy_assignment(section.trace, p, config.costs));
      core::SweepScenario rr;
      rr.label = section.label + "/p" + std::to_string(p) + "/rr";
      rr.trace = &section.trace;
      rr.config = config;
      rr.assignment =
          sim::Assignment::round_robin(section.trace.num_buckets, p);
      core::SweepScenario greedy;
      greedy.label = section.label + "/p" + std::to_string(p) + "/greedy";
      greedy.trace = &section.trace;
      greedy.config = config;
      greedy.assignment = greedy_maps.back();
      scenarios.push_back(std::move(rr));
      scenarios.push_back(std::move(greedy));
    }
  }
  const auto outcomes =
      core::run_sweep(scenarios, obs::jobs_arg(argc, argv));

  std::size_t index = 0;
  std::size_t greedy_index = 0;
  for (const auto& section : sections) {
    TextTable table({"processors", "static round-robin",
                     "greedy (free migration)", "greedy + migration cost",
                     "migration time (us)"});
    for (std::uint32_t p : procs) {
      const sim::SimConfig config = bench::config_for(p, 4);
      // Transfer one token: sender overhead + wire + receiver overhead +
      // re-insertion into the destination's hash table (a right add).
      const SimTime per_token = config.costs.send_overhead +
                                config.costs.wire_latency +
                                config.costs.recv_overhead +
                                config.costs.right_token;
      const core::SweepOutcome& rr = outcomes[index];
      const core::SweepOutcome& greedy = outcomes[index + 1];
      index += 2;
      const SimTime moving = core::migration_overhead(
          section.trace, greedy_maps[greedy_index++], per_token);
      table.row()
          .cell(static_cast<long>(p))
          .cell(rr.speedup, 2)
          .cell(greedy.speedup, 2)
          .cell(sim::speedup_ratio(rr.baseline,
                                   greedy.result.makespan + moving),
                2)
          .cell(moving.micros(), 0);
    }
    std::cout << "\n" << section.label << ":\n";
    table.print(std::cout);
  }
  std::cout << "\nWhere migration erases the greedy gain, the paper's\n"
               "conclusion holds: \"possibly, better static load\n"
               "distribution by source-level transformation of the\n"
               "production systems may be the only method for improving\n"
               "the performance.\"\n";
  return 0;
}
