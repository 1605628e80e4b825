// Figure 5-1: speedups for the three characteristic sections with zero
// interconnection-network latency and zero message-processing overhead,
// buckets dealt round-robin.  Expected shape: Rubik has the largest
// overall speedup; Tourney flattens early (cross-product concentration);
// Weaver is limited by its small cycles.
#include <iostream>

#include "bench/bench_util.hpp"
#include "src/common/table.hpp"

int main(int argc, char** argv) {
  using namespace mpps;
  print_banner(std::cout, "Figure 5-1: speedups with zero message-passing overheads");
  const auto sections = core::standard_sections();
  std::vector<SimTime> baselines;
  for (const auto& section : sections) {
    baselines.push_back(sim::baseline_time(section.trace));
  }
  TextTable table({"processors", "Rubik", "Tourney", "Weaver"});
  for (std::uint32_t p : bench::sweep_procs()) {
    table.row().cell(static_cast<long>(p));
    for (std::size_t i = 0; i < sections.size(); ++i) {
      table.cell(bench::speedup_vs(baselines[i], sections[i].trace,
                                   bench::config_for(p, 0)),
                 2);
    }
  }
  bench::emit_table(table, argc, argv, std::cout);
  std::cout << "\nBase case: one match processor, zero communication "
               "overheads (speedup 1.00 by construction).\n";
  return 0;
}
