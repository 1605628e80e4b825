// Figure 5-4: Weaver speedups before and after unsharing the bottleneck
// node.  Expected shape: substantial improvement at higher processor
// counts (the three 40-successor generation sites split into twelve
// 10-successor sites), at the cost of slightly more total work.
#include <iostream>

#include "bench/bench_util.hpp"
#include "src/common/table.hpp"
#include "src/core/xform.hpp"
#include "src/trace/synth.hpp"

int main(int argc, char** argv) {
  using namespace mpps;
  print_banner(std::cout, "Figure 5-4: Weaver speedups with unsharing");
  const trace::Trace before = trace::make_weaver_section();
  const trace::Trace after =
      core::unshare_node(before, trace::weaver_bottleneck_node());
  const trace::Trace dummies = core::insert_dummy_nodes(
      before, trace::weaver_bottleneck_node(), 4, 8);
  const SimTime base = sim::baseline_time(before);

  TextTable table(
      {"processors", "weaver", "weaver+unshare", "weaver+dummy-nodes"});
  for (std::uint32_t p : bench::sweep_procs()) {
    const auto config = bench::config_for(p, 0);
    table.row()
        .cell(static_cast<long>(p))
        .cell(bench::speedup_vs(base, before, config), 2)
        .cell(bench::speedup_vs(base, after, config), 2)
        .cell(bench::speedup_vs(base, dummies, config), 2);
  }
  bench::emit_table(table, argc, argv, std::cout);
  std::cout << "\nSpeedups are relative to the ORIGINAL section's serial\n"
               "baseline, so the transformed curves account for their own\n"
               "duplicated work.  Dummy nodes (Gupta ch.4) are the paper's\n"
               "second proposed fix for the same bottleneck.\n";
  return 0;
}
