// End-to-end pipeline: answers "how would MY rule program behave on a
// message-passing machine?" — compile an OPS5 program, run it under the
// tracing Rete engine, then replay the recorded hash-table activity on the
// simulated MPC at several machine configurations (the paper's method
// applied to a user program).
#include <iostream>

#include "src/common/strings.hpp"
#include "src/common/table.hpp"
#include "src/core/distribution.hpp"
#include "src/core/pipeline.hpp"

int main() {
  using namespace mpps;

  // A small assembly-line system: stations pass widgets through stages.
  // Multiple widgets in flight give the match phase real parallelism.
  std::string source = R"(
    (p start-widget
      (widget ^stage raw)
      (station ^kind cutter ^state idle)
      -->
      (modify 1 ^stage cut)
      (modify 2 ^state idle))
    (p polish-widget
      (widget ^stage cut)
      (station ^kind polisher ^state idle)
      -->
      (modify 1 ^stage polished)
      (modify 2 ^state idle))
    (p pack-widget
      (widget ^stage polished)
      (station ^kind packer ^state idle)
      -->
      (modify 1 ^stage packed)
      (modify 2 ^state idle))
    (p all-packed
      (widget ^stage packed)
      -(widget ^stage raw)
      -(widget ^stage cut)
      -(widget ^stage polished)
      -->
      (write all widgets packed (crlf))
      (halt)))";
  source += "(make station ^kind cutter ^state idle)\n";
  source += "(make station ^kind polisher ^state idle)\n";
  source += "(make station ^kind packer ^state idle)\n";
  for (int i = 0; i < 12; ++i) {
    source += "(make widget ^id w" + std::to_string(i) + " ^stage raw)\n";
  }

  std::cout << "Recording the match-phase trace of the assembly program...\n";
  const core::PipelineResult piped =
      core::record_trace_from_source(source, "assembly");
  const trace::TraceStats stats = trace::compute_stats(piped.trace);
  std::cout << "  cycles: " << piped.trace.cycles.size()
            << ", firings: " << piped.firings
            << ", activations: " << stats.total() << " (" << stats.left
            << " left / " << stats.right << " right)\n\n";

  std::cout << "Replaying the trace on the simulated message-passing "
               "machine:\n";
  TextTable table({"processors", "zero overhead", "run 2 (8 us)",
                   "run 4 (32 us)", "greedy + run 4"});
  for (std::uint32_t p : {1u, 2u, 4u, 8u, 16u}) {
    table.row().cell(static_cast<long>(p));
    for (int run : {0, 2, 4}) {
      sim::SimConfig config;
      config.match_processors = p;
      config.costs = sim::CostModel::paper_run(run);
      table.cell(sim::speedup(piped.trace, config,
                              sim::Assignment::round_robin(
                                  piped.trace.num_buckets, p)),
                 2);
    }
    sim::SimConfig config;
    config.match_processors = p;
    config.costs = sim::CostModel::paper_run(4);
    table.cell(sim::speedup(piped.trace, config,
                            core::greedy_assignment(piped.trace, p,
                                                    config.costs)),
               2);
  }
  table.print(std::cout);

  sim::SimConfig config;
  config.match_processors = 8;
  config.costs = sim::CostModel::paper_run(2);
  const auto result =
      sim::simulate(piped.trace, config,
                    sim::Assignment::round_robin(piped.trace.num_buckets, 8));
  std::cout << "\nAt 8 processors, run 2: " << result.messages
            << " messages, " << result.local_deliveries
            << " local deliveries, network "
            << mpps::format_fixed(100.0 * (1.0 - result.network_utilization()),
                                  1)
            << "% idle.\n";
  return 0;
}
