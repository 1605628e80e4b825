// Shared run-loop and reporting helpers for the paper-reproduction bench
// binaries (hoisted out of bench/bench_util.hpp so benches, tools and
// tests share one copy), plus the one-call instrumented-run harness the
// migrated benches use to emit their numbers via the metrics registry.
#pragma once

#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

#include "src/common/simtime.hpp"
#include "src/common/strings.hpp"
#include "src/common/table.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/tracer.hpp"
#include "src/sim/simulator.hpp"
#include "src/trace/record.hpp"

namespace mpps::obs {

/// Processor counts for the figure sweeps — finer than powers of two so
/// the paper's speedup "dips" (decreases with more processors) are
/// visible.
inline std::vector<std::uint32_t> sweep_procs() {
  return {1, 2, 4, 6, 8, 12, 16, 20, 24, 28, 32, 48, 64};
}

/// Speedup of `variant_trace` under `config`, measured against `baseline`,
/// the serial zero-overhead time of the section the variant came from
/// (transformed traces are compared against the ORIGINAL section's
/// baseline, since they perform the same semantic work plus
/// duplication).  A caller sweeping many configs computes `baseline` once
/// with `sim::baseline_time`.
inline double speedup_vs(SimTime baseline, const trace::Trace& variant_trace,
                         const sim::SimConfig& config) {
  return sim::speedup_ratio(
      baseline,
      sim::simulate(variant_trace, config,
                    sim::Assignment::round_robin(variant_trace.num_buckets,
                                                 config.match_processors))
          .makespan);
}

/// The `--jobs N` worker count passed to a bench binary; 0 (auto) when
/// the flag is absent or malformed.
inline unsigned jobs_arg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--jobs") {
      long v = 0;
      if (parse_int(argv[i + 1], v) && v > 0) {
        return static_cast<unsigned>(v);
      }
    }
  }
  return 0;
}

/// Prints a table as CSV when `--csv` was passed on the command line,
/// as a boxed ASCII table otherwise (for plotting vs reading).
inline void emit_table(const TextTable& table, int argc, char** argv,
                       std::ostream& os) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--csv") {
      table.print_csv(os);
      return;
    }
  }
  table.print(os);
}

inline sim::SimConfig config_for(std::uint32_t procs, int run) {
  sim::SimConfig config;
  config.match_processors = procs;
  config.costs = sim::CostModel::paper_run(run);
  return config;
}

/// A simulation with the observability layer attached: the returned
/// registry and tracer hold the run's metrics and timeline.
struct InstrumentedRun {
  sim::SimResult result;
  Registry registry;
  Tracer tracer;
};

inline InstrumentedRun run_instrumented(const trace::Trace& trace,
                                        sim::SimConfig config,
                                        const sim::Assignment& assignment) {
  InstrumentedRun run;
  config.metrics = &run.registry;
  config.tracer = &run.tracer;
  run.result = sim::simulate(trace, config, assignment);
  return run;
}

inline InstrumentedRun run_instrumented(const trace::Trace& trace,
                                        sim::SimConfig config) {
  return run_instrumented(
      trace, config,
      sim::Assignment::round_robin(trace.num_buckets,
                                   config.partitions()));
}

}  // namespace mpps::obs
