#include "src/core/pipeline.hpp"

#include "src/ops5/parser.hpp"
#include "src/trace/collector.hpp"

namespace mpps::core {

PipelineResult record_trace(const ops5::Program& program, std::string name,
                            const PipelineOptions& options) {
  rete::Interpreter interp(program, options.interpreter);
  trace::Collector collector(options.interpreter.engine.num_buckets);
  interp.match_engine().set_listener(&collector);
  interp.load_initial_wmes();

  PipelineResult result;
  const std::size_t limit = options.max_trace_cycles == 0
                                ? options.interpreter.max_cycles
                                : options.max_trace_cycles;
  bool running = true;
  while (running && interp.cycle() < limit) {
    collector.begin_cycle();
    running = interp.step();
  }
  result.run.outcome = interp.halted() ? rete::RunResult::Outcome::Halted
                       : running ? rete::RunResult::Outcome::CycleLimit
                                 : rete::RunResult::Outcome::Quiescent;
  result.run.cycles = interp.cycle();
  result.run.firings = interp.firings().size();
  result.firings = interp.firings().size();
  result.trace = collector.take(std::move(name));
  trace::validate(result.trace);
  return result;
}

PipelineResult record_trace_from_source(std::string_view source,
                                        std::string name,
                                        const PipelineOptions& options) {
  return record_trace(ops5::parse_program(source), std::move(name), options);
}

std::vector<SpeedupPoint> speedup_curve(const trace::Trace& trace,
                                        const std::vector<std::uint32_t>& procs,
                                        const std::vector<int>& runs) {
  const SimTime base = sim::baseline_time(trace);
  std::vector<SpeedupPoint> out;
  for (int run : runs) {
    for (std::uint32_t p : procs) {
      sim::SimConfig config;
      config.match_processors = p;
      config.costs = sim::CostModel::paper_run(run);
      SpeedupPoint point;
      point.procs = p;
      point.run = run;
      const SimTime t =
          sim::simulate(trace, config,
                        sim::Assignment::round_robin(trace.num_buckets, p))
              .makespan;
      point.speedup = sim::speedup_ratio(base, t);
      out.push_back(point);
    }
  }
  return out;
}

}  // namespace mpps::core
