// Prints the trace the parallel match engine records for one program:
//
//   pmatch_trace <file.ops> <threads> <max_batch>
//
// It is `mpps trace` with the parallel engine in place of the serial one.
// A symbol's hash follows its intern order, so a test that pins a trace
// runs this in a fresh process, where the program's symbols are the only
// ones interned.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "src/core/pipeline.hpp"
#include "src/pmatch/engine.hpp"
#include "src/trace/io.hpp"

int main(int argc, char** argv) {
  if (argc != 4) {
    std::cerr << "usage: pmatch_trace <file.ops> <threads> <max_batch>\n";
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::cerr << "cannot open " << argv[1] << "\n";
    return 1;
  }
  std::ostringstream source;
  source << in.rdbuf();
  mpps::pmatch::ParallelOptions popts;
  popts.threads = static_cast<std::uint32_t>(std::stoul(argv[2]));
  popts.max_batch = static_cast<std::uint32_t>(std::stoul(argv[3]));
  mpps::core::PipelineOptions options;
  options.interpreter.engine_factory =
      mpps::pmatch::parallel_engine_factory(popts);
  const mpps::core::PipelineResult result =
      mpps::core::record_trace_from_source(source.str(), argv[1], options);
  mpps::trace::write_trace(std::cout, result.trace);
  return 0;
}
