// Wall-clock scaling of the sweep engine itself: runs the Figure 5-2
// scenario grid (sections x processor counts x overhead runs) once on a
// single worker and once on a pool, verifies the outcomes are identical
// (the engine's determinism guarantee), and writes BENCH_sweep.json with
// both timings.  `--jobs N` sets the parallel worker count (default:
// hardware concurrency); `-o file` overrides the output path.
//
// Interpreting the numbers: the speedup is bounded by the machine's core
// count, so the JSON records hardware_concurrency alongside the timings —
// on a single-core container the parallel run degenerates to the serial
// one (plus queue traffic) by design.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"

namespace {

template <typename Body>
double wall_ms(const Body& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mpps;
  std::string out_path = "BENCH_sweep.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "-o") out_path = argv[i + 1];
  }
  unsigned jobs = obs::jobs_arg(argc, argv);
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());

  const auto sections = core::standard_sections();
  const std::vector<std::uint32_t> procs = bench::sweep_procs();
  const std::vector<int> runs = {1, 2, 3, 4};
  std::vector<core::SweepScenario> scenarios;
  for (const auto& section : sections) {
    auto grid = core::overhead_grid(section, procs, runs);
    for (auto& scenario : grid) scenarios.push_back(std::move(scenario));
  }
  std::cout << "sweeping " << scenarios.size() << " scenarios ("
            << sections.size() << " sections x " << procs.size()
            << " processor counts x " << runs.size() << " overhead runs)\n";

  std::vector<core::SweepOutcome> serial;
  std::vector<core::SweepOutcome> parallel;
  const double serial_ms =
      wall_ms([&] { serial = core::run_sweep(scenarios, 1); });
  const double parallel_ms =
      wall_ms([&] { parallel = core::run_sweep(scenarios, jobs); });

  // The determinism guarantee, checked on the full grid.
  for (std::size_t i = 0; i < serial.size(); ++i) {
    if (serial[i].result.makespan != parallel[i].result.makespan ||
        serial[i].speedup != parallel[i].speedup) {
      std::cerr << "MISMATCH at scenario " << serial[i].label
                << ": serial and parallel sweeps disagree\n";
      return 1;
    }
  }

  const double scaling = serial_ms / parallel_ms;
  std::cout << "serial (1 worker):    " << serial_ms << " ms\n"
            << "parallel (" << jobs << " workers): " << parallel_ms
            << " ms\n"
            << "wall-clock speedup:   " << scaling << "x (on "
            << std::thread::hardware_concurrency()
            << " hardware threads)\n";

  std::ofstream file(out_path);
  if (!file) {
    std::cerr << "cannot write '" << out_path << "'\n";
    return 1;
  }
  file << "{\n"
       << "  \"benchmark\": \"sweep_scaling\",\n"
       << "  \"scenarios\": " << scenarios.size() << ",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"jobs\": " << jobs << ",\n"
       << "  \"serial_ms\": " << serial_ms << ",\n"
       << "  \"parallel_ms\": " << parallel_ms << ",\n"
       << "  \"wall_clock_speedup\": " << scaling << ",\n"
       << "  \"outcomes_identical\": true\n"
       << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
