// Shared helpers for the parallel-match differential tests: program
// loading, a normalized conflict-set view, and a seeded random-program
// generator (the match-level analogue of the simulator's selfcheck
// corpus — rules join 2-3 CEs, some negated, and only consume wmes so
// every generated system quiesces).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/profiler.hpp"
#include "src/ops5/parser.hpp"
#include "src/pmatch/engine.hpp"
#include "src/rete/conflict.hpp"
#include "src/rete/interp.hpp"

#ifndef MPPS_PROGRAMS_DIR
#define MPPS_PROGRAMS_DIR "examples/programs"
#endif

namespace mpps::pmatch_test {

inline std::string load_program(const std::string& name) {
  const std::string path = std::string(MPPS_PROGRAMS_DIR) + "/" + name;
  std::ifstream in(path);
  if (!in) {
    ADD_FAILURE() << "cannot open " << path;
    return {};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Order-free view of a conflict set: (production, wme ids), sorted.
using FlatConflictSet =
    std::vector<std::pair<std::uint32_t, std::vector<std::uint64_t>>>;

inline FlatConflictSet flatten(const rete::ConflictSet& cs) {
  FlatConflictSet out;
  for (const rete::Instantiation& inst : cs.all()) {
    std::vector<std::uint64_t> wmes;
    wmes.reserve(inst.token.wmes.size());
    for (WmeId w : inst.token.wmes) wmes.push_back(w.value());
    out.emplace_back(inst.production.value(), std::move(wmes));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// A random consumable production system over classes c0..c2 plus an
/// inert `out` class.  Every rule removes its first matched wme, so WM
/// shrinks monotonically and the run quiesces.
inline std::string random_program(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](std::uint64_t n) {
    return static_cast<long>(rng() % n);
  };
  std::ostringstream src;
  const int rules = 4 + static_cast<int>(pick(4));
  for (int r = 0; r < rules; ++r) {
    src << "(p rule" << r << "\n";
    const int ces = 2 + static_cast<int>(pick(2));
    const bool negate_last = pick(10) < 3;
    for (int c = 0; c < ces; ++c) {
      const bool neg = negate_last && c == ces - 1;
      const long cls = pick(3);
      src << "  " << (neg ? "- " : "") << "(c" << cls << " ^k <x>";
      if (pick(2) == 0) src << " ^v " << pick(3);
      src << ")\n";
    }
    src << "  -->\n  (remove 1)\n";
    if (pick(2) == 0) src << "  (make out ^v <x>)\n";
    src << ")\n";
  }
  const int wmes = 18 + static_cast<int>(pick(12));
  for (int i = 0; i < wmes; ++i) {
    src << "(make c" << pick(3) << " ^k " << pick(5) << " ^v " << pick(3)
        << ")\n";
  }
  return src.str();
}

struct RunOutcome {
  rete::RunResult result;
  std::vector<std::string> firings;
  FlatConflictSet conflict;
  double wall_ms = 0.0;
};

/// Runs `source` to completion on a ParallelEngine of `threads` workers,
/// with `profiler` attached when it is not null, and times the run.
inline RunOutcome run_workload(const std::string& source, std::uint32_t threads,
                        obs::Profiler* profiler) {
  rete::InterpreterOptions options;
  options.max_cycles = 2000;
  pmatch::ParallelOptions popts;
  popts.threads = threads;
  popts.profiler = profiler;
  options.engine_factory = pmatch::parallel_engine_factory(popts);
  rete::Interpreter interp(ops5::parse_program(source), options);
  interp.load_initial_wmes();
  const auto start = std::chrono::steady_clock::now();
  RunOutcome out;
  out.result = interp.run();
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  for (const auto& f : interp.firings()) out.firings.push_back(f.production);
  out.conflict = flatten(interp.match_engine().conflict_set());
  return out;
}

}  // namespace mpps::pmatch_test
