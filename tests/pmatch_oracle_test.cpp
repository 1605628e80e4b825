// The parallel-match differential oracle: a ParallelEngine interpreter
// runs in lockstep with a serial rete::Engine interpreter over the
// example-program corpus and the random consumable corpus, and after
// every MRA cycle the two conflict sets must be identical (as sets),
// the firing sequences equal, and the final working memories equal —
// at 1, 2, 4 and 8 worker threads.  scripts/ci.sh runs this suite under
// TSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/ops5/parser.hpp"
#include "src/pmatch/engine.hpp"
#include "src/rete/interp.hpp"
#include "src/sim/costs.hpp"
#include "src/core/pipeline.hpp"
#include "tests/pmatch_test_util.hpp"

namespace mpps {
namespace {

using pmatch_test::flatten;
using pmatch_test::load_program;
using pmatch_test::random_program;

struct LockstepOptions {
  std::uint32_t threads = 2;
  std::size_t max_cycles = 2000;
  rete::Strategy strategy = rete::Strategy::Lex;
  pmatch::ParallelOptions parallel;  // threads overwritten from `threads`
};

/// Steps a serial and a parallel interpreter over `source` in lockstep,
/// comparing conflict sets after every cycle and firings after the run.
void run_lockstep(const std::string& source, const LockstepOptions& opts) {
  rete::InterpreterOptions serial_opts;
  serial_opts.strategy = opts.strategy;
  serial_opts.max_cycles = opts.max_cycles;
  rete::Interpreter serial(ops5::parse_program(source), serial_opts);

  rete::InterpreterOptions parallel_opts = serial_opts;
  pmatch::ParallelOptions popts = opts.parallel;
  popts.threads = opts.threads;
  parallel_opts.engine_factory = pmatch::parallel_engine_factory(popts);
  rete::Interpreter parallel(ops5::parse_program(source), parallel_opts);

  serial.load_initial_wmes();
  parallel.load_initial_wmes();

  bool serial_running = true;
  bool parallel_running = true;
  std::size_t cycle = 0;
  while (serial_running && cycle < opts.max_cycles) {
    ++cycle;
    serial_running = serial.step();
    parallel_running = parallel.step();
    ASSERT_EQ(serial_running, parallel_running) << "cycle " << cycle;
    ASSERT_EQ(flatten(serial.engine().conflict_set()),
              flatten(parallel.match_engine().conflict_set()))
        << "conflict sets diverge at cycle " << cycle;
    ASSERT_EQ(serial.firings().size(), parallel.firings().size())
        << "cycle " << cycle;
    if (!serial.firings().empty()) {
      const auto& sf = serial.firings().back();
      const auto& pf = parallel.firings().back();
      ASSERT_EQ(sf.production, pf.production) << "cycle " << cycle;
      ASSERT_EQ(sf.wmes, pf.wmes) << "cycle " << cycle;
    }
  }
  EXPECT_EQ(serial.halted(), parallel.halted());
  // Final working memories: firings were identical, so timetags line up.
  auto dump = [](rete::Interpreter& interp) {
    std::vector<std::pair<std::uint64_t, std::string>> out;
    for (const auto* wme : interp.wm().all()) {
      out.emplace_back(wme->id().value(), wme->to_string());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(dump(serial), dump(parallel));
}

// std::string, not const char*, so the test name does not carry a
// per-build pointer (see BatchedOracle in pmatch_batch_test.cpp).
class PmatchOracleExamples
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint32_t>> {
};

TEST_P(PmatchOracleExamples, ConflictSetsMatchSerialEngine) {
  const auto [program, threads] = GetParam();
  LockstepOptions opts;
  opts.threads = threads;
  run_lockstep(load_program(program), opts);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, PmatchOracleExamples,
    ::testing::Combine(::testing::Values("counter.ops", "blocks.ops",
                                         "monkey_bananas.ops", "pairings.ops",
                                         "cube.ops"),
                       ::testing::Values(1u, 2u, 4u, 8u)),
    [](const auto& param_info) {
      std::string name = std::get<0>(param_info.param);
      name = name.substr(0, name.find('.'));
      for (char& c : name) {
        if (c == '_') c = 'X';
      }
      return name + "T" + std::to_string(std::get<1>(param_info.param));
    });

TEST(PmatchOracle, TicTacToeSelfPlay) {
  // The heaviest example: full self-play at 2 and 4 threads.
  for (std::uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    LockstepOptions opts;
    opts.threads = threads;
    run_lockstep(load_program("tictactoe.ops"), opts);
  }
}

TEST(PmatchOracle, MeaStrategyAgrees) {
  LockstepOptions opts;
  opts.threads = 4;
  opts.strategy = rete::Strategy::Mea;
  run_lockstep(load_program("blocks.ops"), opts);
  run_lockstep(load_program("monkey_bananas.ops"), opts);
}

TEST(PmatchOracle, RandomConsumableCorpus) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (std::uint32_t threads : {2u, 4u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                   std::to_string(threads));
      LockstepOptions opts;
      opts.threads = threads;
      run_lockstep(random_program(seed), opts);
    }
  }
}

TEST(PmatchOracle, RandomPartitionAgrees) {
  LockstepOptions opts;
  opts.threads = 4;
  opts.parallel.partition = pmatch::ParallelOptions::Partition::Random;
  opts.parallel.seed = 7;
  run_lockstep(load_program("pairings.ops"), opts);
  run_lockstep(random_program(3), opts);
}

TEST(PmatchOracle, GreedyStaticAssignmentAgrees) {
  // Record a trace, derive the whole-trace LPT partition, and replay the
  // same program live under that partition.
  const std::string source = load_program("blocks.ops");
  const core::PipelineResult piped =
      core::record_trace_from_source(source, "blocks");
  LockstepOptions opts;
  opts.threads = 3;
  opts.parallel.assignment =
      pmatch::greedy_static(piped.trace, 3, sim::CostModel{});
  run_lockstep(source, opts);
}

TEST(PmatchOracle, FewBucketsManyThreads) {
  // More workers than buckets: some workers own nothing and only barrier.
  LockstepOptions opts;
  opts.threads = 8;
  opts.parallel.num_buckets = 4;
  run_lockstep(load_program("counter.ops"), opts);
  run_lockstep(random_program(5), opts);
}

TEST(PmatchOracle, TinyMailboxStillCorrect) {
  // Capacity 1 forces the overflow path on every multi-push round.
  LockstepOptions opts;
  opts.threads = 4;
  opts.parallel.mailbox_capacity = 1;
  run_lockstep(load_program("pairings.ops"), opts);
}

}  // namespace
}  // namespace mpps
