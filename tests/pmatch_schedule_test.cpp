// Tests for the ParallelEngine's schedule-control seam: a controlled
// (cooperative, thread-free) engine driven by an identity controller must
// agree with the serial engine cycle for cycle, the engine validates
// every permutation a controller hands back, a phase failed by a bad
// answer poisons the engine, neither a controlled nor a 1-thread engine
// starts a thread, and the incompatible profiler+schedule combination is
// rejected at construction.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <iterator>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/ops5/parser.hpp"
#include "src/pmatch/engine.hpp"
#include "src/pmatch/schedule.hpp"
#include "src/rete/interp.hpp"
#include "src/obs/profiler.hpp"
#include "tests/pmatch_test_util.hpp"

namespace mpps {
namespace {

using pmatch_test::flatten;
using pmatch_test::load_program;
using pmatch_test::random_program;

/// Keeps every ordering exactly as the engine presents it: each sender's
/// stream in turn, which is also the free-running engine's order.
struct IdentityControl : pmatch::ScheduleControl {
  void order_round(std::uint32_t, std::uint32_t,
                   std::span<const pmatch::ScheduledOp> ops,
                   std::vector<std::uint32_t>& order) override {
    order.resize(ops.size());
    std::iota(order.begin(), order.end(), 0u);
  }
  void order_merge(std::uint32_t, std::span<const pmatch::ScheduledOp> ops,
                   std::vector<std::uint32_t>& order) override {
    order.resize(ops.size());
    std::iota(order.begin(), order.end(), 0u);
  }
};

/// Serial vs controlled-parallel lockstep over a full interpreter run.
void run_controlled_lockstep(const std::string& source, std::uint32_t threads,
                             pmatch::ScheduleControl& control) {
  rete::InterpreterOptions serial_opts;
  serial_opts.max_cycles = 2000;
  rete::Interpreter serial(ops5::parse_program(source), serial_opts);

  pmatch::ParallelOptions popts;
  popts.threads = threads;
  popts.num_buckets = 8;
  popts.schedule = &control;
  rete::InterpreterOptions parallel_opts = serial_opts;
  parallel_opts.engine_factory = pmatch::parallel_engine_factory(popts);
  rete::Interpreter parallel(ops5::parse_program(source), parallel_opts);

  serial.load_initial_wmes();
  parallel.load_initial_wmes();
  bool running = true;
  std::size_t cycle = 0;
  while (running && cycle < serial_opts.max_cycles) {
    ++cycle;
    running = serial.step();
    ASSERT_EQ(running, parallel.step()) << "cycle " << cycle;
    ASSERT_EQ(flatten(serial.engine().conflict_set()),
              flatten(parallel.match_engine().conflict_set()))
        << "conflict sets diverge at cycle " << cycle;
  }
  EXPECT_EQ(serial.halted(), parallel.halted());
}

TEST(PmatchSchedule, ControlledIdentityMatchesSerial) {
  for (const char* program : {"counter.ops", "blocks.ops", "pairings.ops"}) {
    for (std::uint32_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(program) + " threads " +
                   std::to_string(threads));
      IdentityControl control;
      run_controlled_lockstep(load_program(program), threads, control);
    }
  }
}

TEST(PmatchSchedule, ControlledIdentityMatchesSerialOnRandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    IdentityControl control;
    run_controlled_lockstep(random_program(seed), 2, control);
  }
}

/// A program and one fused phase of changes with enough join traffic to
/// reach round 1 (a two-CE production's single join emits conflict
/// deltas directly in round 0, so three CEs are needed for round-ordered
/// work items).
rete::Network join_phase_network() {
  return rete::Network::compile(ops5::parse_program(
      "(p pair (a ^k <x>) (b ^k <x>) (ctx ^tag on) --> (remove 1))\n"));
}

pmatch::ParallelOptions join_phase_options(pmatch::ScheduleControl* control) {
  pmatch::ParallelOptions popts;
  popts.threads = 2;
  popts.num_buckets = 4;
  popts.max_batch = 0;
  popts.schedule = control;
  return popts;
}

std::vector<ops5::WmeChange> join_phase_changes() {
  ops5::WorkingMemory wm;
  wm.add(ops5::Wme(Symbol::intern("ctx"),
                   {{Symbol::intern("tag"), ops5::Value::sym("on")}}));
  for (long k = 1; k <= 3; ++k) {
    wm.add(ops5::Wme(Symbol::intern("a"),
                     {{Symbol::intern("k"), ops5::Value(k)}}));
    wm.add(ops5::Wme(Symbol::intern("b"),
                     {{Symbol::intern("k"), ops5::Value(k)}}));
  }
  return wm.drain_changes();
}

/// Runs the join phase on a controlled engine.
void run_join_phase(pmatch::ScheduleControl& control) {
  const rete::Network net = join_phase_network();
  pmatch::ParallelEngine engine(net, join_phase_options(&control));
  engine.process_changes(join_phase_changes());
}

TEST(PmatchSchedule, TruncatedRoundOrderThrows) {
  struct Truncating final : IdentityControl {
    void order_round(std::uint32_t, std::uint32_t,
                     std::span<const pmatch::ScheduledOp> ops,
                     std::vector<std::uint32_t>& order) override {
      order.assign(ops.empty() ? 0 : ops.size() - 1, 0u);
    }
  } control;
  EXPECT_THROW(run_join_phase(control), RuntimeError);
}

TEST(PmatchSchedule, DuplicateIndexInOrderThrows) {
  struct Duplicating final : IdentityControl {
    void order_round(std::uint32_t, std::uint32_t,
                     std::span<const pmatch::ScheduledOp> ops,
                     std::vector<std::uint32_t>& order) override {
      order.assign(ops.size(), 0u);  // right size, not a permutation
    }
  } control;
  EXPECT_THROW(run_join_phase(control), RuntimeError);
}

TEST(PmatchSchedule, ProfilerPlusScheduleThrowsAtConstruction) {
  const ops5::Program program = ops5::parse_program(
      "(p pair (a ^k <x>) (b ^k <x>) --> (remove 1))\n");
  const rete::Network net = rete::Network::compile(program);
  IdentityControl control;
  obs::Profiler profiler;
  pmatch::ParallelOptions popts;
  popts.threads = 2;
  popts.schedule = &control;
  popts.profiler = &profiler;
  EXPECT_THROW(pmatch::ParallelEngine engine(net, popts), UsageError);
}

TEST(PmatchSchedule, FailedPhasePoisonsTheEngine) {
  // The first order_round answer is not a permutation, so the first phase
  // fails.  The engine must drop that batch and refuse every later call,
  // not re-run the batch on the state the failed phase half-applied.
  struct FailsOnce final : IdentityControl {
    bool failed = false;
    void order_round(std::uint32_t worker, std::uint32_t round,
                     std::span<const pmatch::ScheduledOp> ops,
                     std::vector<std::uint32_t>& order) override {
      IdentityControl::order_round(worker, round, ops, order);
      if (!failed) {
        failed = true;
        order.clear();
      }
    }
  } control;
  const rete::Network net = join_phase_network();
  pmatch::ParallelEngine engine(net, join_phase_options(&control));
  const std::vector<ops5::WmeChange> changes = join_phase_changes();
  EXPECT_THROW(engine.process_changes(changes), RuntimeError);
  ASSERT_TRUE(control.failed);
  EXPECT_THROW(
      {
        engine.begin_batch();
        engine.flush();
      },
      RuntimeError);
  try {
    engine.process_change(changes.front());
    ADD_FAILURE() << "a poisoned engine ran a phase";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("order_round"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(engine.phases(), 0u);
}

/// The threads of this process, as /proc lists them.
std::size_t live_threads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(std::filesystem::begin(tasks), std::filesystem::end(tasks)));
}

TEST(PmatchSchedule, ControlledEngineSpawnsNoThreads) {
  // Under a controller, and at one thread, the calling thread runs every
  // worker's steps: constructing the engine and running a phase must not
  // start a thread.  Without a controller the calling thread runs worker
  // 0, so a 2- and a 4-thread engine start 1 and 3 threads, which shows
  // that the count sees the worker threads an engine does start.
  if (!std::filesystem::is_directory("/proc/self/task")) {
    GTEST_SKIP() << "/proc/self/task is not available";
  }
  const rete::Network net = join_phase_network();
  const std::vector<ops5::WmeChange> changes = join_phase_changes();
  IdentityControl control;
  pmatch::ParallelOptions one_thread = join_phase_options(nullptr);
  one_thread.threads = 1;
  pmatch::ParallelOptions four_threads = join_phase_options(nullptr);
  four_threads.threads = 4;
  const std::pair<pmatch::ParallelOptions, std::size_t> cases[] = {
      {join_phase_options(&control), 0},
      {one_thread, 0},
      {join_phase_options(nullptr), 1},
      {four_threads, 3},
  };
  for (const auto& [popts, spawned] : cases) {
    SCOPED_TRACE(std::to_string(popts.threads) + " threads, " +
                 (popts.schedule != nullptr ? "controlled" : "free"));
    const std::size_t before = live_threads();
    pmatch::ParallelEngine engine(net, popts);
    engine.process_changes(changes);
    EXPECT_EQ(engine.phases(), 1u);
    EXPECT_EQ(live_threads(), before + spawned);
  }
}

}  // namespace
}  // namespace mpps
