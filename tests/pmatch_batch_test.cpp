// Round-batched BSP matching: the oracle and API tests for
// `ParallelOptions::max_batch` and the explicit `begin_batch()`/`flush()`
// transaction.  The core claim is set-equality: a batched phase fuses
// several WM changes but must leave the engine with exactly the conflict
// set the serial engine reaches after processing the same changes one at
// a time — at every thread count, for every batch size, including fused
// add+delete pairs whose transient sub-instantiations short-circuit.
// scripts/ci.sh runs this suite under TSan (it is part of pmatch_tests).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/ops5/parser.hpp"
#include "src/ops5/wme.hpp"
#include "src/pmatch/engine.hpp"
#include "src/rete/engine.hpp"
#include "src/rete/interp.hpp"
#include "src/rete/network.hpp"
#include "tests/pmatch_test_util.hpp"

namespace mpps {
namespace {

using pmatch_test::FlatConflictSet;
using pmatch_test::flatten;
using pmatch_test::load_program;
using pmatch_test::random_program;

// --- Lockstep oracle under batching ---------------------------------------
// Mirrors pmatch_oracle_test's harness: a batched parallel interpreter in
// lockstep with the serial engine, conflict sets compared every cycle.
// The interpreter feeds each act's drained changes via process_changes,
// so max_batch > 1 genuinely fuses phases here.

void run_lockstep(const std::string& source, std::uint32_t threads,
                  std::uint32_t max_batch,
                  rete::Strategy strategy = rete::Strategy::Lex) {
  rete::InterpreterOptions serial_opts;
  serial_opts.strategy = strategy;
  serial_opts.max_cycles = 2000;
  rete::Interpreter serial(ops5::parse_program(source), serial_opts);

  rete::InterpreterOptions parallel_opts = serial_opts;
  pmatch::ParallelOptions popts;
  popts.threads = threads;
  popts.max_batch = max_batch;
  parallel_opts.engine_factory = pmatch::parallel_engine_factory(popts);
  rete::Interpreter parallel(ops5::parse_program(source), parallel_opts);

  serial.load_initial_wmes();
  parallel.load_initial_wmes();

  bool serial_running = true;
  std::size_t cycle = 0;
  while (serial_running && cycle < serial_opts.max_cycles) {
    ++cycle;
    serial_running = serial.step();
    const bool parallel_running = parallel.step();
    ASSERT_EQ(serial_running, parallel_running) << "cycle " << cycle;
    ASSERT_EQ(flatten(serial.engine().conflict_set()),
              flatten(parallel.match_engine().conflict_set()))
        << "conflict sets diverge at cycle " << cycle;
    if (!serial.firings().empty() && !parallel.firings().empty()) {
      ASSERT_EQ(serial.firings().back().production,
                parallel.firings().back().production)
          << "cycle " << cycle;
      ASSERT_EQ(serial.firings().back().wmes, parallel.firings().back().wmes)
          << "cycle " << cycle;
    }
  }
  EXPECT_EQ(serial.halted(), parallel.halted());
}

// The program name is a std::string, not a const char*: gtest prints a
// char pointer inside a tuple as its address, and that address would land
// in the ctest test name and change with every build (ASLR).
class BatchedOracle
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::uint32_t, std::uint32_t>> {};

TEST_P(BatchedOracle, ConflictSetsMatchSerialEngine) {
  const auto [program, threads, batch] = GetParam();
  run_lockstep(load_program(program), threads, batch);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, BatchedOracle,
    ::testing::Combine(::testing::Values("counter.ops", "blocks.ops",
                                         "pairings.ops"),
                       ::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(4u, 64u)),
    [](const auto& param_info) {
      std::string name = std::get<0>(param_info.param);
      name = name.substr(0, name.find('.'));
      return name + "T" + std::to_string(std::get<1>(param_info.param)) +
             "B" + std::to_string(std::get<2>(param_info.param));
    });

TEST(BatchedOracleExtra, UnboundedBatchAgrees) {
  // max_batch == 0: each act's whole change set is one fused phase.
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    run_lockstep(load_program("monkey_bananas.ops"), threads, 0);
    run_lockstep(load_program("blocks.ops"), threads, 0);
  }
}

TEST(BatchedOracleExtra, RandomConsumableCorpus) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const std::uint32_t threads : {2u, 4u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                   std::to_string(threads));
      run_lockstep(random_program(seed), threads, 64);
    }
  }
}

TEST(BatchedOracleExtra, MeaStrategyAgrees) {
  run_lockstep(load_program("blocks.ops"), 4, 16, rete::Strategy::Mea);
}

// --- Direct engine API -----------------------------------------------------

constexpr const char* kJoinSource =
    "(p pair (left ^k <x>) (right ^k <x>) --> (halt))\n";

std::vector<ops5::WmeChange> make_adds(ops5::WorkingMemory& wm, int pairs) {
  for (int i = 0; i < pairs; ++i) {
    wm.add(ops5::parse_wme("(left ^k " + std::to_string(i % 3) + ")"));
    wm.add(ops5::parse_wme("(right ^k " + std::to_string(i % 3) + ")"));
  }
  return wm.drain_changes();
}

TEST(BatchApi, ProcessChangesChunksByMaxBatch) {
  const rete::Network net =
      rete::Network::compile(ops5::parse_program(kJoinSource));
  pmatch::ParallelOptions popts;
  popts.threads = 2;
  popts.max_batch = 4;
  pmatch::ParallelEngine engine(net, popts);
  ops5::WorkingMemory wm;
  const std::vector<ops5::WmeChange> changes = make_adds(wm, 5);  // 10 changes
  engine.process_changes(changes);
  EXPECT_EQ(engine.changes(), 10u);
  EXPECT_EQ(engine.phases(), 3u);  // 4 + 4 + 2
}

TEST(BatchApi, UnboundedBatchRunsOnePhase) {
  const rete::Network net =
      rete::Network::compile(ops5::parse_program(kJoinSource));
  pmatch::ParallelOptions popts;
  popts.threads = 2;
  popts.max_batch = 0;
  pmatch::ParallelEngine engine(net, popts);
  ops5::WorkingMemory wm;
  engine.process_changes(make_adds(wm, 5));
  EXPECT_EQ(engine.changes(), 10u);
  EXPECT_EQ(engine.phases(), 1u);
}

TEST(BatchApi, DefaultIsOnePhasePerChange) {
  const rete::Network net =
      rete::Network::compile(ops5::parse_program(kJoinSource));
  pmatch::ParallelOptions popts;
  popts.threads = 2;
  pmatch::ParallelEngine engine(net, popts);
  ops5::WorkingMemory wm;
  engine.process_changes(make_adds(wm, 5));
  EXPECT_EQ(engine.changes(), 10u);
  EXPECT_EQ(engine.phases(), 10u);
}

TEST(BatchApi, BeginBatchDefersUntilFlush) {
  const rete::Network net =
      rete::Network::compile(ops5::parse_program(kJoinSource));
  pmatch::ParallelOptions popts;
  popts.threads = 2;
  pmatch::ParallelEngine engine(net, popts);
  ops5::WorkingMemory wm;
  const std::vector<ops5::WmeChange> changes = make_adds(wm, 4);

  engine.begin_batch();
  EXPECT_TRUE(engine.batching());
  for (const ops5::WmeChange& change : changes) engine.process_change(change);
  // Nothing ran yet: no phase, no conflict-set entries.
  EXPECT_EQ(engine.phases(), 0u);
  EXPECT_TRUE(flatten(engine.conflict_set()).empty());

  engine.flush();
  EXPECT_FALSE(engine.batching());
  EXPECT_EQ(engine.phases(), 1u);  // everything fused into one phase
  EXPECT_EQ(engine.changes(), changes.size());

  rete::Engine serial(net, rete::EngineOptions{});
  for (const ops5::WmeChange& change : changes) serial.process_change(change);
  EXPECT_EQ(flatten(engine.conflict_set()), flatten(serial.conflict_set()));
}

TEST(BatchApi, DoubleBeginBatchThrows) {
  const rete::Network net =
      rete::Network::compile(ops5::parse_program(kJoinSource));
  pmatch::ParallelOptions popts;
  popts.threads = 1;
  pmatch::ParallelEngine engine(net, popts);
  engine.begin_batch();
  EXPECT_THROW(engine.begin_batch(), RuntimeError);
}

TEST(BatchApi, FlushWithoutOpenBatchThrows) {
  const rete::Network net =
      rete::Network::compile(ops5::parse_program(kJoinSource));
  pmatch::ParallelOptions popts;
  popts.threads = 1;
  pmatch::ParallelEngine engine(net, popts);
  EXPECT_THROW(engine.flush(), RuntimeError);
}

TEST(BatchApi, FailedWorkerPhasePoisonsTheEngine) {
  // Deleting a wme the engine never saw fails the phase: the control
  // thread finds no live wme with its id before round 0.  The engine
  // keeps that first error and drops the batch; every later call throws,
  // naming it, and never re-runs the failed batch.
  const rete::Network net =
      rete::Network::compile(ops5::parse_program(kJoinSource));
  pmatch::ParallelOptions popts;
  popts.threads = 2;
  pmatch::ParallelEngine engine(net, popts);
  ops5::WorkingMemory wm;
  wm.remove(wm.add(ops5::parse_wme("(right ^k 1)")));
  const std::vector<ops5::WmeChange> changes = wm.drain_changes();
  ASSERT_EQ(changes.size(), 2u);
  const ops5::WmeChange& unknown_delete = changes[1];
  std::string first_error;
  try {
    engine.process_change(unknown_delete);
  } catch (const std::exception& e) {
    first_error = e.what();
  }
  ASSERT_FALSE(first_error.empty()) << "the unknown delete did not fail";
  const auto expect_poisoned = [&](const auto& call) {
    try {
      call();
      ADD_FAILURE() << "a poisoned engine accepted a call";
    } catch (const RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find(first_error), std::string::npos)
          << e.what();
    }
  };
  expect_poisoned([&] { engine.process_change(changes[0]); });
  expect_poisoned([&] { engine.process_changes(changes); });
  expect_poisoned([&] { engine.begin_batch(); });
  expect_poisoned([&] { engine.flush(); });
  EXPECT_EQ(engine.phases(), 0u);
}

TEST(BatchApi, UnknownDeleteOrDuplicateAddFailsBeforeRoundZero) {
  const rete::Network net =
      rete::Network::compile(ops5::parse_program(kJoinSource));
  ops5::WorkingMemory wm;
  const WmeId left = wm.add(ops5::parse_wme("(left ^k 1)"));
  const std::vector<ops5::WmeChange> setup = wm.drain_changes();
  const auto with_id = [](ops5::WmeChange::Kind kind, std::string_view text,
                          WmeId id) {
    ops5::WmeChange c{kind, ops5::parse_wme(text)};
    c.wme.rebind_id(id);
    return c;
  };
  using Kind = ops5::WmeChange::Kind;
  const ops5::WmeChange right_add =
      with_id(Kind::Add, "(right ^k 1)", WmeId{7});
  struct Case {
    std::vector<ops5::WmeChange> batch;
    WmeId named;
  };
  const std::vector<Case> cases = {
      // A delete of an id that was never added, passing no alpha test.
      {{with_id(Kind::Delete, "(other ^k 1)", WmeId{99})}, WmeId{99}},
      // An add of a live id, with other content, after a valid change.
      {{right_add, with_id(Kind::Add, "(left ^k 2)", left)}, left},
      // A second delete of one wme in one phase.
      {{with_id(Kind::Delete, "(left ^k 1)", left),
        with_id(Kind::Delete, "(left ^k 1)", left)},
       left},
  };
  for (const Case& c : cases) {
    pmatch::ParallelOptions popts;
    popts.threads = 2;
    pmatch::ParallelEngine engine(net, popts);
    engine.process_changes(setup);
    const std::uint64_t rounds = engine.rounds();
    engine.begin_batch();
    for (const ops5::WmeChange& change : c.batch) engine.process_change(change);
    try {
      engine.flush();
      ADD_FAILURE() << "accepted a batch naming wme id " << c.named.value();
    } catch (const RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "wme id " + std::to_string(c.named.value())),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(engine.rounds(), rounds) << "a round ran";
    EXPECT_EQ(engine.phases(), 1u);
    EXPECT_THROW(engine.process_change(right_add), RuntimeError);
  }
}

TEST(BatchApi, EmptyFlushIsANoOp) {
  const rete::Network net =
      rete::Network::compile(ops5::parse_program(kJoinSource));
  pmatch::ParallelOptions popts;
  popts.threads = 1;
  pmatch::ParallelEngine engine(net, popts);
  engine.begin_batch();
  engine.flush();
  EXPECT_EQ(engine.phases(), 0u);
  EXPECT_FALSE(engine.batching());
}

TEST(BatchApi, ZeroMailboxCapacityRejected) {
  const rete::Network net =
      rete::Network::compile(ops5::parse_program(kJoinSource));
  pmatch::ParallelOptions popts;
  popts.threads = 2;
  popts.mailbox_capacity = 0;
  EXPECT_THROW(pmatch::ParallelEngine engine(net, popts), UsageError);
}

// --- Set-equality on a direct add+delete stream ----------------------------
// A 3-CE chain where every wme is added and then deleted: fusing the add
// and delete of the same wme into one phase short-circuits the transient
// chain instantiations (the multiple-modify saving), but the *final*
// conflict set and working memory must still equal the serial engine's.

constexpr const char* kChainSource =
    "(p chain (a ^k <x>) (b ^k <x>) (c ^k <x>) --> (halt))\n";

std::vector<ops5::WmeChange> add_delete_stream(int generations) {
  ops5::WorkingMemory wm;
  for (int g = 0; g < generations; ++g) {
    std::vector<WmeId> ids;
    for (const char* cls : {"a", "b", "c"}) {
      ids.push_back(wm.add(ops5::parse_wme(
          "(" + std::string(cls) + " ^k " + std::to_string(g % 2) + ")")));
    }
    // Keep one generation resident so the final conflict set is nonempty.
    if (g % 3 != 0) {
      for (const WmeId id : ids) wm.remove(id);
    }
  }
  return wm.drain_changes();
}

TEST(BatchedStream, FusedAddDeleteMatchesSerial) {
  const rete::Network net =
      rete::Network::compile(ops5::parse_program(kChainSource));
  const std::vector<ops5::WmeChange> stream = add_delete_stream(12);

  rete::Engine serial(net, rete::EngineOptions{});
  serial.process_changes(stream);
  const FlatConflictSet expected = flatten(serial.conflict_set());
  ASSERT_FALSE(expected.empty());

  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    for (const std::uint32_t batch : {1u, 4u, 64u, 0u}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " batch " +
                   std::to_string(batch));
      pmatch::ParallelOptions popts;
      popts.threads = threads;
      popts.max_batch = batch;
      pmatch::ParallelEngine engine(net, popts);
      engine.process_changes(stream);
      EXPECT_EQ(flatten(engine.conflict_set()), expected);
    }
  }
}

}  // namespace
}  // namespace mpps
