// Determinism guarantees of the parallel match engine:
//   - same program + seed + thread count ⇒ identical conflict-set
//     sequences and an identical collected Trace (byte-for-byte);
//   - 1-thread ParallelEngine ⇒ byte-identical trace, equal EngineStats
//     and equal firing sequence versus the serial rete::Engine, over the
//     OPS5 example corpus;
//   - parallel-recorded traces satisfy trace::validate (parents precede
//     children in every cycle) at any thread count;
//   - the traces recorded at 2 and 4 threads are pinned by digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/core/pipeline.hpp"
#include "src/obs/metrics.hpp"
#include "src/ops5/parser.hpp"
#include "src/pmatch/engine.hpp"
#include "src/rete/interp.hpp"
#include "src/trace/io.hpp"
#include "src/trace/synth.hpp"
#include "tests/pinned_trace.hpp"
#include "tests/pmatch_test_util.hpp"

namespace mpps {
namespace {

using pmatch_test::load_program;
using pmatch_test::random_program;

pmatch::ParallelOptions threaded(std::uint32_t threads) {
  pmatch::ParallelOptions popts;
  popts.threads = threads;
  return popts;
}

const char* const kCorpus[] = {"counter.ops", "blocks.ops",
                               "monkey_bananas.ops", "pairings.ops",
                               "cube.ops"};

std::string record_with_threads(const std::string& source,
                                std::uint32_t threads,
                                pmatch::ParallelOptions popts = {}) {
  core::PipelineOptions options;
  options.interpreter.max_cycles = 2000;
  if (threads > 0) {
    popts.threads = threads;
    options.interpreter.engine_factory = pmatch::parallel_engine_factory(popts);
  }
  const core::PipelineResult piped =
      core::record_trace_from_source(source, "t", options);
  return trace::to_string(piped.trace);
}

TEST(PmatchDeterminism, SameSeedSameThreadsSameTrace) {
  for (const char* program : {"blocks.ops", "pairings.ops"}) {
    const std::string source = load_program(program);
    for (std::uint32_t threads : {2u, 4u}) {
      SCOPED_TRACE(std::string(program) + " threads " +
                   std::to_string(threads));
      EXPECT_EQ(record_with_threads(source, threads),
                record_with_threads(source, threads));
    }
  }
  // Random partition: determinism includes the partition seed.
  pmatch::ParallelOptions popts;
  popts.partition = pmatch::ParallelOptions::Partition::Random;
  popts.seed = 42;
  const std::string source = load_program("blocks.ops");
  EXPECT_EQ(record_with_threads(source, 4, popts),
            record_with_threads(source, 4, popts));
}

TEST(PmatchDeterminism, OneThreadByteIdenticalToSerialEngine) {
  for (const char* program : kCorpus) {
    SCOPED_TRACE(program);
    const std::string source = load_program(program);
    EXPECT_EQ(record_with_threads(source, 0),  // serial rete::Engine
              record_with_threads(source, 1));
  }
}

TEST(PmatchDeterminism, OneThreadStatsAndFiringsEqualSerial) {
  for (const char* program : kCorpus) {
    SCOPED_TRACE(program);
    const std::string source = load_program(program);
    rete::InterpreterOptions serial_opts;
    serial_opts.max_cycles = 2000;
    rete::Interpreter serial(ops5::parse_program(source), serial_opts);

    rete::InterpreterOptions parallel_opts = serial_opts;
    parallel_opts.engine_factory =
        pmatch::parallel_engine_factory(threaded(1));
    rete::Interpreter parallel(ops5::parse_program(source), parallel_opts);

    serial.load_initial_wmes();
    parallel.load_initial_wmes();
    serial.run();
    parallel.run();

    EXPECT_EQ(serial.engine().stats(), parallel.match_engine().stats());
    ASSERT_EQ(serial.firings().size(), parallel.firings().size());
    for (std::size_t i = 0; i < serial.firings().size(); ++i) {
      EXPECT_EQ(serial.firings()[i].production,
                parallel.firings()[i].production);
      EXPECT_EQ(serial.firings()[i].wmes, parallel.firings()[i].wmes);
    }
  }
}

/// Every activation record, flattened for comparison.
struct RecordLog : rete::ActivationListener {
  std::vector<std::vector<std::uint64_t>> records;
  void on_activation(const rete::ActivationRecord& r) override {
    records.push_back({r.id.value(), r.parent.value(), r.node.value(),
                       static_cast<std::uint64_t>(r.side),
                       static_cast<std::uint64_t>(r.tag), r.bucket,
                       r.successors, r.instantiations});
  }
};

// Without a listener the merge skips the activation records, but the ids
// they would have taken still advance: a listener attached after some
// phases sees the ids and parents of one attached from the first phase.
TEST(PmatchDeterminism, LateListenerSeesTheSameActivationIds) {
  for (std::uint32_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    rete::InterpreterOptions options;
    options.engine_factory =
        pmatch::parallel_engine_factory(threaded(threads));
    const ops5::Program program =
        ops5::parse_program(load_program("pairings.ops"));
    rete::Interpreter early(program, options);
    rete::Interpreter late(program, options);
    RecordLog early_log;
    RecordLog late_log;
    early.match_engine().set_listener(&early_log);
    early.load_initial_wmes();
    late.load_initial_wmes();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(early.step());
      ASSERT_TRUE(late.step());
    }
    const std::size_t seen_early = early_log.records.size();
    ASSERT_GT(seen_early, 0u);
    late.match_engine().set_listener(&late_log);
    early.run();
    late.run();
    ASSERT_GT(late_log.records.size(), 0u);
    EXPECT_EQ(late_log.records,
              std::vector<std::vector<std::uint64_t>>(
                  early_log.records.begin() +
                      static_cast<std::ptrdiff_t>(seen_early),
                  early_log.records.end()));
  }
}

TEST(PmatchDeterminism, ParallelTracesValidate) {
  for (std::uint32_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    core::PipelineOptions options;
    options.interpreter.engine_factory =
        pmatch::parallel_engine_factory(threaded(threads));
    const core::PipelineResult piped = core::record_trace_from_source(
        load_program("pairings.ops"), "pairings", options);
    EXPECT_NO_THROW(trace::validate(piped.trace));
    EXPECT_GT(piped.trace.total_activations(), 0u);
  }
}

TEST(PmatchDeterminism, MeasuredCountersAreConsistent) {
  rete::InterpreterOptions options;
  options.engine_factory = pmatch::parallel_engine_factory(threaded(4));
  rete::Interpreter interp(
      ops5::parse_program(load_program("pairings.ops")), options);
  interp.load_initial_wmes();
  interp.run();
  auto& engine =
      dynamic_cast<pmatch::ParallelEngine&>(interp.match_engine());
  EXPECT_EQ(engine.threads(), 4u);
  EXPECT_GT(engine.rounds(), 0u);
  const auto workers = engine.worker_stats();
  ASSERT_EQ(workers.size(), 4u);
  std::uint64_t activations = 0;
  std::uint64_t messages = 0;
  std::uint64_t received = 0;
  for (const auto& w : workers) {
    activations += w.activations;
    messages += w.messages_sent;
    received += w.max_mailbox_depth;  // depth>0 implies traffic arrived
  }
  EXPECT_EQ(activations, engine.stats().left_activations +
                             engine.stats().right_activations);
  // Cross-worker traffic and received-side depth move together.
  EXPECT_EQ(messages > 0, received > 0);
}

TEST(PmatchDeterminism, MetricsRegistryGetsMeasuredSkew) {
  obs::Registry registry;
  rete::InterpreterOptions options;
  options.engine.metrics = &registry;
  options.engine_factory = pmatch::parallel_engine_factory(threaded(2));
  rete::Interpreter interp(
      ops5::parse_program(load_program("blocks.ops")), options);
  interp.load_initial_wmes();
  interp.run();
  std::ostringstream os;
  registry.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("pmatch.phases"), std::string::npos);
  EXPECT_NE(csv.find("pmatch.rounds"), std::string::npos);
  EXPECT_NE(csv.find("pmatch.worker_busy_ns"), std::string::npos);
  EXPECT_NE(csv.find("pmatch.mailbox_depth"), std::string::npos);
  EXPECT_NE(csv.find("rete.activations"), std::string::npos);
}

TEST(PmatchDeterminism, RegistryMirrorsEngineStats) {
  // Both engines flush their EngineStats into the same rete.* counters
  // through one helper; after a run the registry must equal stats(), and
  // the live-token gauge must not depend on who ran the match.
  std::int64_t serial_live = -1;
  for (const std::uint32_t threads : {0u, 1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads (0 = serial)");
    obs::Registry registry;
    rete::InterpreterOptions options;
    options.max_cycles = 2000;
    options.engine.metrics = &registry;
    if (threads > 0) {
      options.engine_factory =
          pmatch::parallel_engine_factory(threaded(threads));
    }
    rete::Interpreter interp(
        ops5::parse_program(load_program("blocks.ops")), options);
    interp.load_initial_wmes();
    interp.run();
    const rete::EngineStats& stats = interp.match_engine().stats();
    ASSERT_GT(stats.left_activations, 0u);
    EXPECT_EQ(registry.counter("rete.activations", {{"side", "left"}}).value(),
              stats.left_activations);
    EXPECT_EQ(
        registry.counter("rete.activations", {{"side", "right"}}).value(),
        stats.right_activations);
    EXPECT_EQ(registry.counter("rete.tokens_generated").value(),
              stats.tokens_generated);
    EXPECT_EQ(registry.counter("rete.comparisons").value(), stats.comparisons);
    EXPECT_EQ(registry.counter("rete.stale_deletes").value(),
              stats.stale_deletes);
    const std::int64_t live = registry.gauge("rete.live_tokens").value();
    if (threads == 0) {
      serial_live = live;
      EXPECT_GT(live, 0);
    } else {
      EXPECT_EQ(live, serial_live);
    }
  }
}

TEST(PmatchDeterminism, RejectsMismatchedAssignment) {
  const ops5::Program program =
      ops5::parse_program(load_program("counter.ops"));
  const rete::Network net = rete::Network::compile(program);
  pmatch::ParallelOptions popts;
  popts.threads = 2;
  popts.assignment = sim::Assignment::round_robin(64, 3);  // 3 procs != 2
  EXPECT_THROW(pmatch::ParallelEngine(net, popts), RuntimeError);
}

TEST(PmatchDeterminism, SerialAccessorThrowsOnParallelInterpreter) {
  rete::InterpreterOptions options;
  options.engine_factory = pmatch::parallel_engine_factory(threaded(2));
  rete::Interpreter interp(
      ops5::parse_program(load_program("counter.ops")), options);
  EXPECT_THROW({ auto& e = interp.engine(); (void)e; }, RuntimeError);
  EXPECT_NO_THROW({ auto& m = interp.match_engine(); (void)m; });
}

TEST(PmatchDeterminism, GreedyStaticDealsLikeAssignmentGreedy) {
  // On a one-cycle trace the whole-trace LPT map is the greedy policy's
  // cycle-0 map, instantiation costs included: bucket 0's two
  // instantiations make it the heaviest bucket.
  trace::SectionBuilder b("lpt", 4);
  b.begin_cycle(1);
  b.add_instantiations(b.root_at(trace::Side::Right, NodeId{1}, 0, 0), 2);
  b.root_at(trace::Side::Left, NodeId{2}, 1, 0);
  b.root_at(trace::Side::Left, NodeId{2}, 2, 1);
  b.root_at(trace::Side::Right, NodeId{1}, 3, 1);
  const trace::Trace t = b.take();
  const sim::CostModel costs;
  EXPECT_EQ(pmatch::greedy_static(t, 2, costs).map_for(0),
            sim::Assignment::greedy(t, 2, costs).map_for(0));
}

TEST(PmatchDeterminism, GreedyStaticBalancesLoad) {
  const core::PipelineResult piped = core::record_trace_from_source(
      load_program("pairings.ops"), "pairings");
  const sim::Assignment lpt =
      pmatch::greedy_static(piped.trace, 4, sim::CostModel{});
  EXPECT_EQ(lpt.num_procs(), 4u);
  EXPECT_EQ(lpt.num_buckets(), piped.trace.num_buckets);
  // Every worker owns at least one bucket under LPT + round-robin fill.
  std::vector<bool> seen(4, false);
  for (std::uint32_t b = 0; b < lpt.num_buckets(); ++b) {
    seen[lpt.proc_of(0, b)] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

// ---- recorded traces are pinned ------------------------------------------

/// The trace `pmatch_trace` records for `program` at `threads` and
/// `max_batch`, run from the programs directory in a fresh process (see
/// pinned_trace.hpp).
std::string parallel_trace(const std::string& program, std::uint32_t threads,
                           std::uint32_t max_batch) {
  return pinned_trace::command_output(
      std::string("cd '") + MPPS_PROGRAMS_DIR + "' && '" +
      MPPS_PMATCH_TRACE_BIN + "' " + program + " " + std::to_string(threads) +
      " " + std::to_string(max_batch));
}

// The threaded engine's trace of every bundled program, one change per
// phase at 2 threads and up to 16 fused changes at 4, pinned by byte
// length and FNV-1a digest.  Activation ids follow the merge's
// round-major, worker-minor order and each worker's processing order, so
// a change to how a round's items reach their worker, or to the order a
// worker takes them in, shows here.
TEST(PmatchDeterminism, RecordedTracesArePinned) {
  struct Pin {
    const char* program;
    std::uint32_t threads;
    std::uint32_t max_batch;
    std::size_t bytes;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"bench_chain.ops", 2, 1, 128049, 0x79FE828ADE352F90ull},
      {"bench_chain.ops", 4, 16, 128052, 0xA1FA5AE395CB1A64ull},
      {"bench_fanout.ops", 2, 1, 109678, 0xACFFD4E7231E3865ull},
      {"bench_fanout.ops", 4, 16, 109678, 0xF2435EB13A0CE18Full},
      {"blocks.ops", 2, 1, 3417, 0x5FA167D78F0A61CBull},
      {"blocks.ops", 4, 16, 3416, 0x51B0B6AA2A9237F3ull},
      {"counter.ops", 2, 1, 367, 0xD120378B07EB9759ull},
      {"counter.ops", 4, 16, 367, 0xD120378B07EB9759ull},
      {"cube.ops", 2, 1, 90510, 0x8097195ABA0EF82Cull},
      {"cube.ops", 4, 16, 90521, 0xD88B60689734A825ull},
      {"monkey_bananas.ops", 2, 1, 4378, 0x47639ECEB8D4E995ull},
      {"monkey_bananas.ops", 4, 16, 4378, 0x13E69A6889637DBDull},
      {"pairings.ops", 2, 1, 5997, 0x1001C7148BF47BDFull},
      {"pairings.ops", 4, 16, 5997, 0x65B56AABA76EFEF4ull},
      {"tictactoe.ops", 2, 1, 345981, 0x689B705645583BBEull},
      {"tictactoe.ops", 4, 16, 345972, 0x6BD8226CB9FF61B5ull},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(pin.program) + " at " +
                 std::to_string(pin.threads) + " threads, max_batch " +
                 std::to_string(pin.max_batch));
    const std::string text =
        parallel_trace(pin.program, pin.threads, pin.max_batch);
    EXPECT_EQ(text.size(), pin.bytes);
    EXPECT_EQ(pinned_trace::fnv1a64(text), pin.digest);
  }
}

}  // namespace
}  // namespace mpps
