// WorkerStats accounting invariants for the parallel match engine, run
// over the committed profiling workloads (examples/programs/bench_*.ops):
// per-worker busy+idle must equal the profiler's measured phase wall,
// mailbox depth can never exceed the configured capacity unless an
// overflow was counted, per-worker activation counts must sum to the
// engine totals, and all deterministic counters must merge bit-identically
// across thread counts and across repeated runs.  On a hand-built phase
// the receipt counters equal values worked out by hand.  The work-item
// pools must stay bounded under one-sided cross-worker traffic.
// scripts/ci.sh runs this suite under TSan (it is part of pmatch_tests).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/profiler.hpp"
#include "src/ops5/parser.hpp"
#include "src/ops5/wme.hpp"
#include "src/pmatch/engine.hpp"
#include "src/rete/interp.hpp"
#include "src/rete/memory.hpp"
#include "tests/pmatch_test_util.hpp"

namespace mpps {
namespace {

using pmatch_test::load_program;

struct RunOutcome {
  rete::RunResult result;
  rete::EngineStats stats;
  std::vector<pmatch::WorkerStats> workers;
  obs::ProfileReport profile;  // empty unless `profiled`
};

RunOutcome run_parallel(const std::string& source, std::uint32_t threads,
                        obs::Profiler* profiler = nullptr,
                        std::size_t mailbox_capacity = 1024) {
  rete::InterpreterOptions options;
  options.max_cycles = 2000;
  pmatch::ParallelOptions popts;
  popts.threads = threads;
  popts.mailbox_capacity = mailbox_capacity;
  popts.profiler = profiler;
  options.engine_factory = pmatch::parallel_engine_factory(popts);
  rete::Interpreter interp(ops5::parse_program(source), options);
  interp.load_initial_wmes();
  RunOutcome out;
  out.result = interp.run();
  const auto& engine =
      dynamic_cast<const pmatch::ParallelEngine&>(interp.match_engine());
  out.stats = engine.stats();
  out.workers = engine.worker_stats();
  if (profiler != nullptr) out.profile = profiler->report();
  return out;
}

class WorkerStatsInvariants : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkerStatsInvariants, BusyPlusIdleEqualsMeasuredWall) {
  const std::string source = load_program(GetParam());
  ASSERT_FALSE(source.empty());
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    obs::Profiler profiler;
    const RunOutcome run = run_parallel(source, threads, &profiler);
    ASSERT_EQ(run.workers.size(), threads);
    ASSERT_EQ(run.profile.workers.size(), threads);
    for (std::uint32_t w = 0; w < threads; ++w) {
      // busy is defined as phase wall minus idle, and the profiler's
      // per-worker wall is the sum of the same phase spans — so the
      // engine's split must tile the measured wall exactly.
      EXPECT_EQ(run.workers[w].busy_ns + run.workers[w].idle_ns,
                run.profile.workers[w].wall_ns)
          << "worker " << w << " at " << threads << " threads";
    }
  }
}

TEST_P(WorkerStatsInvariants, MailboxDepthBoundedByCapacity) {
  const std::string source = load_program(GetParam());
  ASSERT_FALSE(source.empty());
  const std::size_t capacity = 64;
  for (const std::uint32_t threads : {2u, 4u}) {
    const RunOutcome run =
        run_parallel(source, threads, nullptr, capacity);
    for (const pmatch::WorkerStats& w : run.workers) {
      if (w.mailbox_overflows == 0) {
        EXPECT_LE(w.max_mailbox_depth, capacity);
      }
    }
  }
}

TEST_P(WorkerStatsInvariants, PerWorkerActivationsSumToEngineTotals) {
  const std::string source = load_program(GetParam());
  ASSERT_FALSE(source.empty());
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    const RunOutcome run = run_parallel(source, threads);
    std::uint64_t activations = 0;
    for (const pmatch::WorkerStats& w : run.workers) {
      activations += w.activations;
    }
    EXPECT_EQ(activations,
              run.stats.left_activations + run.stats.right_activations)
        << threads << " threads";
  }
}

TEST_P(WorkerStatsInvariants, CountersMergeIdenticallyAcrossThreadCounts) {
  const std::string source = load_program(GetParam());
  ASSERT_FALSE(source.empty());
  const RunOutcome base = run_parallel(source, 1);
  for (const std::uint32_t threads : {2u, 4u}) {
    const RunOutcome run = run_parallel(source, threads);
    EXPECT_EQ(run.result.cycles, base.result.cycles);
    EXPECT_EQ(run.result.firings, base.result.firings);
    // The deterministic counters: the same match work happens no matter
    // how the buckets are partitioned, so the merged totals are
    // bit-identical (times and message routing of course are not).
    EXPECT_EQ(run.stats.left_activations, base.stats.left_activations);
    EXPECT_EQ(run.stats.right_activations, base.stats.right_activations);
    EXPECT_EQ(run.stats.tokens_generated, base.stats.tokens_generated);
    EXPECT_EQ(run.stats.comparisons, base.stats.comparisons);
    EXPECT_EQ(run.stats.stale_deletes, base.stats.stale_deletes);
  }
}

TEST_P(WorkerStatsInvariants, CountersStableAcrossRepeatedRuns) {
  const std::string source = load_program(GetParam());
  ASSERT_FALSE(source.empty());
  const RunOutcome first = run_parallel(source, 2);
  const RunOutcome second = run_parallel(source, 2);
  ASSERT_EQ(first.workers.size(), second.workers.size());
  for (std::size_t w = 0; w < first.workers.size(); ++w) {
    EXPECT_EQ(first.workers[w].activations, second.workers[w].activations);
    EXPECT_EQ(first.workers[w].messages_sent,
              second.workers[w].messages_sent);
    EXPECT_EQ(first.workers[w].local_deliveries,
              second.workers[w].local_deliveries);
  }
}

INSTANTIATE_TEST_SUITE_P(BenchWorkloads, WorkerStatsInvariants,
                         ::testing::Values("bench_fanout.ops",
                                           "bench_chain.ops"));

// --- Receipts per round, worked out by hand ----------------------------------
// `(a) (b) (c)` has no equality test, so each of its two joins keeps all
// its tokens in one bucket, fixed by the node id.  Two workers split them
// by an explicit assignment.

/// Runs two phases on 2 workers at mailbox_capacity 1: {a1, a2, b1, b2,
/// c1}, then {a3}.  `split` puts the second join on worker 1, so every
/// pair the first join makes is a message from worker 0 to worker 1;
/// otherwise both joins are on worker 0.
std::vector<pmatch::WorkerStats> run_cross_product(bool split,
                                                   obs::Registry& registry) {
  const rete::Network net = rete::Network::compile(
      ops5::parse_program("(p cross (a) (b) (c) --> (halt))\n"));
  EXPECT_EQ(net.betas().size(), 2u);
  EXPECT_EQ(net.betas()[1].left_source, net.betas()[0].id);
  constexpr std::uint32_t kBuckets = 64;
  const std::uint32_t first = rete::bucket_index(net.betas()[0].id, {}, kBuckets);
  const std::uint32_t second =
      rete::bucket_index(net.betas()[1].id, {}, kBuckets);
  EXPECT_NE(first, second);
  std::vector<std::uint32_t> owner(kBuckets, 0);
  if (split) owner[second] = 1;
  pmatch::ParallelOptions popts;
  popts.threads = 2;
  popts.mailbox_capacity = 1;
  popts.assignment = sim::Assignment::fixed(owner, 2);
  popts.metrics = &registry;
  pmatch::ParallelEngine engine(net, popts);
  ops5::WorkingMemory wm;
  engine.begin_batch();
  for (const char* wme : {"(a)", "(a)", "(b)", "(b)", "(c)"}) {
    wm.add(ops5::parse_wme(wme));
  }
  for (const ops5::WmeChange& change : wm.drain_changes()) {
    engine.process_change(change);
  }
  engine.flush();
  wm.add(ops5::parse_wme("(a)"));
  for (const ops5::WmeChange& change : wm.drain_changes()) {
    engine.process_change(change);
  }
  // Each phase is two rounds: the roots, then the pairs at the second
  // join, which complete instantiations and route nothing.
  EXPECT_EQ(engine.rounds(), 4u);
  EXPECT_EQ(engine.conflict_set().size(), 6u);
  return engine.worker_stats();
}

TEST(WorkerStatsByHand, ReceiptsBeyondCapacityOneCountAsOverflows) {
  // Phase 1: worker 0 joins a1 and a2 with b1 and b2 in round 0 and sends
  // the 4 pairs; worker 1 receives 4 in one round, 3 beyond capacity.
  // Phase 2: a3 joins b1 and b2, so 2 more arrive, 1 beyond capacity.
  obs::Registry registry;
  const std::vector<pmatch::WorkerStats> ws = run_cross_product(true, registry);
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[0].messages_sent, 6u);
  EXPECT_EQ(ws[0].local_deliveries, 0u);
  EXPECT_EQ(ws[0].max_mailbox_depth, 0u);
  EXPECT_EQ(ws[0].mailbox_overflows, 0u);
  EXPECT_EQ(ws[1].activations, 1u + 6u);  // c1, then the 6 pairs
  EXPECT_EQ(ws[1].max_mailbox_depth, 4u);
  EXPECT_EQ(ws[1].mailbox_overflows, 3u + 1u);
  EXPECT_EQ(registry.counter("pmatch.mailbox_overflows").value(), 4u);
  // One depth sample per worker per round, the last round's 0 included.
  const obs::Histogram& depth = registry.histogram("pmatch.mailbox_depth", {});
  EXPECT_EQ(depth.count(), 2u * 4u);
  EXPECT_EQ(depth.sum(), 4 + 2);
  EXPECT_EQ(depth.max(), 4);
}

TEST(WorkerStatsByHand, LocalDeliveriesAreNotReceipts) {
  // The same phases with both joins on worker 0: the 6 pairs stay local,
  // so no worker receives anything.
  obs::Registry registry;
  const std::vector<pmatch::WorkerStats> ws =
      run_cross_product(false, registry);
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[0].local_deliveries, 6u);
  for (const pmatch::WorkerStats& w : ws) {
    EXPECT_EQ(w.messages_sent, 0u);
    EXPECT_EQ(w.max_mailbox_depth, 0u);
    EXPECT_EQ(w.mailbox_overflows, 0u);
  }
  const obs::Histogram& depth = registry.histogram("pmatch.mailbox_depth", {});
  EXPECT_EQ(depth.count(), 2u * 4u);
  EXPECT_EQ(depth.sum(), 0);
}

// --- Roots go to their bucket's owner --------------------------------------

TEST(WorkerStatsByHand, OnlyTheOwnerActivatesARoot) {
  // Each root is keyed once and handed to its bucket's owner, so a worker
  // that owns no bucket never runs an activation.
  const rete::Network net = rete::Network::compile(ops5::parse_program(
      "(p chain (a ^k <x>) (b ^k <x>) (c ^k <x>) --> (halt))\n"));
  constexpr std::uint32_t kBuckets = 16;
  pmatch::ParallelOptions popts;
  popts.threads = 4;
  popts.assignment = sim::Assignment::fixed(
      std::vector<std::uint32_t>(kBuckets, 0), popts.threads);
  pmatch::ParallelEngine engine(net, popts);
  ops5::WorkingMemory wm;
  for (int k = 0; k < 4; ++k) {
    for (const char* cls : {"a", "b", "c"}) {
      wm.add(ops5::parse_wme("(" + std::string(cls) + " ^k " +
                             std::to_string(k) + ")"));
    }
  }
  engine.begin_batch();
  for (const ops5::WmeChange& change : wm.drain_changes()) {
    engine.process_change(change);
  }
  engine.flush();
  const std::vector<pmatch::WorkerStats> ws = engine.worker_stats();
  ASSERT_EQ(ws.size(), 4u);
  EXPECT_GT(ws[0].activations, 0u);
  for (std::uint32_t w = 1; w < 4; ++w) {
    EXPECT_EQ(ws[w].activations, 0u) << "worker " << w;
  }
}

}  // namespace
}  // namespace mpps
