// A worker's mailbox is what the round's outboxes hold for it: every
// worker's children for that worker, gathered after the round barrier.
// These tests pin its contract on the engine, on hand-built phases:
// a zero mailbox_capacity is a configuration error, receipts beyond the
// capacity count as overflows (an explicit 1 is a real threshold), one
// sender's stream is taken in emission order, two senders' streams are
// taken one after the other in worker order, and a gathered outbox is
// empty, so a later round receives nothing from it.
//
// The programs have no equality tests, so each join keeps all its tokens
// in one bucket, fixed by the node id, and an explicit assignment places
// each join on a chosen worker.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/obs/metrics.hpp"
#include "src/ops5/parser.hpp"
#include "src/ops5/wme.hpp"
#include "src/pmatch/engine.hpp"
#include "src/rete/memory.hpp"

namespace mpps {
namespace {

constexpr std::uint32_t kBuckets = 64;

std::uint32_t bucket_of(const rete::BetaNode& join) {
  return rete::bucket_index(join.id, {}, kBuckets);
}

struct RecordLog final : rete::ActivationListener {
  std::vector<rete::ActivationRecord> records;
  void on_activation(const rete::ActivationRecord& record) override {
    records.push_back(record);
  }
  /// Ids of the root activations at `join` that took a left token, in
  /// merge order (which is the owner's processing order).
  [[nodiscard]] std::vector<ActivationId> left_roots(NodeId join) const {
    std::vector<ActivationId> ids;
    for (const rete::ActivationRecord& r : records) {
      if (r.node == join && r.side == rete::Side::Left && !r.parent.valid()) {
        ids.push_back(r.id);
      }
    }
    return ids;
  }
  /// Parents of the activations that took a routed child, in merge order.
  [[nodiscard]] std::vector<ActivationId> child_parents() const {
    std::vector<ActivationId> ids;
    for (const rete::ActivationRecord& r : records) {
      if (r.parent.valid()) ids.push_back(r.parent);
    }
    return ids;
  }
};

/// Runs `wmes` as one fused phase.
void run_phase(pmatch::ParallelEngine& engine, ops5::WorkingMemory& wm,
               std::initializer_list<const char*> wmes) {
  engine.begin_batch();
  for (const char* wme : wmes) wm.add(ops5::parse_wme(wme));
  for (const ops5::WmeChange& change : wm.drain_changes()) {
    engine.process_change(change);
  }
  engine.flush();
}

/// `(a) (b) (c)` on 2 workers: the first join on worker 0, the second on
/// worker 1, so every (a, b) pair is a message from worker 0 to worker 1.
struct OneSender {
  rete::Network net = rete::Network::compile(
      ops5::parse_program("(p cross (a) (b) (c) --> (halt))\n"));

  [[nodiscard]] const rete::BetaNode& first() const { return net.betas()[0]; }

  [[nodiscard]] pmatch::ParallelOptions options(std::size_t capacity) const {
    EXPECT_EQ(net.betas().size(), 2u);
    EXPECT_EQ(net.betas()[1].left_source, first().id);
    const std::uint32_t second = bucket_of(net.betas()[1]);
    EXPECT_NE(bucket_of(first()), second);
    std::vector<std::uint32_t> owner(kBuckets, 0);
    owner[second] = 1;
    pmatch::ParallelOptions popts;
    popts.threads = 2;
    popts.mailbox_capacity = capacity;
    popts.assignment = sim::Assignment::fixed(owner, 2);
    return popts;
  }
};

/// `(a) (b) (c)` and `(d) (e) (c)` on 3 workers: the first joins on
/// workers 0 and 1, both second joins on worker 2, so worker 2 receives
/// the (a, b) pairs from worker 0 and the (d, e) pairs from worker 1.
struct TwoSenders {
  rete::Network net = rete::Network::compile(
      ops5::parse_program("(p one (a) (b) (c) --> (halt))\n"
                          "(p two (d) (e) (c) --> (halt))\n"));

  [[nodiscard]] const rete::BetaNode& first_of_one() const {
    return net.betas()[0];
  }
  [[nodiscard]] const rete::BetaNode& first_of_two() const {
    return net.betas()[2];
  }

  [[nodiscard]] pmatch::ParallelOptions options(std::size_t capacity) const {
    EXPECT_EQ(net.betas().size(), 4u);
    EXPECT_EQ(net.betas()[1].left_source, first_of_one().id);
    EXPECT_EQ(net.betas()[3].left_source, first_of_two().id);
    const std::uint32_t one = bucket_of(first_of_one());
    const std::uint32_t two = bucket_of(first_of_two());
    EXPECT_NE(one, two);
    std::vector<std::uint32_t> owner(kBuckets, 2);
    owner[one] = 0;
    owner[two] = 1;
    for (std::size_t second : {1u, 3u}) {
      EXPECT_EQ(owner[bucket_of(net.betas()[second])], 2u)
          << "a second join shares a bucket with a first join";
    }
    pmatch::ParallelOptions popts;
    popts.threads = 3;
    popts.mailbox_capacity = capacity;
    popts.assignment = sim::Assignment::fixed(owner, 3);
    return popts;
  }
};

TEST(Mailbox, ZeroCapacityThrows) {
  // A capacity of 0 would count every receipt as an overflow; it is a
  // configuration error whether the calling thread runs the one worker
  // or worker threads run four.
  const OneSender sys;
  for (const std::uint32_t threads : {1u, 4u}) {
    pmatch::ParallelOptions popts;
    popts.threads = threads;
    popts.mailbox_capacity = 0;
    EXPECT_THROW(popts.validate(), UsageError) << threads << " threads";
    try {
      pmatch::ParallelEngine engine(sys.net, popts);
      ADD_FAILURE() << "constructed at " << threads << " threads";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find("mailbox_capacity"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Mailbox, CapacityOneIsHonoured) {
  // An explicit capacity of 1 is a real threshold: one receipt in a round
  // fits, a second one overflows.
  const OneSender sys;
  pmatch::ParallelEngine engine(sys.net, sys.options(1));
  ops5::WorkingMemory wm;
  run_phase(engine, wm, {"(b)", "(a)"});  // a1 joins b1: 1 pair
  EXPECT_EQ(engine.worker_stats()[1].max_mailbox_depth, 1u);
  EXPECT_EQ(engine.worker_stats()[1].mailbox_overflows, 0u);
  run_phase(engine, wm, {"(b)"});  // b2 joins a1: 1 pair
  EXPECT_EQ(engine.worker_stats()[1].max_mailbox_depth, 1u);
  EXPECT_EQ(engine.worker_stats()[1].mailbox_overflows, 0u);
  run_phase(engine, wm, {"(a)"});  // a2 joins b1 and b2: 2 pairs
  const std::vector<pmatch::WorkerStats> ws = engine.worker_stats();
  EXPECT_EQ(ws[1].max_mailbox_depth, 2u);
  EXPECT_EQ(ws[1].mailbox_overflows, 1u);
  EXPECT_EQ(ws[0].messages_sent, 4u);
  EXPECT_EQ(ws[0].max_mailbox_depth, 0u);
}

TEST(Mailbox, DrainPreservesSlotFifoOrder) {
  // b1 first, then a1..a5: each a joins b1 and emits one pair, so worker
  // 0's stream to worker 1 is the children of a1..a5 in that order, and
  // worker 1 must process them in that order.
  const OneSender sys;
  pmatch::ParallelOptions popts = sys.options(16);
  obs::Registry registry;
  popts.metrics = &registry;
  pmatch::ParallelEngine engine(sys.net, popts);
  RecordLog log;
  engine.set_listener(&log);
  ops5::WorkingMemory wm;
  run_phase(engine, wm, {"(b)", "(a)", "(a)", "(a)", "(a)", "(a)"});
  const std::vector<ActivationId> senders = log.left_roots(sys.first().id);
  ASSERT_EQ(senders.size(), 5u);
  EXPECT_EQ(log.child_parents(), senders);
  EXPECT_EQ(engine.worker_stats()[1].max_mailbox_depth, 5u);

  // The gathered outbox is empty: c1 joins the 5 stored pairs and routes
  // nothing, and no round of the later phase receives anything.
  log.records.clear();
  run_phase(engine, wm, {"(c)"});
  EXPECT_EQ(log.records.size(), 1u);
  EXPECT_EQ(engine.conflict_set().size(), 5u);
  const obs::Histogram& depth = registry.histogram("pmatch.mailbox_depth", {});
  EXPECT_EQ(depth.sum(), 5);
}

TEST(Mailbox, PerProducerSlotsDoNotInterleave) {
  // The roots alternate between the senders (a1, d1, a2, d2), but worker
  // 2 takes worker 0's whole stream before worker 1's.
  const TwoSenders sys;
  pmatch::ParallelEngine engine(sys.net, sys.options(16));
  RecordLog log;
  engine.set_listener(&log);
  ops5::WorkingMemory wm;
  run_phase(engine, wm, {"(b)", "(e)", "(a)", "(d)", "(a)", "(d)"});
  std::vector<ActivationId> expected = log.left_roots(sys.first_of_one().id);
  const std::vector<ActivationId> second = log.left_roots(sys.first_of_two().id);
  ASSERT_EQ(expected.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  expected.insert(expected.end(), second.begin(), second.end());
  EXPECT_EQ(log.child_parents(), expected);
  EXPECT_EQ(engine.worker_stats()[2].max_mailbox_depth, 4u);
}

TEST(Mailbox, OverflowCountsPushesBeyondCapacity) {
  // Worker 0 sends 2 a x 3 b = 6 pairs and worker 1 sends 2 d x 2 e = 4
  // to worker 2 in the same round: 10 receipts, 6 beyond capacity 4.
  const TwoSenders sys;
  pmatch::ParallelOptions popts = sys.options(4);
  obs::Registry registry;
  popts.metrics = &registry;
  pmatch::ParallelEngine engine(sys.net, popts);
  ops5::WorkingMemory wm;
  run_phase(engine, wm,
            {"(b)", "(b)", "(b)", "(e)", "(e)", "(a)", "(d)", "(a)", "(d)"});
  EXPECT_EQ(engine.rounds(), 2u);
  const std::vector<pmatch::WorkerStats> ws = engine.worker_stats();
  ASSERT_EQ(ws.size(), 3u);
  EXPECT_EQ(ws[0].messages_sent, 6u);
  EXPECT_EQ(ws[1].messages_sent, 4u);
  EXPECT_EQ(ws[2].activations, 10u);
  EXPECT_EQ(ws[2].max_mailbox_depth, 10u);
  EXPECT_EQ(ws[2].mailbox_overflows, 6u);
  for (std::size_t sender : {0u, 1u}) {
    EXPECT_EQ(ws[sender].max_mailbox_depth, 0u);
    EXPECT_EQ(ws[sender].mailbox_overflows, 0u);
  }
  EXPECT_EQ(registry.counter("pmatch.mailbox_overflows").value(), 6u);
}

}  // namespace
}  // namespace mpps
