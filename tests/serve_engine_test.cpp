// The serving engine's session/transaction contract: lifecycle and
// result contents, per-transaction validation (UsageError from the
// future, never a poisoned engine), close/evict semantics, admission
// fusing, and the replay-identity law — a single serve session replaying
// the interpreter's recorded WM-change stream ends with a conflict set
// identical to the `mpps run` path's.
#include "src/serve/serve.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <future>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/ops5/parser.hpp"
#include "src/ops5/wme.hpp"
#include "src/rete/engine.hpp"
#include "src/rete/interp.hpp"
#include "pmatch_test_util.hpp"

namespace mpps::serve {
namespace {

constexpr const char* kPairProgram =
    "(p pair (item ^key <k>) (probe ^key <k>) --> (halt))\n";

ops5::Wme wme(const std::string& text) { return ops5::parse_wme(text); }

/// Order-free view of a conflict-set snapshot (production, wme ids).
std::vector<std::pair<std::uint32_t, std::vector<std::uint64_t>>> flat(
    const std::vector<rete::Instantiation>& insts) {
  std::vector<std::pair<std::uint32_t, std::vector<std::uint64_t>>> out;
  for (const rete::Instantiation& inst : insts) {
    std::vector<std::uint64_t> wmes;
    for (WmeId w : inst.token.wmes) wmes.push_back(w.value());
    out.emplace_back(inst.production.value(), std::move(wmes));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ServeEngine, TransactReportsAddedIdsAndFiredInstantiations) {
  ServeEngine engine(ops5::parse_program(kPairProgram));
  Session s = engine.open_session();

  Transaction setup;
  setup.add(wme("(item ^key a)")).add(wme("(item ^key b)"));
  const TxResult r1 = s.transact(std::move(setup));
  ASSERT_EQ(r1.added.size(), 2u);
  EXPECT_EQ(r1.added[0].value(), 1u);  // session-local ids, from 1
  EXPECT_EQ(r1.added[1].value(), 2u);
  EXPECT_TRUE(r1.fired.empty());

  Transaction probe;
  probe.add(wme("(probe ^key a)"));
  const TxResult r2 = s.transact(std::move(probe));
  ASSERT_EQ(r2.fired.size(), 1u);  // the (item a, probe a) pair
  EXPECT_EQ(r2.retracted, 0u);

  Transaction retract;
  retract.remove(r1.added[0]);
  const TxResult r3 = s.transact(std::move(retract));
  EXPECT_TRUE(r3.fired.empty());
  EXPECT_EQ(r3.retracted, 1u);
}

TEST(ServeEngine, CloseRetractsEverythingAndRejectsFurtherSubmits) {
  ServeEngine engine(ops5::parse_program(kPairProgram));
  Session s = engine.open_session();
  Transaction tx;
  tx.add(wme("(item ^key a)")).add(wme("(probe ^key a)"));
  const TxResult r = s.transact(std::move(tx));
  EXPECT_EQ(r.fired.size(), 1u);

  const TxResult closed = s.close();
  EXPECT_EQ(closed.retracted, 1u);  // the pair leaves the conflict set
  EXPECT_TRUE(engine.conflict_snapshot().empty());

  Transaction late;
  late.add(wme("(item ^key z)"));
  EXPECT_THROW(s.submit(std::move(late)), RuntimeError);

  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.sessions_closed, 1u);
}

TEST(ServeEngine, EvictIsTheOwnerSideClose) {
  ServeEngine engine(ops5::parse_program(kPairProgram));
  Session s = engine.open_session();
  Transaction tx;
  tx.add(wme("(item ^key a)")).add(wme("(probe ^key a)"));
  s.transact(std::move(tx));

  const TxResult evicted = engine.evict(s.id()).get();
  EXPECT_EQ(evicted.retracted, 1u);
  EXPECT_TRUE(engine.conflict_snapshot().empty());
  // Double-close of an already-closing/closed session is rejected.
  EXPECT_THROW(engine.evict(s.id()), RuntimeError);
}

TEST(ServeEngine, ValidationFailuresSurfaceAsUsageErrorWithoutPoisoning) {
  ServeEngine engine(ops5::parse_program(kPairProgram));
  Session s = engine.open_session();

  // Removing an id that was never added.
  Transaction bad_remove;
  bad_remove.remove(WmeId{99});
  EXPECT_THROW(s.transact(std::move(bad_remove)), UsageError);

  // Remove-then-re-add of the same local id inside one transaction (the
  // engine id would be reused within the fused phase).
  Transaction tx;
  tx.add(wme("(item ^key a)"));
  const TxResult r = s.transact(std::move(tx));
  Transaction readd;
  readd.remove(r.added[0]);
  readd.add([&] {
    ops5::Wme w = wme("(item ^key a)");
    w.rebind_id(r.added[0]);
    return w;
  }());
  EXPECT_THROW(s.transact(std::move(readd)), UsageError);

  // A rejected transaction must not have mutated anything: the session
  // still works and its previous wme is still live.
  Transaction probe;
  probe.add(wme("(probe ^key a)"));
  const TxResult ok = s.transact(std::move(probe));
  EXPECT_EQ(ok.fired.size(), 1u);
  EXPECT_GE(engine.stats().rejected, 2u);
}

TEST(ServeEngine, MaxLiveWmesBoundsTheSession) {
  ServeEngine engine(ops5::parse_program(kPairProgram));
  Session s = engine.open_session({.label = "bounded", .max_live_wmes = 2});
  Transaction fill;
  fill.add(wme("(item ^key a)")).add(wme("(item ^key b)"));
  const TxResult r = s.transact(std::move(fill));

  Transaction over;
  over.add(wme("(item ^key c)"));
  EXPECT_THROW(s.transact(std::move(over)), UsageError);

  // Freeing a slot in the same transaction keeps it admissible.
  Transaction swap;
  swap.remove(r.added[0]);
  swap.add(wme("(item ^key c)"));
  EXPECT_NO_THROW(s.transact(std::move(swap)));
}

TEST(ServeEngine, BuilderStyleOptionValidation) {
  const ops5::Program program = ops5::parse_program(kPairProgram);
  ServeOptions zero_batch;
  zero_batch.admission_batch = 0;
  EXPECT_THROW(ServeEngine(program, zero_batch), UsageError);
  ServeOptions zero_queue;
  zero_queue.queue_capacity = 0;
  EXPECT_THROW(ServeEngine(program, zero_queue), UsageError);
  ServeOptions zero_sessions;
  zero_sessions.max_sessions = 0;
  EXPECT_THROW(ServeEngine(program, zero_sessions), UsageError);
}

TEST(ServeEngine, MaxSessionsBoundsOpensButClosedSlotsFree) {
  ServeOptions options;
  options.max_sessions = 2;
  ServeEngine engine(ops5::parse_program(kPairProgram), options);
  Session a = engine.open_session();
  Session b = engine.open_session();
  EXPECT_THROW(engine.open_session(), RuntimeError);
  a.close();
  EXPECT_NO_THROW(engine.open_session());
  b.close();
}

TEST(ServeEngine, ConcurrentSessionsFuseIntoSharedPhases) {
  // A deliberately slow first phase (one big transaction) so the later
  // single-change submits pile up in the admission queue behind it and
  // get fused when the dispatcher comes back around.
  ServeEngine engine(ops5::parse_program(kPairProgram));
  Session big = engine.open_session();
  Transaction slow;
  for (int i = 0; i < 400; ++i) {
    slow.add(wme("(item ^key k" + std::to_string(i) + ")"));
  }
  std::future<TxResult> first = big.submit(std::move(slow));

  constexpr int kSessions = 4;
  std::vector<Session> sessions;
  std::vector<std::future<TxResult>> futures;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(engine.open_session());
    Transaction tx;
    tx.add(wme("(probe ^key k1)"));
    futures.push_back(sessions.back().submit(std::move(tx)));
  }
  first.get();
  std::uint32_t max_fused = 1;
  for (std::future<TxResult>& f : futures) {
    max_fused = std::max(max_fused, f.get().fused_transactions);
  }
  EXPECT_GE(max_fused, 2u);
  EXPECT_EQ(engine.stats().max_fused, max_fused);
  // Fused or not, isolation holds: only the big session's items exist,
  // so no probe from another session may pair with them.
  EXPECT_TRUE(engine.conflict_snapshot().empty());
  EXPECT_EQ(engine.stats().cross_session_deltas, 0u);
}

// --- Replay identity against the `mpps run` path ---------------------------

/// A serial engine that records every act-phase batch the interpreter
/// pushes, so the same stream can be replayed through a serve session.
class RecordingEngine final : public rete::MatchEngine {
 public:
  RecordingEngine(const rete::Network& net, const rete::EngineOptions& options,
                  std::vector<std::vector<ops5::WmeChange>>* log)
      : inner_(net, options), log_(log) {}

  void set_listener(rete::ActivationListener* l) override {
    inner_.set_listener(l);
  }
  void process_change(const ops5::WmeChange& change) override {
    log_->push_back({change});
    inner_.process_change(change);
  }
  void process_changes(std::span<const ops5::WmeChange> changes) override {
    log_->emplace_back(changes.begin(), changes.end());
    inner_.process_changes(changes);
  }
  rete::ConflictSet& conflict_set() override { return inner_.conflict_set(); }
  [[nodiscard]] const ops5::Wme& wme(WmeId id) const override {
    return inner_.wme(id);
  }
  [[nodiscard]] const rete::EngineStats& stats() const override {
    return inner_.stats();
  }

 private:
  rete::Engine inner_;
  std::vector<std::vector<ops5::WmeChange>>* log_;
};

TEST(ServeEngine, SingleSessionReplayMatchesRunPathConflictSet) {
  // Drive the interpreter (the `mpps run` path) over a real program,
  // recording the act-phase change stream, then replay that stream as
  // one serve session's transactions.  Session 0 passes wme timetags
  // through unchanged, so the final conflict sets must be identical —
  // production ids AND token wme ids.
  for (const char* name : {"counter.ops", "blocks.ops"}) {
    const std::string source = pmatch_test::load_program(name);
    ASSERT_FALSE(source.empty());
    const ops5::Program program = ops5::parse_program(source);

    std::vector<std::vector<ops5::WmeChange>> log;
    rete::InterpreterOptions options;
    options.engine_factory = [&log](const rete::Network& net,
                                    const rete::EngineOptions& eopts) {
      return std::make_unique<RecordingEngine>(net, eopts, &log);
    };
    rete::Interpreter interp(program, options);
    interp.load_initial_wmes();
    interp.run();
    const auto expected =
        pmatch_test::flatten(interp.match_engine().conflict_set());

    ServeEngine engine(program);
    Session session = engine.open_session();
    for (const std::vector<ops5::WmeChange>& batch : log) {
      session.transact(std::span<const ops5::WmeChange>(batch));
    }
    EXPECT_EQ(flat(engine.conflict_snapshot()), expected) << name;
    EXPECT_EQ(engine.stats().cross_session_deltas, 0u) << name;
  }
}

TEST(ServeEngine, LatencyReportIsOrderedAndPopulated) {
  ServeEngine engine(ops5::parse_program(kPairProgram));
  Session s = engine.open_session();
  for (int i = 0; i < 32; ++i) {
    Transaction tx;
    tx.add(wme("(item ^key k" + std::to_string(i) + ")"));
    s.transact(std::move(tx));
  }
  const LatencyReport r = engine.latency_report();
  EXPECT_EQ(r.transactions, 32u);
  EXPECT_GT(r.p50_us, 0.0);
  EXPECT_LE(r.p50_us, r.p95_us);
  EXPECT_LE(r.p95_us, r.p99_us);
  EXPECT_GT(r.tx_per_s, 0.0);
  EXPECT_GT(r.wall_s, 0.0);
}

TEST(ServeEngine, ShutdownDrainsInFlightTransactions) {
  ServeEngine engine(ops5::parse_program(kPairProgram));
  Session s = engine.open_session();
  std::vector<std::future<TxResult>> futures;
  for (int i = 0; i < 8; ++i) {
    Transaction tx;
    tx.add(wme("(item ^key k" + std::to_string(i) + ")"));
    futures.push_back(s.submit(std::move(tx)));
  }
  engine.shutdown();
  for (std::future<TxResult>& f : futures) {
    EXPECT_NO_THROW(f.get());  // queued work completes, never vanishes
  }
  Transaction late;
  late.add(wme("(item ^key z)"));
  EXPECT_THROW(s.submit(std::move(late)), RuntimeError);
}

// --- Admission against a copying reference --------------------------------

/// One op of a generated transaction: an add with an explicit local id or
/// none, or a remove of a local id.
struct GenOp {
  bool add = true;
  std::optional<std::uint64_t> id;
};

/// A session as docs/SERVING.md and serve.hpp state its admission rules,
/// applied the plain way: each transaction is checked against a copy of
/// the live set, and the copy replaces the set only if every op passes.
struct RefSession {
  std::set<std::uint64_t> live;
  std::uint64_t next_local = 1;
  std::size_t max_live_wmes = 0;
  std::uint64_t transactions = 0;  // admitted
  bool open = true;
};

/// The ids a transaction's adds get, or the text of its UsageError.
struct RefOutcome {
  std::vector<std::uint64_t> added;
  std::string error;  // empty when admitted
};

RefOutcome reference_admit(RefSession& s, std::uint32_t ordinal,
                           const std::vector<GenOp>& ops) {
  const std::string who =
      "ServeEngine: session " + std::to_string(ordinal) + ": ";
  std::set<std::uint64_t> live = s.live;
  std::set<std::uint64_t> removed;
  std::uint64_t next_local = s.next_local;
  RefOutcome out;
  for (const GenOp& op : ops) {
    if (!op.add) {
      if (live.erase(*op.id) == 0) {
        return {{}, who + "remove of unknown wme id " + std::to_string(*op.id)};
      }
      removed.insert(*op.id);
      continue;
    }
    std::uint64_t id = 0;
    if (op.id.has_value()) {
      id = *op.id;
      const std::string named = who + "wme id " + std::to_string(id);
      if (id == 0 || id >= (std::uint64_t{1} << 40)) {
        return {{}, named + " outside the 40-bit session-local id space"};
      }
      if (live.contains(id)) return {{}, named + " is already live"};
      if (removed.contains(id)) {
        return {{}, named + " re-added after a remove in the same "
                            "transaction (use a fresh id)"};
      }
      next_local = std::max(next_local, id + 1);
    } else {
      id = next_local++;
    }
    live.insert(id);
    if (s.max_live_wmes != 0 && live.size() > s.max_live_wmes) {
      return {{}, who + "transaction exceeds the session's max_live_wmes "
                        "bound (" + std::to_string(s.max_live_wmes) + ")"};
    }
    out.added.push_back(id);
  }
  s.live = std::move(live);
  s.next_local = next_local;
  ++s.transactions;
  return out;
}

/// A seeded transaction over every kind of op admission must judge.
std::vector<GenOp> generate_ops(Rng& rng, const RefSession& s) {
  const auto live_id = [&]() -> std::optional<std::uint64_t> {
    if (s.live.empty()) return std::nullopt;
    return *std::next(s.live.begin(),
                      static_cast<std::ptrdiff_t>(rng.below(s.live.size())));
  };
  constexpr std::uint64_t kOutOfRange = std::uint64_t{1} << 40;
  std::vector<GenOp> ops;
  const std::uint64_t count = 1 + rng.below(4);
  for (std::uint64_t i = 0; i < count; ++i) {
    switch (rng.below(16)) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4:
      case 5:
        ops.push_back({true, std::nullopt});
        break;
      case 6:  // explicit and fresh, unless an earlier op took it
        ops.push_back({true, s.next_local + rng.below(4)});
        break;
      case 7:  // explicit and live
        ops.push_back({true, live_id()});
        break;
      case 8:
        ops.push_back(
            {true, rng.below(2) == 0 ? 0 : kOutOfRange + rng.below(2)});
        break;
      case 9:
      case 10:
      case 11:
        if (const auto id = live_id()) ops.push_back({false, id});
        break;
      case 12: {  // unknown, or outside the id space
        const std::uint64_t pick = rng.below(3);
        ops.push_back({false, pick == 0   ? s.next_local + 50 + rng.below(9)
                              : pick == 1 ? 0
                                          : kOutOfRange});
        break;
      }
      case 13: {  // add, then remove, in one transaction
        const std::uint64_t id = s.next_local + 10 + rng.below(5);
        ops.push_back({true, id});
        ops.push_back({false, id});
        break;
      }
      case 14:  // remove, then re-add under the same id
        if (const auto id = live_id()) {
          ops.push_back({false, id});
          ops.push_back({true, id});
        }
        break;
      default:  // a burst of adds, past any small bound
        for (int k = 0; k < 6; ++k) ops.push_back({true, std::nullopt});
        break;
    }
  }
  return ops;
}

TEST(ServeEngine, AdmissionAgreesWithACopyingReference) {
  // Every rejection this thread reads, kept until the engine has joined
  // its dispatcher: the dispatcher drops its reference to the exception
  // when admit's catch ends, and the count that orders that release
  // before this thread's read of the text lives in the uninstrumented
  // runtime, so TSan would see the last release, on the dispatcher, race
  // the read.  Declared before the engine, it is released after it.
  std::vector<std::exception_ptr> rejections;
  ServeEngine engine(ops5::parse_program(kPairProgram));
  constexpr std::uint32_t kSessions = 3;
  constexpr int kTransactions = 2400;
  constexpr int kEvictAt = 1800;  // session 2 is evicted here
  std::vector<Session> sessions;
  std::vector<RefSession> ref(kSessions);
  for (std::uint32_t i = 0; i < kSessions; ++i) {
    SessionOptions options;
    if (i == 1) options.max_live_wmes = 12;
    ref[i].max_live_wmes = options.max_live_wmes;
    sessions.push_back(engine.open_session(options));
  }
  Rng rng(20261020);
  std::uint64_t rejected = 0;
  // Rejections by kind, each named by a piece of its text.
  std::vector<std::pair<std::string, int>> kinds = {
      {"outside the 40-bit", 0},
      {"is already live", 0},
      {"re-added after a remove", 0},
      {"max_live_wmes bound", 0},
      {"remove of unknown", 0}};
  const auto check_stats = [&](int t) {
    const ServeStats stats = engine.stats();
    ASSERT_EQ(stats.rejected, rejected) << "transaction " << t;
    for (std::uint32_t i = 0; i < kSessions; ++i) {
      EXPECT_EQ(stats.sessions[i].live_wmes, ref[i].live.size())
          << "session " << i << " after transaction " << t;
      EXPECT_EQ(stats.sessions[i].transactions, ref[i].transactions)
          << "session " << i << " after transaction " << t;
    }
  };
  const auto run = [&](int t, std::uint32_t i, const std::vector<GenOp>& ops) {
    Transaction tx;
    for (const GenOp& op : ops) {
      if (!op.add) {
        tx.remove(WmeId{*op.id});
        continue;
      }
      const std::string cls = rng.below(4) == 0 ? "probe" : "item";
      ops5::Wme w =
          wme("(" + cls + " ^key k" + std::to_string(rng.below(6)) + ")");
      if (op.id.has_value()) w.rebind_id(WmeId{*op.id});
      tx.add(std::move(w));
    }
    const RefOutcome expected = reference_admit(ref[i], i, ops);
    std::vector<std::uint64_t> added;
    std::string error;
    try {
      for (WmeId id : sessions[i].transact(std::move(tx)).added) {
        added.push_back(id.value());
      }
    } catch (const UsageError& e) {
      rejections.push_back(std::current_exception());
      error = e.what();
    }
    if (!expected.error.empty()) ++rejected;
    for (auto& [text, seen] : kinds) {
      seen += expected.error.find(text) != std::string::npos;
    }
    EXPECT_EQ(error, expected.error) << "transaction " << t;
    EXPECT_EQ(added, expected.added) << "transaction " << t;
    check_stats(t);
    return added;
  };

  // A rejected transaction that took ids, explicit and id-less, leaves
  // the next id-less add the id it would have had.
  const std::uint64_t next = ref[0].next_local;
  run(-2, 0,
      {{true, std::nullopt}, {true, next + 40}, {false, next + 99}});
  EXPECT_EQ(run(-1, 0, {{true, std::nullopt}}),
            std::vector<std::uint64_t>{next});

  for (int t = 0; t < kTransactions; ++t) {
    if (t == kEvictAt) {
      EXPECT_TRUE(engine.evict(2).get().added.empty());
      ref[2].live.clear();
      ref[2].open = false;
      ++ref[2].transactions;
      check_stats(t);
      continue;
    }
    auto i = static_cast<std::uint32_t>(rng.below(kSessions));
    if (!ref[i].open) i = static_cast<std::uint32_t>(rng.below(2));
    run(t, i, generate_ops(rng, ref[i]));
    if (HasFatalFailure()) return;
  }
  // Both outcomes, and every kind of rejection, were exercised.
  EXPECT_GT(rejected, std::uint64_t{kTransactions} / 5);
  EXPECT_LT(rejected, std::uint64_t{kTransactions} * 4 / 5);
  for (const auto& [text, seen] : kinds) {
    EXPECT_GT(seen, 10) << text;
  }
  EXPECT_EQ(engine.stats().cross_session_deltas, 0u);
}

}  // namespace
}  // namespace mpps::serve
