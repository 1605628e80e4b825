// Heap allocations, counted.  This binary replaces the global operator
// new with one that counts while a window is open, so a test can assert
// how many allocations a piece of work makes.  It has its own binary
// because the replacement is process-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <future>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/ops5/parser.hpp"
#include "src/pmatch/engine.hpp"
#include "src/rete/conflict.hpp"
#include "src/rete/engine.hpp"
#include "src/rete/interp.hpp"
#include "src/rete/network.hpp"
#include "src/serve/serve.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// Every plain, array and nothrow form allocates with malloc and frees
// with free, so no allocation and release pair up across two
// allocators.  The over-aligned forms keep their defaults, which pair
// with each other.  The deletes are not inlined: GCC would pair an
// inlined free() with the caller's `new` and warn of a mismatch.
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mpps {
namespace {

/// The number of operator-new calls `work` makes.
template <typename Work>
std::uint64_t allocations_in(Work&& work) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  work();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

/// Adds 32 `a` and 32 `b` wmes over 8 keys, then deletes them in the
/// order they were added.
std::vector<ops5::WmeChange> adds_then_deletes() {
  ops5::WorkingMemory wm;
  std::vector<WmeId> ids;
  for (int i = 0; i < 32; ++i) {
    const std::string k = std::to_string(i % 8);
    const std::string v = std::to_string(i);
    ids.push_back(wm.add(ops5::parse_wme("(a ^k " + k + " ^v " + v + ")")));
    ids.push_back(wm.add(ops5::parse_wme("(b ^k " + k + " ^v " + v + ")")));
  }
  for (WmeId id : ids) wm.remove(id);
  return wm.drain_changes();
}

/// Heap allocations of the second of two identical passes of `changes`
/// through a serial engine for `source`.
std::uint64_t second_pass_allocations(
    std::string_view source, const std::vector<ops5::WmeChange>& changes) {
  const rete::Network net = rete::Network::compile(ops5::parse_program(source));
  rete::Engine engine(net);
  const auto pass = [&] {
    for (const ops5::WmeChange& change : changes) engine.process_change(change);
  };
  pass();  // warm-up: memories, queue and scratch reach their capacity
  const std::uint64_t allocations = allocations_in(pass);
  EXPECT_EQ(engine.left_memory().total_tokens(), 0u);
  EXPECT_EQ(engine.right_memory().total_tokens(), 0u);
  EXPECT_TRUE(engine.conflict_set().empty());
  return allocations;
}

/// The same second pass through a parallel engine at `threads`, one
/// change per phase.
std::uint64_t parallel_second_pass_allocations(
    std::string_view source, const std::vector<ops5::WmeChange>& changes,
    std::uint32_t threads) {
  const rete::Network net = rete::Network::compile(ops5::parse_program(source));
  pmatch::ParallelOptions popts;
  popts.threads = threads;
  pmatch::ParallelEngine engine(net, popts);
  const auto pass = [&] {
    for (const ops5::WmeChange& change : changes) engine.process_change(change);
  };
  pass();  // warm-up: memories, item pools and phase scratch reach capacity
  const std::uint64_t allocations = allocations_in(pass);
  EXPECT_EQ(engine.phases(), 2 * changes.size());
  EXPECT_TRUE(engine.conflict_set().empty());
  return allocations;
}

TEST(Allocations, SteadyStateJoinsAndWmeTableAllocateNothing) {
  const std::vector<ops5::WmeChange> changes = adds_then_deletes();
  // Every a joins the three b of its key with another v, and the 96 pairs
  // wait in the second join's left memory for a c that never comes, so
  // nothing reaches the conflict set.
  EXPECT_EQ(second_pass_allocations(
                "(p never (a ^k <x> ^v <v>) (b ^k <x> ^v <> <v>) (c ^k <x>)"
                " --> (halt))",
                changes),
            0u);
  // No wme passes an alpha test here, so only the wme table works: each
  // add takes a row an earlier delete freed, with its storage.
  EXPECT_EQ(
      second_pass_allocations("(p idle (z ^k <x>) --> (halt))", changes), 0u);
}

TEST(Allocations, ParallelPhasesAllocateNothing) {
  const std::vector<ops5::WmeChange> changes = adds_then_deletes();
  for (const std::uint32_t threads : {1u, 2u}) {
    // The `never` program of the test above: 128 phases that reach no
    // conflict set take their scratch from the engine, not the heap.  At
    // 2 threads the traffic is one-sided, so the items one worker retires
    // must reach the pool of the worker that takes them.
    EXPECT_EQ(parallel_second_pass_allocations(
                  "(p never (a ^k <x> ^v <v>) (b ^k <x> ^v <> <v>)"
                  " (c ^k <x>) --> (halt))",
                  changes, threads),
              0u)
        << threads << " threads";
    // 96 instantiations are added and removed: each delta's token goes
    // into its worker's delta buffer, and each add into a conflict-set
    // row that an earlier remove freed.
    EXPECT_EQ(parallel_second_pass_allocations(
                  "(p pair (a ^k <x> ^v <v>) (b ^k <x> ^v <> <v>) --> (halt))",
                  changes, threads),
              0u)
        << threads << " threads";
  }
}

TEST(Allocations, ConflictSetRemoveAndMarkFiredAllocateNothing) {
  rete::ConflictSet cs([](ProductionId) { return std::size_t{1}; });
  for (std::uint64_t i = 0; i < 200; ++i) {
    cs.add(rete::Instantiation{ProductionId{static_cast<std::uint32_t>(i % 3)},
                               rete::Token{{WmeId{i}, WmeId{i + 7}}}});
  }
  const std::vector<rete::Instantiation> all = cs.all();
  std::size_t removed = 0;
  const std::uint64_t allocations = allocations_in([&] {
    for (const rete::Instantiation& inst : all) cs.mark_fired(inst);
    for (const rete::Instantiation& inst : all) removed += cs.remove(inst);
  });
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(removed, all.size());
  EXPECT_TRUE(cs.empty());
  // Re-adding takes the freed rows back, and selects view them in place.
  const std::uint64_t readd = allocations_in([&] {
    for (const rete::Instantiation& inst : all) cs.add(inst);
    for (std::size_t i = 0; i < all.size(); ++i) {
      const auto picked = cs.select(rete::Strategy::Lex);
      ASSERT_TRUE(picked.has_value());
      cs.mark_fired(*picked);
    }
  });
  EXPECT_EQ(readd, 0u);
  EXPECT_EQ(cs.size(), all.size());
  EXPECT_FALSE(cs.select(rete::Strategy::Lex).has_value());
}

/// A Miss Manners party of `guests`, built as examples/manners.cpp builds
/// it: alternating sexes, the shared hobby h0 and two more from a pool.
std::string manners_source(int guests) {
  std::string source = R"(
    (p seat-first-guest
      (context ^state start)
      (guest ^name <g>)
      -->
      (make seated ^name <g> ^seat 1)
      (make last ^name <g> ^seat 1)
      (modify 1 ^state assign))

    (p seat-next-guest
      (context ^state assign)
      (last ^name <n1> ^seat <s>)
      (guest ^name <n1> ^sex <sx> ^hobby <h>)
      (guest ^name { <n2> <> <n1> } ^sex <> <sx> ^hobby <h>)
      -(seated ^name <n2>)
      -->
      (make seated ^name <n2> ^seat (compute <s> + 1))
      (modify 2 ^name <n2> ^seat (compute <s> + 1)))

    (p everyone-seated
      (context ^state assign)
      (party ^guests <n>)
      (last ^seat <n>)
      -->
      (halt)))";
  source += "\n(make context ^state start)\n";
  source += "(make party ^guests " + std::to_string(guests) + ")\n";
  for (int i = 0; i < guests; ++i) {
    const std::string guest = "(make guest ^name g" + std::to_string(i) +
                              " ^sex " + (i % 2 == 0 ? "m" : "f") +
                              " ^hobby h";
    source += guest + "0)\n";
    source += guest + std::to_string(1 + i % 3) + ")\n";
    source += guest + std::to_string(1 + (i + 1) % 3) + ")\n";
  }
  return source;
}

TEST(Allocations, MannersCyclesAllocateOnlyForTheirActions) {
  // Every cycle seats one guest: it makes two wmes and deletes one, and
  // the conflict set takes hundreds of deltas.  What a cycle still
  // allocates is its own, about 19 in all: the drained changes, the
  // firing record, the RHS's new wmes and the memory cells of the new
  // guest's name.  A copy per activation or per conflict-set delta would
  // add hundreds.
  constexpr int kGuests = 256;
  rete::Interpreter interp(ops5::parse_program(manners_source(kGuests)));
  interp.load_initial_wmes();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(interp.step());
  const std::uint64_t tokens_before =
      interp.match_engine().stats().tokens_generated;
  rete::RunResult result;
  const std::uint64_t allocations =
      allocations_in([&] { result = interp.run(); });
  ASSERT_EQ(result.outcome, rete::RunResult::Outcome::Halted);
  ASSERT_EQ(result.firings, static_cast<std::size_t>(kGuests + 1));
  const std::size_t cycles = result.cycles - 5;
  EXPECT_GT(interp.match_engine().stats().tokens_generated - tokens_before,
            100 * cycles);
  EXPECT_LE(allocations, 24 * cycles)
      << allocations << " allocations over " << cycles << " cycles";
}

TEST(Allocations, ServeTransactionsAllocateOnlyForTheirResults) {
  // The shape of perfbench's `tenants`: 32 sessions on 2 match threads,
  // admission batch 16.  Each session holds 16 slots of 2 `item`s and 8
  // `tag`s; each transaction adds a `trigger`, which fires 2
  // instantiations, and once 8 triggers are live retracts the session's
  // oldest, which retracts 2.  A transaction still allocates about 10
  // times, 9 of them its own: the promise's two, `added`, `fired` and its
  // two tokens, the stamped session attribute, the delete's content and
  // the live-set node; now and then a match memory cell grows or the
  // admission queue takes a block.  Copying the session's live set would
  // add one per live wme.
  constexpr std::size_t kSessions = 32;
  constexpr int kSlots = 16;
  constexpr std::size_t kLiveTriggers = 8;
  constexpr int kWarmRounds = 16;
  constexpr int kRounds = 16;
  std::string source;
  for (int s = 0; s < kSlots; ++s) {
    const std::string slot = std::to_string(s);
    source += "(p match" + slot + " (trigger ^slot " + slot +
              " ^g <g>) (item ^slot " + slot +
              " ^g <g> ^v <v>) (tag ^v <v>) --> (halt))\n";
  }
  serve::ServeOptions options;
  options.match.threads = 2;
  options.admission_batch = 16;
  serve::ServeEngine engine(ops5::parse_program(source), options);

  // Each slot's items share a ^g; ^g and ^v vary with the session.
  const auto group = [](std::size_t c, int slot) {
    return std::to_string((static_cast<int>(c) + slot) % 4);
  };
  struct Client {
    serve::Session session;
    std::uint64_t next_local = 1;
    std::deque<std::uint64_t> triggers;  // live, oldest first
  };
  std::vector<Client> clients(kSessions);
  for (std::size_t c = 0; c < kSessions; ++c) {
    clients[c].session = engine.open_session();
    serve::Transaction install;
    for (int slot = 0; slot < kSlots; ++slot) {
      for (int i = 0; i < 2; ++i) {
        const int v = (static_cast<int>(c) + 3 * slot + 5 * i) % 8;
        install.add(ops5::parse_wme("(item ^slot " + std::to_string(slot) +
                                    " ^g " + group(c, slot) + " ^v " +
                                    std::to_string(v) + ")"));
      }
    }
    for (int v = 0; v < 8; ++v) {
      install.add(ops5::parse_wme("(tag ^v " + std::to_string(v) + ")"));
    }
    clients[c].next_local += install.size();
    clients[c].session.transact(std::move(install));
  }
  struct Planned {
    serve::Transaction tx;
    std::uint64_t trigger = 0;  // the local id its add gets
    bool retracts = false;
  };
  // Round r's transaction for every session.
  const auto plan_round = [&](int r) {
    std::vector<Planned> round(kSessions);
    for (std::size_t c = 0; c < kSessions; ++c) {
      Client& client = clients[c];
      Planned& p = round[c];
      if (client.triggers.size() == kLiveTriggers) {
        p.tx.remove(WmeId{client.triggers.front()});
        client.triggers.pop_front();
        p.retracts = true;
      }
      const int slot = (static_cast<int>(c) * 7 + r * 5) % kSlots;
      p.tx.add(ops5::parse_wme("(trigger ^slot " + std::to_string(slot) +
                               " ^g " + group(c, slot) + ")"));
      p.trigger = client.next_local++;
      client.triggers.push_back(p.trigger);
    }
    return round;
  };
  std::vector<std::future<serve::TxResult>> futures;
  futures.reserve(kSessions);
  std::uint64_t wrong = 0;  // results other than the planned ones
  const auto run_round = [&](std::vector<Planned>& round) {
    for (std::size_t c = 0; c < kSessions; ++c) {
      futures.push_back(clients[c].session.submit(std::move(round[c].tx)));
    }
    for (std::size_t c = 0; c < kSessions; ++c) {
      const serve::TxResult r = futures[c].get();
      wrong += r.added.size() != 1 ||
               r.added.front().value() != round[c].trigger ||
               r.fired.size() != 2 ||
               r.retracted != (round[c].retracts ? 2u : 0u);
    }
    futures.clear();
  };
  for (int r = 0; r < kWarmRounds; ++r) {
    std::vector<Planned> round = plan_round(r);
    run_round(round);
  }
  std::vector<std::vector<Planned>> rounds;
  for (int r = 0; r < kRounds; ++r) {
    rounds.push_back(plan_round(kWarmRounds + r));
  }
  const std::uint64_t allocations = allocations_in([&] {
    for (std::vector<Planned>& round : rounds) run_round(round);
  });
  EXPECT_EQ(wrong, 0u);
  const std::uint64_t transactions = std::uint64_t{kRounds} * kSessions;
  EXPECT_LE(allocations, 14 * transactions)
      << allocations << " allocations over " << transactions
      << " transactions";
  EXPECT_EQ(engine.stats().cross_session_deltas, 0u);
}

}  // namespace
}  // namespace mpps
