// Micro-benchmarks for the Rete substrate, including the ablation behind
// the paper's Section 3.1 claim that hashed memories cut token comparisons
// by up to ~10x versus linear memories (here: 256 buckets vs a single
// bucket, which degenerates to a linear scan of each node's memory).
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/ops5/parser.hpp"
#include "src/rete/conflict.hpp"
#include "src/rete/engine.hpp"
#include "src/rete/join.hpp"
#include "src/rete/memory.hpp"
#include "src/rete/network.hpp"
#include "src/rete/wme_table.hpp"

namespace {

using namespace mpps;

const char* kJoinProgram = R"(
  (p pair (a ^v <x>) (b ^v <x>) --> (halt)))";

/// n `a` and n `b` adds, each `a` joining one `b`; parsed once, so the
/// timed loops run the engine only.
std::vector<ops5::WmeChange> pair_changes(int n) {
  ops5::WorkingMemory wm;
  for (int i = 0; i < n; ++i) {
    wm.add(ops5::parse_wme("(a ^v k" + std::to_string(i) + ")"));
    wm.add(ops5::parse_wme("(b ^v k" + std::to_string(i) + ")"));
  }
  return wm.drain_changes();
}

void drive_engine(rete::Engine& engine,
                  const std::vector<ops5::WmeChange>& changes) {
  for (const auto& change : changes) engine.process_change(change);
}

void BM_EngineHashedMemories(benchmark::State& state) {
  const auto program = ops5::parse_program(kJoinProgram);
  const auto net = rete::Network::compile(program);
  const auto n = static_cast<int>(state.range(0));
  const std::vector<ops5::WmeChange> changes = pair_changes(n);
  for (auto _ : state) {
    rete::EngineOptions opts;
    opts.num_buckets = 256;
    rete::Engine engine(net, opts);
    drive_engine(engine, changes);
    benchmark::DoNotOptimize(engine.conflict_set().size());
    state.counters["entries_scanned"] = static_cast<double>(
        engine.left_memory().entries_scanned() +
        engine.right_memory().entries_scanned());
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_EngineHashedMemories)->Arg(256)->Arg(2048);

void BM_EngineLinearMemories(benchmark::State& state) {
  // One bucket per side: every lookup scans the node's whole memory — the
  // pre-hashing Rete behaviour the paper's hash tables replace.
  const auto program = ops5::parse_program(kJoinProgram);
  const auto net = rete::Network::compile(program);
  const auto n = static_cast<int>(state.range(0));
  const std::vector<ops5::WmeChange> changes = pair_changes(n);
  for (auto _ : state) {
    rete::EngineOptions opts;
    opts.num_buckets = 1;
    rete::Engine engine(net, opts);
    drive_engine(engine, changes);
    benchmark::DoNotOptimize(engine.conflict_set().size());
    state.counters["entries_scanned"] = static_cast<double>(
        engine.left_memory().entries_scanned() +
        engine.right_memory().entries_scanned());
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_EngineLinearMemories)->Arg(256)->Arg(2048);

void BM_HashedMemoryInsertErase(benchmark::State& state) {
  rete::HashedMemory memory(256);
  std::vector<ops5::Value> key{ops5::Value(7L)};
  const std::uint32_t bucket = memory.bucket_of(NodeId{3}, key);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const WmeId t[] = {WmeId{i}, WmeId{i + 1}};
    memory.insert(NodeId{3}, bucket, t, key);
    benchmark::DoNotOptimize(memory.probe(
        NodeId{3}, bucket, key,
        [](std::span<const WmeId>, std::span<const ops5::Value>, int&) {}));
    memory.erase(NodeId{3}, bucket, t);
    ++i;
  }
}
BENCHMARK(BM_HashedMemoryInsertErase);

/// Counts what a join emits and keeps nothing.
struct CountingSink {
  std::uint64_t emitted = 0;
  void successor(NodeId, std::span<const WmeId>, rete::Tag) { ++emitted; }
  void instantiation(ProductionId, std::span<const WmeId>, rete::Tag) {
    ++emitted;
  }
};

void BM_JoinTwoNotEqualTestsOver256(benchmark::State& state) {
  // The shape of Manners' seat-next-guest join: one equality test puts all
  // 256 `b` wmes in one cell, and two <> tests decide each candidate.
  // Each iteration is one left activation (alternately + and -) through
  // the join kernel, so Time is ns per activation.
  const auto net = rete::Network::compile(ops5::parse_program(
      "(p pair (a ^k <k> ^x <x> ^y <y>) (b ^k <k> ^x <> <x> ^y <> <y>)"
      " --> (halt))"));
  const rete::BetaNode& node = net.betas().front();
  rete::WmeTable wmes(net.slot_attrs());
  rete::JoinKernel join(wmes, 256);
  CountingSink sink;
  std::vector<ops5::Value> operands;
  ops5::WorkingMemory wm;
  for (int i = 0; i < 256; ++i) {
    const WmeId id = wm.add(ops5::parse_wme(
        "(b ^k 1 ^x " + std::to_string(i % 4) + " ^y " +
        std::to_string(i % 3) + ")"));
    wmes.insert(*wm.find(id));
    operands.clear();
    join.right_operands(node, id, operands);
    join.right_activation(node, rete::Tag::Plus, id, operands,
                          join.bucket_of(node, operands), sink);
  }
  const WmeId a = wm.add(ops5::parse_wme("(a ^k 1 ^x 0 ^y 0)"));
  wmes.insert(*wm.find(a));
  operands.clear();
  join.left_operands(node, std::span(&a, 1), operands);
  const std::uint32_t bucket = join.bucket_of(node, operands);
  rete::Tag tag = rete::Tag::Plus;
  for (auto _ : state) {
    benchmark::DoNotOptimize(join.left_activation(
        node, tag, std::span(&a, 1), operands, bucket, sink));
    tag = tag == rete::Tag::Plus ? rete::Tag::Minus : rete::Tag::Plus;
  }
  benchmark::DoNotOptimize(sink.emitted);
  state.counters["time_per_activation"] = benchmark::Counter(
      static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["matches_per_activation"] = benchmark::Counter(
      static_cast<double>(sink.emitted) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_JoinTwoNotEqualTestsOver256);

/// A 4-wme token in the shape of Manners' seat-next-guest: one old wme
/// (the context) and three newer ones from timetag `first` on.  Its first
/// three wmes make a 3-wme token.
std::array<WmeId, 4> cs_token(std::uint64_t first) {
  return {WmeId{1}, WmeId{first}, WmeId{first + 2}, WmeId{first + 1}};
}

rete::ConflictSet manners_like_set() {
  return rete::ConflictSet(
      [](ProductionId p) { return std::size_t{6} + p.value(); });
}

void BM_ConflictSetChurn(benchmark::State& state) {
  // Manners' peak: 768 live entries.  Each iteration adds one 3- or
  // 4-wme instantiation and removes the one added 768 iterations
  // earlier, so Time is ns per add + remove pair.
  constexpr std::size_t kLive = 768;
  rete::ConflictSet cs = manners_like_set();
  std::vector<std::array<WmeId, 4>> ring(kLive);
  const auto length = [](std::uint64_t i) { return i % 2 == 0 ? 4u : 3u; };
  const auto production = [](std::uint64_t i) {
    return ProductionId{i % 2 == 0 ? 1u : 2u};
  };
  std::uint64_t i = 0;
  for (; i < kLive; ++i) {
    ring[i] = cs_token(2 + 3 * i);
    cs.add(production(i), std::span(ring[i]).first(length(i)));
  }
  for (auto _ : state) {
    std::array<WmeId, 4>& slot = ring[i % kLive];
    const std::uint64_t old = i - kLive;
    benchmark::DoNotOptimize(
        cs.remove(production(old), std::span(slot).first(length(old))));
    slot = cs_token(2 + 3 * i);
    cs.add(production(i), std::span(slot).first(length(i)));
    ++i;
  }
  state.counters["live"] = static_cast<double>(cs.size());
}
BENCHMARK(BM_ConflictSetChurn);

void BM_ConflictSetSelect(benchmark::State& state) {
  // Manners' mean: 130 entries.  Each iteration is one LEX select over
  // them, none fired, so Time is ns per select.
  constexpr std::uint64_t kEntries = 130;
  rete::ConflictSet cs = manners_like_set();
  for (std::uint64_t i = 0; i < kEntries; ++i) {
    // Interleave old and new timetags so the winner is not the last add.
    const std::uint64_t first = 2 + 3 * ((i * 67) % kEntries);
    const std::array<WmeId, 4> token = cs_token(first);
    cs.add(ProductionId{1}, token);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs.select(rete::Strategy::Lex));
  }
}
BENCHMARK(BM_ConflictSetSelect);

void BM_NetworkCompile(benchmark::State& state) {
  // A production system with shared prefixes — compile cost matters for
  // large rule bases.
  std::string source;
  for (int i = 0; i < 32; ++i) {
    source += "(p rule" + std::to_string(i) +
              " (a ^v <x>) (b ^v <x>) (c ^k " + std::to_string(i) +
              ") --> (halt))\n";
  }
  const auto program = ops5::parse_program(source);
  for (auto _ : state) {
    auto net = rete::Network::compile(program);
    benchmark::DoNotOptimize(net.betas().size());
  }
}
BENCHMARK(BM_NetworkCompile);

void BM_ParseProgram(benchmark::State& state) {
  std::string source;
  for (int i = 0; i < 16; ++i) {
    source += "(p rule" + std::to_string(i) +
              " (a ^v <x> ^w { > 2 <= 9 }) -(b ^v <x>) "
              "(c ^k << k1 k2 k3 >>) --> (make d ^v <x>) (remove 1))\n";
  }
  for (auto _ : state) {
    auto program = ops5::parse_program(source);
    benchmark::DoNotOptimize(program.productions.size());
  }
}
BENCHMARK(BM_ParseProgram);

}  // namespace
