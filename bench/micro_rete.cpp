// Micro-benchmarks for the Rete substrate, including the ablation behind
// the paper's Section 3.1 claim that hashed memories cut token comparisons
// by up to ~10x versus linear memories (here: 256 buckets vs a single
// bucket, which degenerates to a linear scan of each node's memory).
#include <benchmark/benchmark.h>

#include <string>

#include "src/ops5/parser.hpp"
#include "src/rete/engine.hpp"
#include "src/rete/memory.hpp"
#include "src/rete/network.hpp"

namespace {

using namespace mpps;

const char* kJoinProgram = R"(
  (p pair (a ^v <x>) (b ^v <x>) --> (halt)))";

void drive_engine(rete::Engine& engine, int n) {
  ops5::WorkingMemory wm;
  for (int i = 0; i < n; ++i) {
    wm.add(ops5::parse_wme("(a ^v k" + std::to_string(i) + ")"));
    wm.add(ops5::parse_wme("(b ^v k" + std::to_string(i) + ")"));
  }
  for (const auto& change : wm.drain_changes()) {
    engine.process_change(change);
  }
}

void BM_EngineHashedMemories(benchmark::State& state) {
  const auto program = ops5::parse_program(kJoinProgram);
  const auto net = rete::Network::compile(program);
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    rete::EngineOptions opts;
    opts.num_buckets = 256;
    rete::Engine engine(net, opts);
    drive_engine(engine, n);
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
  for (auto _ : state) {
    rete::EngineOptions opts;
    opts.num_buckets = 1;
    rete::Engine engine(net, opts);
    drive_engine(engine, n);
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
        NodeId{3}, bucket, key, [](std::span<const WmeId>, int&) {}));
    memory.erase(NodeId{3}, bucket, t);
    ++i;
  }
}
BENCHMARK(BM_HashedMemoryInsertErase);

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
