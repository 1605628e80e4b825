// The public API facade.  `#include "src/mpps.hpp"` is the one header a
// downstream user needs: it re-exports the supported surface into the
// top-level `mpps` namespace and adds fluent builders for the option
// structs.  Everything not re-exported here is internal — reachable, but
// subject to change without notice (docs/API.md is the contract).
//
// The supported surface, end to end:
//
//   using namespace mpps;
//   Program program = parse_program(source);          // OPS5 text → AST
//   Network net = Network::compile(program);          // → Rete network
//   Interpreter interp(program, ...);                 // match-resolve-act
//   ParallelEngine / parallel_engine_factory(...)     // threaded matcher
//   ServeEngine serve(program, opts);                 // multi-tenant server
//   Session s = serve.open_session();                 //   one WM partition
//   TxResult r = s.transact(tx);                      //   docs/SERVING.md
//   Collector                                         // records a Trace
//   SimResult r = simulate(trace, config, assign);    // simulated MPC
//   SweepRunner(opts).run(scenarios)                  // parallel sweeps
//   check_corpus(builtin_corpus(), CheckOptions{})    // model checker
//
// Mutating working memory: the Session/Transaction surface is THE way to
// stream WM changes into a live engine — batch replay is a single session
// replaying a recorded stream (`Session::transact(changes)`), and the
// interpreter's act phases ride the same `begin_batch`/`flush`
// transaction path underneath.  `ParallelEngine::process_changes` remains
// as a thin shim over that path for existing callers.
//
// Builders (each `build()` returns the plain options struct).  Setters
// store; the consumer (simulate, Engine, ParallelEngine, ServeEngine)
// calls the struct's `validate()`, whose mpps::UsageError names the
// struct and the field, so a bad value fails the same way whether the
// struct was built or filled directly (docs/API.md, "Builders"):
//
//   SimConfig config = SimConfigBuilder()
//       .match_processors(16).run(2).pairs_mapping()
//       .termination(TerminationModel::AckCounting).build();
//   EngineOptions eopts = EngineOptionsBuilder()
//       .num_buckets(128).metrics(&registry).build();
//   ParallelOptions popts = ParallelOptionsBuilder()
//       .threads(4).random_partition(7).build();
//   ServeOptions sopts = ServeOptionsBuilder()
//       .threads(4).admission_batch(16).queue_capacity(256).build();
#pragma once

#include "src/common/error.hpp"
#include "src/core/cli.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/sweep.hpp"
#include "src/mc/checker.hpp"
#include "src/mc/controller.hpp"
#include "src/mc/scenario.hpp"
#include "src/mc/schedule.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/tracer.hpp"
#include "src/ops5/parser.hpp"
#include "src/ops5/wme.hpp"
#include "src/pmatch/engine.hpp"
#include "src/rete/engine.hpp"
#include "src/rete/interp.hpp"
#include "src/rete/network.hpp"
#include "src/serve/serve.hpp"
#include "src/sim/assignment.hpp"
#include "src/sim/costs.hpp"
#include "src/sim/simulator.hpp"
#include "src/trace/collector.hpp"
#include "src/trace/io.hpp"
#include "src/trace/record.hpp"

namespace mpps {

// --- OPS5 front end --------------------------------------------------------
using ops5::parse_program;
using ops5::Program;
using ops5::Value;
using ops5::Wme;
using ops5::WmeChange;
using ops5::WorkingMemory;

// --- Match engines ---------------------------------------------------------
using rete::Engine;
using rete::EngineOptions;
using rete::EngineStats;
using rete::Interpreter;
using rete::InterpreterOptions;
using rete::MatchEngine;
using rete::MatchEngineFactory;
using rete::Network;
using rete::Strategy;
using pmatch::greedy_static;
using pmatch::parallel_engine_factory;
using pmatch::ParallelEngine;
using pmatch::ParallelOptions;
using pmatch::WorkerStats;

// --- Serving ---------------------------------------------------------------
using serve::LatencyReport;
using serve::ServeEngine;
using serve::ServeOptions;
using serve::ServeStats;
using serve::Session;
using serve::SessionOptions;
using serve::Transaction;
using serve::TxResult;

// --- Traces ----------------------------------------------------------------
using trace::Collector;
using trace::read_trace;
using trace::Trace;
using trace::write_trace;

// --- Simulated machine -----------------------------------------------------
using sim::Assignment;
using sim::baseline_time;
using sim::CostModel;
using sim::MappingMode;
using sim::simulate;
using sim::SimConfig;
using sim::SimResult;
using sim::TerminationModel;

// --- Orchestration ---------------------------------------------------------
using core::PipelineOptions;
using core::PipelineResult;
using core::record_trace_from_source;
using core::run_cli;
using core::SweepOptions;
using core::SweepOutcome;
using core::SweepRunner;
using core::SweepScenario;

// --- Model checker ---------------------------------------------------------
using mc::builtin_corpus;
using mc::check_corpus;
using mc::check_scenario;
using mc::CheckOptions;
using mc::CheckReport;
using mc::run_schedule;
using mc::Scenario;
using mc::ScenarioReport;
using mc::ScheduleId;

// --- Observability sinks ---------------------------------------------------
using obs::print_profile_report;
using obs::prof_category_name;
using obs::ProfCategory;
using obs::ProfileReport;
using obs::Profiler;
using obs::Registry;
using obs::Tracer;

/// Fluent builder for `SimConfig` (the simulated machine's shape).
class SimConfigBuilder {
 public:
  SimConfigBuilder& match_processors(std::uint32_t n) {
    config_.match_processors = n;
    return *this;
  }
  /// Overhead cost model: `CostModel::paper_run(paper_run)`.
  SimConfigBuilder& run(int paper_run) {
    config_.costs = CostModel::paper_run(paper_run);
    return *this;
  }
  SimConfigBuilder& costs(const CostModel& model) {
    config_.costs = model;
    return *this;
  }
  /// Map each bucket pair onto a left/right processor pair (default:
  /// merged — one processor serves both sides).
  SimConfigBuilder& pairs_mapping() {
    config_.mapping = MappingMode::ProcessorPairs;
    return *this;
  }
  SimConfigBuilder& constant_test_processors(std::uint32_t n) {
    config_.constant_test_processors = n;
    return *this;
  }
  SimConfigBuilder& conflict_set_processors(std::uint32_t n) {
    config_.conflict_set_processors = n;
    return *this;
  }
  SimConfigBuilder& termination(TerminationModel model) {
    config_.termination = model;
    return *this;
  }
  SimConfigBuilder& metrics(Registry* registry) {
    config_.metrics = registry;
    return *this;
  }
  SimConfigBuilder& tracer(Tracer* tracer) {
    config_.tracer = tracer;
    return *this;
  }
  [[nodiscard]] SimConfig build() const { return config_; }

 private:
  SimConfig config_;
};

/// Fluent builder for `EngineOptions` (the serial matcher's knobs).
class EngineOptionsBuilder {
 public:
  EngineOptionsBuilder& num_buckets(std::uint32_t n) {
    options_.num_buckets = n;
    return *this;
  }
  EngineOptionsBuilder& metrics(Registry* registry) {
    options_.metrics = registry;
    return *this;
  }
  [[nodiscard]] EngineOptions build() const { return options_; }

 private:
  EngineOptions options_;
};

/// Fluent builder for `ParallelOptions` (the threaded matcher's knobs).
class ParallelOptionsBuilder {
 public:
  ParallelOptionsBuilder& threads(std::uint32_t n) {
    options_.threads = n;
    return *this;
  }
  /// 0 (the default) inherits the interpreter's EngineOptions::num_buckets.
  ParallelOptionsBuilder& num_buckets(std::uint32_t n) {
    options_.num_buckets = n;
    return *this;
  }
  ParallelOptionsBuilder& round_robin_partition() {
    options_.partition = ParallelOptions::Partition::RoundRobin;
    return *this;
  }
  ParallelOptionsBuilder& random_partition(std::uint64_t seed) {
    options_.partition = ParallelOptions::Partition::Random;
    options_.seed = seed;
    return *this;
  }
  /// Explicit bucket→worker map, e.g. from `greedy_static`.
  ParallelOptionsBuilder& assignment(Assignment map) {
    options_.assignment = std::move(map);
    return *this;
  }
  /// Items a worker may receive from other workers in one round before
  /// they count as mailbox overflows; never blocks.
  ParallelOptionsBuilder& mailbox_capacity(std::size_t n) {
    options_.mailbox_capacity = n;
    return *this;
  }
  /// WM changes fused per BSP phase by `process_changes`: 1 (default)
  /// keeps one-change-one-phase; 0 means unbounded (one phase per act
  /// batch).  docs/PARALLEL_MATCH.md, "Batching WM changes".
  ParallelOptionsBuilder& max_batch(std::uint32_t n) {
    options_.max_batch = n;
    return *this;
  }
  ParallelOptionsBuilder& metrics(Registry* registry) {
    options_.metrics = registry;
    return *this;
  }
  /// Wall-clock phase-attribution profiler (not owned; must outlive the
  /// engine).  The engine attaches it at construction; pull
  /// `profiler->report()` after the run for the Table 5-1-style split.
  ParallelOptionsBuilder& profiler(Profiler* profiler) {
    options_.profiler = profiler;
    return *this;
  }
  [[nodiscard]] ParallelOptions build() const { return options_; }

 private:
  ParallelOptions options_;
};

/// Fluent builder for `ServeOptions` (the multi-tenant serving engine's
/// knobs).  The match-side setters mirror `ParallelOptionsBuilder`;
/// `max_batch`/`schedule` are deliberately absent — the admission batcher
/// owns phase boundaries (docs/SERVING.md, "Admission batching").
class ServeOptionsBuilder {
 public:
  /// Worker threads in the underlying `ParallelEngine`.
  ServeOptionsBuilder& threads(std::uint32_t n) {
    options_.match.threads = n;
    return *this;
  }
  ServeOptionsBuilder& num_buckets(std::uint32_t n) {
    options_.match.num_buckets = n;
    return *this;
  }
  ServeOptionsBuilder& mailbox_capacity(std::size_t n) {
    options_.match.mailbox_capacity = n;
    return *this;
  }
  /// Most transactions (one per session) fused into a single BSP phase.
  ServeOptionsBuilder& admission_batch(std::uint32_t n) {
    options_.admission_batch = n;
    return *this;
  }
  /// Bound on queued transactions before `submit` blocks (backpressure).
  ServeOptionsBuilder& queue_capacity(std::size_t n) {
    options_.queue_capacity = n;
    return *this;
  }
  ServeOptionsBuilder& max_sessions(std::uint32_t n) {
    options_.max_sessions = n;
    return *this;
  }
  ServeOptionsBuilder& metrics(Registry* registry) {
    options_.metrics = registry;
    return *this;
  }
  [[nodiscard]] ServeOptions build() const { return options_; }

 private:
  ServeOptions options_;
};

}  // namespace mpps
