// The public facade (src/mpps.hpp) end to end: everything a downstream
// user is promised — parse, compile, serial and parallel matching, trace
// collection, simulation, sweeps — reached ONLY through the facade's
// re-exported names and builders.  If a rename inside a sub-namespace
// breaks this suite, the facade (the public contract) regressed.
#include "src/mpps.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

// Two-CE productions so matching exercises the beta network (and thus
// the ActivationListener the Collector hangs off — single-CE productions
// take the direct alpha path and record no trace activations).
constexpr const char* kProgram = R"(
  (make job ^id 1)
  (make job ^id 2)
  (make worker ^id 1)
  (make worker ^id 2)
  (p assign (job ^id <i>) (worker ^id <i>) --> (remove 1))
)";

TEST(Facade, ParseCompileRun) {
  const mpps::Program program = mpps::parse_program(kProgram);
  const mpps::Network net = mpps::Network::compile(program);
  EXPECT_FALSE(net.productions().empty());

  mpps::InterpreterOptions options;
  options.engine = mpps::EngineOptionsBuilder().num_buckets(64).build();
  mpps::Interpreter interp(program, options);
  interp.load_initial_wmes();
  const auto result = interp.run();
  EXPECT_EQ(result.firings, 2u);
}

TEST(Facade, ParallelEngineThroughBuilder) {
  mpps::Registry registry;
  const mpps::ParallelOptions popts = mpps::ParallelOptionsBuilder()
                                          .threads(2)
                                          .random_partition(7)
                                          .mailbox_capacity(64)
                                          .metrics(&registry)
                                          .build();
  EXPECT_EQ(popts.threads, 2u);
  mpps::InterpreterOptions options;
  options.engine_factory = mpps::parallel_engine_factory(popts);
  mpps::Interpreter interp(mpps::parse_program(kProgram), options);
  interp.load_initial_wmes();
  const auto result = interp.run();
  EXPECT_EQ(result.firings, 2u);
  const auto& engine =
      dynamic_cast<const mpps::ParallelEngine&>(interp.match_engine());
  EXPECT_EQ(engine.threads(), 2u);
  EXPECT_EQ(engine.worker_stats().size(), 2u);
}

TEST(Facade, BatchedParallelEngineThroughBuilder) {
  const mpps::ParallelOptions popts = mpps::ParallelOptionsBuilder()
                                          .threads(2)
                                          .max_batch(16)
                                          .mailbox_capacity(64)
                                          .build();
  EXPECT_EQ(popts.max_batch, 16u);
  mpps::InterpreterOptions options;
  options.engine_factory = mpps::parallel_engine_factory(popts);
  mpps::Interpreter interp(mpps::parse_program(kProgram), options);
  interp.load_initial_wmes();
  const auto result = interp.run();
  EXPECT_EQ(result.firings, 2u);
  const auto& engine =
      dynamic_cast<const mpps::ParallelEngine&>(interp.match_engine());
  // Batching fuses phases, so the engine ran no more phases than changes.
  EXPECT_LE(engine.phases(), engine.changes());
}

TEST(Facade, BatchMisuseThrowsDocumentedErrors) {
  // The begin_batch()/flush() contract holds at the facade layer too:
  // flush without an open batch and a double begin_batch both raise
  // mpps::RuntimeError, and the engine stays usable after the throw.
  const mpps::Program program = mpps::parse_program(kProgram);
  const mpps::Network net = mpps::Network::compile(program);
  const mpps::ParallelOptions popts =
      mpps::ParallelOptionsBuilder().threads(2).build();
  mpps::ParallelEngine engine(net, popts);
  EXPECT_THROW(engine.flush(), mpps::RuntimeError);
  engine.begin_batch();
  EXPECT_THROW(engine.begin_batch(), mpps::RuntimeError);
  // Still inside the (single) open batch: flushing works and the engine
  // processes changes normally afterwards.
  engine.flush();
  EXPECT_FALSE(engine.batching());
  mpps::WorkingMemory wm;
  wm.add(mpps::Wme(mpps::Symbol::intern("job"),
                   {{mpps::Symbol::intern("id"), mpps::Value(9L)}}));
  for (const mpps::WmeChange& change : wm.drain_changes()) {
    engine.process_change(change);
  }
  EXPECT_EQ(engine.changes(), 1u);
}

TEST(Facade, ModelCheckerIsReachable) {
  // The model checker's supported surface: corpus, exhaustive check,
  // schedule IDs and single-schedule replay.
  const std::vector<mpps::Scenario> corpus = mpps::builtin_corpus();
  ASSERT_FALSE(corpus.empty());
  mpps::CheckOptions options;
  const mpps::ScenarioReport report =
      mpps::check_scenario(corpus.front(), options);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(
      mpps::run_schedule(corpus.front(), mpps::ScheduleId::parse("-"))
          .has_value());
}

/// What `consume` throws: "UsageError: <message>", "other error:
/// <message>", or "accepted" when it throws nothing.
std::string outcome_of(const std::function<void()>& consume) {
  try {
    consume();
  } catch (const mpps::UsageError& e) {
    return std::string("UsageError: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("other error: ") + e.what();
  }
  return "accepted";
}

TEST(Facade, EveryOptionRuleIsOneUsageErrorNamingTheField) {
  // Every rule of the options structs' validate(), one row each.  Setters
  // only store, so a row fills the same bad struct directly and through
  // its builder, hands each to the struct's consumer, and expects one
  // mpps::UsageError message naming the field.  Rows whose field the
  // builder has no setter for (schedule) fill the struct directly only.
  const mpps::Program program = mpps::parse_program(kProgram);
  const mpps::Network net = mpps::Network::compile(program);
  const mpps::Trace trace =
      mpps::record_trace_from_source(kProgram, "rules").trace;
  const auto simulate = [&](const mpps::SimConfig& config) {
    mpps::simulate(trace, config,
                   mpps::Assignment::round_robin(trace.num_buckets, 1));
  };
  const auto interpret = [&](const mpps::EngineOptions& engine,
                             mpps::MatchEngineFactory factory) {
    mpps::InterpreterOptions options;
    options.engine = engine;
    options.engine_factory = std::move(factory);
    mpps::Interpreter interp(program, options);
    interp.load_initial_wmes();
    interp.run();
  };
  const auto match = [&](const mpps::ParallelOptions& options) {
    mpps::ParallelEngine engine(net, options);
  };
  const mpps::Program served = mpps::parse_program(
      "(p assign (job ^id <i>) (worker ^id <i>) --> (remove 1))");
  const auto serve = [&](const mpps::ServeOptions& options) {
    mpps::ServeEngine engine(served, options);
  };
  // Never consulted: validate() rejects every row before a phase runs.
  struct NoControl final : mpps::pmatch::ScheduleControl {
    void order_round(std::uint32_t, std::uint32_t,
                     std::span<const mpps::pmatch::ScheduledOp>,
                     std::vector<std::uint32_t>&) override {}
    void order_merge(std::uint32_t,
                     std::span<const mpps::pmatch::ScheduledOp>,
                     std::vector<std::uint32_t>&) override {}
  };
  NoControl control;
  mpps::Profiler profiler;
  const mpps::Assignment three_procs = mpps::Assignment::round_robin(8, 3);
  const mpps::Assignment no_buckets = mpps::Assignment::fixed({}, 2);

  struct Rule {
    const char* field;           // must appear in the message
    std::function<void()> direct;
    std::function<void()> built;  // empty: the builder has no setter
  };
  const std::vector<Rule> rules = {
      {"match_processors",
       [&] {
         mpps::SimConfig c;
         c.match_processors = 0;
         simulate(c);
       },
       [&] { simulate(mpps::SimConfigBuilder().match_processors(0).build()); }},
      {"match_processors",
       [&] {
         mpps::SimConfig c;
         c.match_processors = 1;
         c.mapping = mpps::MappingMode::ProcessorPairs;
         simulate(c);
       },
       [&] {
         simulate(mpps::SimConfigBuilder()
                      .match_processors(1)
                      .pairs_mapping()
                      .build());
       }},
      {"match_processors",
       [&] {
         mpps::SimConfig c;
         c.match_processors = 3;
         c.mapping = mpps::MappingMode::ProcessorPairs;
         simulate(c);
       },
       [&] {
         simulate(mpps::SimConfigBuilder()
                      .match_processors(3)
                      .pairs_mapping()
                      .build());
       }},
      {"threads",
       [&] {
         mpps::ParallelOptions o;
         o.threads = 0;
         match(o);
       },
       [&] { match(mpps::ParallelOptionsBuilder().threads(0).build()); }},
      {"mailbox_capacity",
       [&] {
         mpps::ParallelOptions o;
         o.mailbox_capacity = 0;
         match(o);
       },
       [&] {
         match(mpps::ParallelOptionsBuilder().mailbox_capacity(0).build());
       }},
      {"schedule",
       [&] {
         mpps::ParallelOptions o;
         o.schedule = &control;
         o.profiler = &profiler;
         match(o);
       },
       nullptr},
      {"assignment",
       [&] {
         mpps::ParallelOptions o;
         o.threads = 2;
         o.assignment = three_procs;
         match(o);
       },
       [&] {
         match(mpps::ParallelOptionsBuilder()
                   .threads(2)
                   .assignment(three_procs)
                   .build());
       }},
      {"assignment",
       [&] {
         mpps::ParallelOptions o;
         o.threads = 2;
         o.assignment = no_buckets;
         match(o);
       },
       [&] {
         match(mpps::ParallelOptionsBuilder()
                   .threads(2)
                   .assignment(no_buckets)
                   .build());
       }},
      {"admission_batch",
       [&] {
         mpps::ServeOptions o;
         o.admission_batch = 0;
         serve(o);
       },
       [&] { serve(mpps::ServeOptionsBuilder().admission_batch(0).build()); }},
      {"queue_capacity",
       [&] {
         mpps::ServeOptions o;
         o.queue_capacity = 0;
         serve(o);
       },
       [&] { serve(mpps::ServeOptionsBuilder().queue_capacity(0).build()); }},
      {"max_sessions",
       [&] {
         mpps::ServeOptions o;
         o.max_sessions = 0;
         serve(o);
       },
       [&] { serve(mpps::ServeOptionsBuilder().max_sessions(0).build()); }},
      {"match.schedule",
       [&] {
         mpps::ServeOptions o;
         o.match.schedule = &control;
         serve(o);
       },
       nullptr},
      {"threads",
       [&] {
         mpps::ServeOptions o;
         o.match.threads = 0;
         serve(o);
       },
       [&] { serve(mpps::ServeOptionsBuilder().threads(0).build()); }},
      {"num_buckets",
       [&] {
         mpps::EngineOptions o;
         o.num_buckets = 0;
         interpret(o, mpps::parallel_engine_factory({}));
       },
       [&] {
         interpret(mpps::EngineOptionsBuilder().num_buckets(0).build(),
                   mpps::parallel_engine_factory({}));
       }},
      {"num_buckets",
       [&] {
         mpps::EngineOptions o;
         o.num_buckets = 0;
         interpret(o, nullptr);
       },
       [&] {
         interpret(mpps::EngineOptionsBuilder().num_buckets(0).build(),
                   nullptr);
       }},
  };
  for (const Rule& rule : rules) {
    const std::string direct = outcome_of(rule.direct);
    EXPECT_EQ(direct.rfind("UsageError: ", 0), 0u)
        << rule.field << ": " << direct;
    EXPECT_NE(direct.find(rule.field), std::string::npos)
        << rule.field << ": message does not name the field: " << direct;
    if (rule.built) {
      EXPECT_EQ(outcome_of(rule.built), direct) << rule.field;
    }
  }

  // The paper-run index is the cost model's: the builder's run() takes
  // its costs from CostModel::paper_run, which rejects the index at once.
  for (const int run : {-1, 5}) {
    const std::string outcome =
        outcome_of([run] { mpps::SimConfigBuilder().run(run); });
    EXPECT_EQ(outcome.rfind("UsageError: ", 0), 0u) << outcome;
    EXPECT_NE(outcome.find("run"), std::string::npos) << outcome;
  }
  // ParallelOptions::num_buckets 0 is not a bad value: it inherits the
  // interpreter's bucket count, and an engine built directly gets 256.
  EXPECT_EQ(mpps::ParallelEngine(
                net, mpps::ParallelOptionsBuilder().num_buckets(0).build())
                .num_buckets(),
            256u);
  // The happy paths still configure what they say.
  EXPECT_EQ(mpps::ParallelOptionsBuilder().threads(3).build().threads, 3u);
  EXPECT_EQ(
      mpps::ServeOptionsBuilder().admission_batch(9).build().admission_batch,
      9u);
  EXPECT_EQ(mpps::SimConfigBuilder().match_processors(5).build()
                .match_processors,
            5u);
}

TEST(Facade, CollectTraceSimulateAndSweep) {
  // Record a trace through the facade's Collector...
  const mpps::Program program = mpps::parse_program(kProgram);
  mpps::InterpreterOptions options;
  mpps::Interpreter interp(program, options);
  mpps::Collector collector(options.engine.num_buckets);
  interp.match_engine().set_listener(&collector);
  interp.load_initial_wmes();
  bool running = true;
  while (running) {
    collector.begin_cycle();
    running = interp.step();
  }
  const mpps::Trace trace = collector.take("facade");
  EXPECT_GT(trace.total_activations(), 0u);

  // ...replay it on the simulated machine via the SimConfig builder...
  const mpps::SimConfig config = mpps::SimConfigBuilder()
                                     .match_processors(4)
                                     .run(2)
                                     .termination(
                                         mpps::TerminationModel::AckCounting)
                                     .build();
  const mpps::SimResult result = mpps::simulate(
      trace, config,
      mpps::Assignment::round_robin(trace.num_buckets, config.partitions()));
  EXPECT_GT(result.makespan.nanos(), 0);

  // ...and sweep two processor counts through SweepRunner.
  mpps::SweepOptions sweep_options;
  sweep_options.jobs = 1;
  std::vector<mpps::SweepScenario> scenarios;
  for (const std::uint32_t procs : {2u, 4u}) {
    mpps::SweepScenario scenario;
    scenario.label = "p" + std::to_string(procs);
    scenario.trace = &trace;
    scenario.config = mpps::SimConfigBuilder().match_processors(procs).build();
    scenario.assignment =
        mpps::Assignment::round_robin(trace.num_buckets, procs);
    scenarios.push_back(std::move(scenario));
  }
  const auto outcomes = mpps::SweepRunner(sweep_options).run(scenarios);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_GT(outcomes[0].speedup, 0.0);
}

TEST(Facade, TraceRoundTripAndPipeline) {
  const mpps::PipelineResult piped =
      mpps::record_trace_from_source(kProgram, "facade");
  std::ostringstream os;
  mpps::write_trace(os, piped.trace);
  std::istringstream is(os.str());
  const mpps::Trace back = mpps::read_trace(is);
  EXPECT_EQ(back.total_activations(), piped.trace.total_activations());
}

TEST(Facade, CliIsReachable) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(mpps::run_cli({"help"}, out, err), 0);
  EXPECT_NE(out.str().find("simulate"), std::string::npos);
}

TEST(Facade, ProfilerThroughBuilder) {
  // The whole profiling surface through facade names only: Profiler
  // wired via the builder, the report types, the category names, and
  // the text renderer.
  mpps::Profiler profiler;
  const mpps::ParallelOptions popts = mpps::ParallelOptionsBuilder()
                                          .threads(2)
                                          .profiler(&profiler)
                                          .build();
  ASSERT_EQ(popts.profiler, &profiler);
  mpps::InterpreterOptions options;
  options.engine_factory = mpps::parallel_engine_factory(popts);
  mpps::Interpreter interp(mpps::parse_program(kProgram), options);
  interp.load_initial_wmes();
  interp.run();

  EXPECT_TRUE(profiler.attached());
  const mpps::ProfileReport report = profiler.report();
  ASSERT_EQ(report.workers.size(), 2u);
  EXPECT_GE(report.min_attributed_pct(), 0.0);
  EXPECT_GT(report.phases, 0u);
  EXPECT_STREQ(mpps::prof_category_name(mpps::ProfCategory::BarrierWait),
               "barrier_wait");
  std::ostringstream os;
  mpps::print_profile_report(os, report);
  EXPECT_NE(os.str().find("wall-clock phase attribution"), std::string::npos);

  // Measured lanes export through the facade's Tracer.
  mpps::Tracer tracer;
  profiler.export_chrome_trace(tracer);
  std::ostringstream trace_json;
  tracer.write_chrome_json(trace_json);
  EXPECT_NE(trace_json.str().find("measured worker 0"), std::string::npos);
}

TEST(Facade, ServeSessionTransactionSurface) {
  // The serving surface through facade names only: ServeOptionsBuilder,
  // ServeEngine, Session/Transaction, TxResult, stats and the latency
  // report.
  const mpps::ServeOptions sopts =
      mpps::ServeOptionsBuilder().threads(2).admission_batch(4).build();
  mpps::ServeEngine engine(
      mpps::parse_program("(p assign (job ^id <i>) (worker ^id <i>) "
                          "--> (remove 1))"),
      sopts);
  mpps::Session session = engine.open_session();
  mpps::Transaction tx;
  tx.add(mpps::ops5::parse_wme("(job ^id 1)"))
      .add(mpps::ops5::parse_wme("(worker ^id 1)"));
  const mpps::TxResult result = session.transact(std::move(tx));
  EXPECT_EQ(result.added.size(), 2u);
  EXPECT_EQ(result.fired.size(), 1u);
  const mpps::ServeStats stats = engine.stats();
  EXPECT_EQ(stats.transactions, 1u);
  EXPECT_EQ(stats.cross_session_deltas, 0u);
  const mpps::LatencyReport report = engine.latency_report();
  EXPECT_EQ(report.transactions, 1u);
  EXPECT_LE(report.p50_us, report.p99_us);
  session.close();
}

TEST(Facade, ProcessChangesShimMatchesTransactionPath) {
  // `ParallelEngine::process_changes` is deprecated as a direct entry
  // point and now rides the begin_batch()/flush() transaction path as a
  // thin shim.  Differential proof at the facade layer: the same change
  // stream through the shim and through explicit transactions lands the
  // identical conflict set, for batch sizes that chunk evenly and not.
  const mpps::Program program = mpps::parse_program(kProgram);
  const mpps::Network net = mpps::Network::compile(program);

  std::vector<mpps::WmeChange> changes;
  std::uint64_t next_id = 1;
  for (const char* text :
       {"(job ^id 1)", "(job ^id 2)", "(job ^id 3)", "(worker ^id 1)",
        "(worker ^id 2)", "(worker ^id 4)", "(job ^id 4)"}) {
    mpps::Wme w = mpps::ops5::parse_wme(text);
    w.rebind_id(mpps::WmeId{next_id++});
    changes.push_back({mpps::WmeChange::Kind::Add, w});
  }
  changes.push_back({mpps::WmeChange::Kind::Delete, changes[0].wme});

  auto flatten = [](mpps::ParallelEngine& engine) {
    std::vector<std::pair<std::uint32_t, std::vector<std::uint64_t>>> out;
    for (const auto& inst : engine.conflict_set().all()) {
      std::vector<std::uint64_t> wmes;
      for (mpps::WmeId w : inst.token.wmes) wmes.push_back(w.value());
      out.emplace_back(inst.production.value(), std::move(wmes));
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  for (const std::uint32_t batch : {1u, 3u, 0u}) {
    const mpps::ParallelOptions popts = mpps::ParallelOptionsBuilder()
                                            .threads(2)
                                            .max_batch(batch)
                                            .build();
    mpps::ParallelEngine shim(net, popts);
    shim.process_changes(changes);

    mpps::ParallelEngine transacted(net, popts);
    const std::size_t chunk = batch == 0 ? changes.size() : batch;
    for (std::size_t i = 0; i < changes.size(); i += chunk) {
      transacted.begin_batch();
      for (std::size_t j = i; j < std::min(i + chunk, changes.size()); ++j) {
        transacted.process_change(changes[j]);
      }
      transacted.flush();
    }

    EXPECT_EQ(flatten(shim), flatten(transacted)) << "batch " << batch;
    EXPECT_EQ(shim.phases(), transacted.phases()) << "batch " << batch;
  }
}

}  // namespace
