// End-to-end integration: the shipped example programs run through the
// full stack — parse → Rete → MRA loop → trace → MPC simulation — and
// reach their documented outcomes.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "src/core/pipeline.hpp"
#include "src/ops5/parser.hpp"
#include "src/rete/interp.hpp"
#include "src/sim/sharedbus.hpp"
#include "src/sim/simulator.hpp"
#include "src/trace/io.hpp"
#include "tests/pinned_trace.hpp"

#ifndef MPPS_PROGRAMS_DIR
#define MPPS_PROGRAMS_DIR "examples/programs"
#endif

namespace mpps {
namespace {

std::string load_program(const std::string& name) {
  const std::string path = std::string(MPPS_PROGRAMS_DIR) + "/" + name;
  std::ifstream in(path);
  if (!in) {
    ADD_FAILURE() << "cannot open " << path;
    return {};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

rete::Interpreter run_program(const std::string& name,
                              rete::InterpreterOptions options = {}) {
  rete::Interpreter interp(ops5::parse_program(load_program(name)), options);
  interp.load_initial_wmes();
  interp.run();
  return interp;
}

TEST(IntegrationPrograms, CounterCountsToTen) {
  auto interp = run_program("counter.ops");
  EXPECT_TRUE(interp.halted());
  EXPECT_EQ(interp.firings().size(), 11u);
  const auto all = interp.wm().all();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(all[0]->get(Symbol::intern("value")).equals(ops5::Value(10L)));
}

TEST(IntegrationPrograms, BlocksWorldAchievesGoal) {
  auto interp = run_program("blocks.ops");
  EXPECT_TRUE(interp.halted());
  bool a_on_b = false;
  for (const auto* wme : interp.wm().all()) {
    if (wme->wme_class() == Symbol::intern("block") &&
        wme->get(Symbol::intern("name")).equals(ops5::Value::sym("a"))) {
      a_on_b = wme->get(Symbol::intern("on")).equals(ops5::Value::sym("b"));
    }
  }
  EXPECT_TRUE(a_on_b);
}

TEST(IntegrationPrograms, MonkeyGetsTheBananas) {
  std::ostringstream narration;
  rete::InterpreterOptions options;
  options.out = &narration;
  auto interp = run_program("monkey_bananas.ops", options);
  EXPECT_TRUE(interp.halted());
  // The plan fires in the canonical order.
  const std::vector<std::string> expected = {
      "walk-to-ladder", "grab-ladder",   "carry-ladder",  "drop-ladder",
      "climb-ladder",   "grasp-bananas", "goal-satisfied"};
  ASSERT_EQ(interp.firings().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(interp.firings()[i].production, expected[i]) << "step " << i;
  }
  bool holds_bananas = false;
  for (const auto* wme : interp.wm().all()) {
    if (wme->wme_class() == Symbol::intern("monkey")) {
      holds_bananas =
          wme->get(Symbol::intern("holds")).equals(ops5::Value::sym("bananas"));
      EXPECT_TRUE(
          wme->get(Symbol::intern("on")).equals(ops5::Value::sym("ladder")));
    }
  }
  EXPECT_TRUE(holds_bananas);
  EXPECT_NE(narration.str().find("monkey grasps the bananas"),
            std::string::npos);
}

TEST(IntegrationPrograms, PairingsGenerateFullCrossProduct) {
  auto interp = run_program("pairings.ops");
  EXPECT_FALSE(interp.halted());  // quiescent
  EXPECT_EQ(interp.firings().size(), 30u);  // 6 teams × 5 opponents
  std::size_t pairings = 0;
  for (const auto* wme : interp.wm().all()) {
    if (wme->wme_class() == Symbol::intern("pairing")) ++pairings;
  }
  EXPECT_EQ(pairings, 30u);
}

TEST(IntegrationPrograms, EveryProgramSurvivesTheFullPipeline) {
  for (const char* name : {"counter.ops", "blocks.ops",
                           "monkey_bananas.ops", "pairings.ops"}) {
    SCOPED_TRACE(name);
    const core::PipelineResult piped =
        core::record_trace_from_source(load_program(name), name);
    EXPECT_NO_THROW(trace::validate(piped.trace));
    // Serialization round-trip.
    const trace::Trace round =
        trace::from_string(trace::to_string(piped.trace));
    EXPECT_EQ(round.total_activations(), piped.trace.total_activations());
    // MPC simulation laws.
    for (std::uint32_t procs : {1u, 4u, 16u}) {
      sim::SimConfig config;
      config.match_processors = procs;
      config.costs = sim::CostModel::paper_run(4);
      const double s = sim::speedup(
          piped.trace, config,
          sim::Assignment::round_robin(piped.trace.num_buckets, procs));
      EXPECT_GT(s, 0.0);
      EXPECT_LE(s, static_cast<double>(procs) + 1e-9);
    }
    // Shared-bus baseline agrees with the serial baseline at one proc.
    sim::SharedBusConfig bus;
    bus.processors = 1;
    bus.queue_access = SimTime::us(0);
    bus.costs = sim::CostModel::zero_overhead();
    EXPECT_EQ(sim::simulate_shared_bus(piped.trace, bus).makespan,
              sim::baseline_time(piped.trace));
  }
}

// ---- the cube workload (the paper's Rubik program, in spirit) -----------

/// Replaces the demo move sequence of cube.ops with `turns` and runs it.
rete::Interpreter run_cube(const std::vector<std::string>& turns) {
  ops5::Program program = ops5::parse_program(load_program("cube.ops"));
  std::erase_if(program.initial_wmes, [](const ops5::MakeAction& make) {
    return make.wme_class == Symbol::intern("move");
  });
  long seq = 1;
  for (const auto& turn : turns) {
    ops5::MakeAction move;
    move.wme_class = Symbol::intern("move");
    move.slots.emplace_back(Symbol::intern("seq"),
                            ops5::Term::make_const(ops5::Value(seq++)));
    move.slots.emplace_back(Symbol::intern("turn"),
                            ops5::Term::make_const(ops5::Value::sym(turn)));
    program.initial_wmes.push_back(std::move(move));
  }
  rete::Interpreter interp(program, {});
  interp.load_initial_wmes();
  interp.run();
  return interp;
}

/// True when every face is uniformly its original color.
bool cube_is_solved(rete::Interpreter& interp) {
  const std::map<std::string, std::string> home = {
      {"u", "white"}, {"d", "yellow"}, {"f", "green"},
      {"b", "blue"},  {"l", "orange"}, {"r", "red"}};
  for (const auto* wme : interp.wm().all()) {
    if (wme->wme_class() != Symbol::intern("sticker")) continue;
    const std::string face(
        wme->get(Symbol::intern("face")).as_symbol().text());
    const std::string color(
        wme->get(Symbol::intern("color")).as_symbol().text());
    if (home.at(face) != color) return false;
  }
  return true;
}

TEST(IntegrationCube, DemoSequenceReturnsToIdentity) {
  auto interp = run_program("cube.ops");
  EXPECT_TRUE(interp.halted());
  EXPECT_EQ(interp.firings().size(), 7u);  // 6 moves + halt
  EXPECT_TRUE(cube_is_solved(interp));
}

TEST(IntegrationCube, EveryQuarterTurnHasOrderFour) {
  for (const char* turn : {"u", "u-inv", "d", "d-inv"}) {
    SCOPED_TRACE(turn);
    auto once = run_cube({turn});
    EXPECT_TRUE(once.halted());
    EXPECT_FALSE(cube_is_solved(once)) << "a quarter turn must scramble";
    auto four = run_cube({turn, turn, turn, turn});
    EXPECT_TRUE(four.halted());
    EXPECT_TRUE(cube_is_solved(four));
  }
}

TEST(IntegrationCube, InversesCancel) {
  for (auto [a, b] : std::vector<std::pair<const char*, const char*>>{
           {"u", "u-inv"}, {"d", "d-inv"}}) {
    auto interp = run_cube({a, b});
    EXPECT_TRUE(cube_is_solved(interp));
    auto reversed = run_cube({b, a});
    EXPECT_TRUE(cube_is_solved(reversed));
  }
}

TEST(IntegrationCube, DisjointLayersCommute) {
  auto interp = run_cube({"u", "d", "u-inv", "d-inv"});
  EXPECT_TRUE(cube_is_solved(interp));
}

TEST(IntegrationCube, FloodsTheMatchNetworkEveryFiring) {
  // Each firing modifies 13 wmes.  The right activations hit every join
  // whose right input mentions a changed sticker, and — because the
  // productions are deep 13-join chains — each change near the top of a
  // chain also regenerates the left tokens below it.  The result is a
  // heavy, mixed activation load per MRA cycle.
  ops5::Program program = ops5::parse_program(load_program("cube.ops"));
  const core::PipelineResult piped = core::record_trace(program, "cube");
  const trace::TraceStats stats = trace::compute_stats(piped.trace);
  EXPECT_GT(stats.total(), 500u);
  EXPECT_GT(stats.left_pct(), 10.0);
  EXPECT_GT(100.0 - stats.left_pct(), 10.0);
  // Deep chains mean real parallelism is available per cycle.
  sim::SimConfig config;
  config.match_processors = 8;
  config.costs = sim::CostModel::zero_overhead();
  const double s = sim::speedup(
      piped.trace, config,
      sim::Assignment::round_robin(piped.trace.num_buckets, 8));
  EXPECT_GT(s, 1.2);
}

// ---- tic-tac-toe self-play ------------------------------------------------

TEST(IntegrationTicTacToe, SelfPlayEndsInDraw) {
  // Both sides share a win > block > center > corner > side heuristic;
  // competent play from both means a draw.
  std::ostringstream narration;
  rete::InterpreterOptions options;
  options.out = &narration;
  options.max_cycles = 2000;
  auto interp = run_program("tictactoe.ops", options);
  EXPECT_TRUE(interp.halted());
  EXPECT_NE(narration.str().find("draw"), std::string::npos);
  EXPECT_EQ(narration.str().find("wins"), std::string::npos);
}

TEST(IntegrationTicTacToe, BoardEndsLegal) {
  rete::InterpreterOptions options;
  options.max_cycles = 2000;
  auto interp = run_program("tictactoe.ops", options);
  int x_marks = 0;
  int o_marks = 0;
  int empties = 0;
  for (const auto* wme : interp.wm().all()) {
    if (wme->wme_class() != Symbol::intern("cell")) continue;
    const auto mark = wme->get(Symbol::intern("mark"));
    if (mark.equals(ops5::Value::sym("x"))) ++x_marks;
    else if (mark.equals(ops5::Value::sym("o"))) ++o_marks;
    else ++empties;
  }
  EXPECT_EQ(x_marks + o_marks + empties, 9);
  // x moves first: either equal counts or one extra x.
  EXPECT_TRUE(x_marks == o_marks || x_marks == o_marks + 1)
      << "x=" << x_marks << " o=" << o_marks;
  EXPECT_EQ(empties, 0);  // draw fills the board
}

TEST(IntegrationTicTacToe, OpensInTheCenter) {
  std::ostringstream narration;
  rete::InterpreterOptions options;
  options.out = &narration;
  options.max_cycles = 2000;
  run_program("tictactoe.ops", options);
  // The first placement takes the highest-scoring opening square.
  EXPECT_EQ(narration.str().rfind("x plays 5", 0), 0u);
}

TEST(IntegrationTicTacToe, DeterministicGame) {
  std::ostringstream a;
  std::ostringstream b;
  for (auto* sink : {&a, &b}) {
    rete::InterpreterOptions options;
    options.out = sink;
    options.max_cycles = 2000;
    run_program("tictactoe.ops", options);
  }
  EXPECT_EQ(a.str(), b.str());
}

TEST(IntegrationTicTacToe, BlocksAnImminentWin) {
  // Start mid-game: o is about to complete 1-2-3; x (to move) must block.
  ops5::Program program = ops5::parse_program(load_program("tictactoe.ops"));
  std::erase_if(program.initial_wmes, [](const ops5::MakeAction& make) {
    return make.wme_class == Symbol::intern("cell");
  });
  auto add_cell = [&](int pos, const char* mark) {
    ops5::MakeAction cell;
    cell.wme_class = Symbol::intern("cell");
    cell.slots.emplace_back(Symbol::intern("pos"),
                            ops5::Term::make_const(ops5::Value(long{pos})));
    cell.slots.emplace_back(Symbol::intern("mark"),
                            ops5::Term::make_const(ops5::Value::sym(mark)));
    program.initial_wmes.push_back(std::move(cell));
  };
  add_cell(1, "o");
  add_cell(2, "o");
  add_cell(5, "x");
  add_cell(9, "x");
  for (int pos : {3, 4, 6, 7, 8}) add_cell(pos, "empty");
  std::ostringstream narration;
  rete::InterpreterOptions options;
  options.out = &narration;
  options.max_cycles = 2000;
  rete::Interpreter interp(program, options);
  interp.load_initial_wmes();
  interp.run();
  EXPECT_EQ(narration.str().rfind("x plays 3", 0), 0u) << narration.str();
}

TEST(IntegrationPrograms, MeaAndLexAgreeOnDeterministicPlans) {
  for (auto strategy : {rete::Strategy::Lex, rete::Strategy::Mea}) {
    rete::InterpreterOptions options;
    options.strategy = strategy;
    auto interp = run_program("monkey_bananas.ops", options);
    EXPECT_TRUE(interp.halted());
    EXPECT_EQ(interp.firings().size(), 7u);
  }
}

// ---- recorded traces are pinned ------------------------------------------

/// `mpps trace <program> --buckets <buckets>`'s output, run from the
/// programs directory in a fresh process (see pinned_trace.hpp).
std::string cli_trace(const std::string& program, std::uint32_t buckets) {
  return pinned_trace::command_output(
      std::string("cd '") + MPPS_PROGRAMS_DIR + "' && '" + MPPS_CLI_BIN +
      "' trace " + program + " --buckets " + std::to_string(buckets));
}

// The serial engine's trace of every bundled program, at the default 256
// buckets and at 1 bucket (every token of a node in one cell), pinned by
// byte length and FNV-1a digest.  A trace lists every activation in
// order with its bucket and successor counts, so a change to the hashed
// memories' probe order or to the activation queue's order shows here.
TEST(IntegrationPrograms, RecordedTracesArePinned) {
  struct Pin {
    const char* program;
    std::uint32_t buckets;
    std::size_t bytes;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"bench_chain.ops", 256, 128049, 0xAA27ECE3C14E0739ull},
      {"bench_chain.ops", 1, 122439, 0xAE29695A259A2755ull},
      {"bench_fanout.ops", 256, 109678, 0x3F4E97090AA97519ull},
      {"bench_fanout.ops", 1, 105356, 0x803B5299856B4CC7ull},
      {"blocks.ops", 256, 3417, 0x033F2BF474C2667Cull},
      {"blocks.ops", 1, 3251, 0x0C051DA6BCEEB88Aull},
      {"counter.ops", 256, 367, 0xD120378B07EB9759ull},
      {"counter.ops", 1, 365, 0x0AE03BC8E3DADAB7ull},
      {"cube.ops", 256, 90510, 0xB42DF05ADE95EF11ull},
      {"cube.ops", 1, 85940, 0x3B1D9B2EC8C8AC39ull},
      {"monkey_bananas.ops", 256, 4379, 0x136AE3B72C7E113Aull},
      {"monkey_bananas.ops", 1, 4169, 0x6E347FF285823ACAull},
      {"pairings.ops", 256, 5997, 0xE1E19EB14D2EC652ull},
      {"pairings.ops", 1, 5729, 0xA734D2F92774DBBCull},
      {"tictactoe.ops", 256, 345985, 0xA15B23CDCDE54826ull},
      {"tictactoe.ops", 1, 330631, 0xB47DE76FD4B1CF4Cull},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(pin.program) + " at " +
                 std::to_string(pin.buckets) + " buckets");
    const std::string text = cli_trace(pin.program, pin.buckets);
    EXPECT_EQ(text.size(), pin.bytes);
    EXPECT_EQ(pinned_trace::fnv1a64(text), pin.digest);
  }
}

}  // namespace
}  // namespace mpps
