// The OPS5 interpreter: the match-resolve-act cycle over the Rete engine.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/ops5/ast.hpp"
#include "src/ops5/wme.hpp"
#include "src/rete/conflict.hpp"
#include "src/rete/engine.hpp"
#include "src/rete/network.hpp"

namespace mpps::rete {

struct InterpreterOptions {
  Strategy strategy = Strategy::Lex;
  std::size_t max_cycles = 100000;
  CompileOptions compile;
  EngineOptions engine;
  /// Builds the match engine from the compiled network; null ⇒ the serial
  /// `rete::Engine`.  `pmatch::parallel_engine_factory` plugs the
  /// multithreaded engine in here.
  MatchEngineFactory engine_factory;
  /// Sink for `(write ...)` actions; null discards the output.
  std::ostream* out = nullptr;
  /// OPS5 `watch` level (needs `out`): 0 = silent, 1 = production firings,
  /// 2 = firings + working-memory changes.
  int watch = 0;
};

/// One production firing.
struct FireRecord {
  std::size_t cycle = 0;
  std::string production;
  std::vector<WmeId> wmes;
};

struct RunResult {
  enum class Outcome : std::uint8_t { Halted, Quiescent, CycleLimit };
  Outcome outcome = Outcome::Quiescent;
  std::size_t cycles = 0;
  std::size_t firings = 0;
};

class Interpreter {
 public:
  explicit Interpreter(ops5::Program program, InterpreterOptions options = {});

  /// Adds the program's top-level `(make ...)` wmes to working memory.
  /// They are matched on the first `step`/`run`.
  void load_initial_wmes();

  /// Convenience for driving working memory from code or tests.
  WmeId make_wme(ops5::Wme wme) { return wm_.add(std::move(wme)); }
  bool remove_wme(WmeId id) { return wm_.remove(id); }

  /// Runs one MRA cycle: match pending WM changes, resolve, act.
  /// Returns false when execution stops (halt, or no instantiation fires).
  bool step();

  /// Runs cycles until halt/quiescence/cycle-limit.
  RunResult run();

  [[nodiscard]] const Network& network() const { return *network_; }
  /// The active match engine, whatever its implementation.
  [[nodiscard]] MatchEngine& match_engine() { return *engine_; }
  /// The serial engine, for callers needing its extended surface (hash
  /// memories, bucket diagnostics).  Throws mpps::RuntimeError when the
  /// interpreter was built with a non-serial engine_factory.
  [[nodiscard]] Engine& engine();
  [[nodiscard]] ops5::WorkingMemory& wm() { return wm_; }
  [[nodiscard]] const std::vector<FireRecord>& firings() const {
    return firings_;
  }
  [[nodiscard]] std::size_t cycle() const { return cycle_; }
  [[nodiscard]] bool halted() const { return halted_; }

 private:
  void match();
  void act(const InstantiationView& inst);
  ops5::Value eval_term(const ops5::Term& term, const InstantiationView& inst,
                        const std::vector<std::pair<Symbol, ops5::Value>>&
                            rhs_bindings) const;
  /// Maps a 1-based CE number (over all CEs) to the token position.
  std::size_t token_pos(const ops5::Production& p, int ce_number) const;
  /// Resolves a remove/modify target: element variable, or CE number.
  std::size_t target_pos(const ops5::Production& p,
                         const InstantiationView& inst, int ce_number,
                         Symbol elem_var) const;

  ops5::Program program_;
  InterpreterOptions options_;
  std::unique_ptr<Network> network_;  // stable address for engine_
  std::unique_ptr<MatchEngine> engine_;
  ops5::WorkingMemory wm_;
  std::vector<FireRecord> firings_;
  std::size_t cycle_ = 0;
  bool halted_ = false;
};

}  // namespace mpps::rete
