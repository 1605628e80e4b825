#include "src/rete/interp.hpp"

#include <ostream>

#include "src/common/error.hpp"

namespace mpps::rete {

Interpreter::Interpreter(ops5::Program program, InterpreterOptions options)
    : program_(std::move(program)), options_(options) {
  network_ = std::make_unique<Network>(
      Network::compile(program_, options_.compile));
  if (options_.engine_factory) {
    engine_ = options_.engine_factory(*network_, options_.engine);
  } else {
    engine_ = std::make_unique<Engine>(*network_, options_.engine);
  }
}

Engine& Interpreter::engine() {
  auto* serial = dynamic_cast<Engine*>(engine_.get());
  if (serial == nullptr) {
    throw RuntimeError(
        "Interpreter::engine(): the active match engine is not the serial "
        "rete::Engine; use match_engine()");
  }
  return *serial;
}

namespace {

/// Evaluates a term that must not reference variables (top-level makes).
ops5::Value const_term_value(const ops5::Term& term) {
  if (term.is_var()) {
    throw RuntimeError("top-level make must not contain variables");
  }
  if (term.is_compute()) {
    std::vector<ops5::Value> operands;
    operands.reserve(term.compute_operands.size());
    for (const auto& operand : term.compute_operands) {
      operands.push_back(const_term_value(operand));
    }
    return ops5::eval_compute(operands, term.compute_ops);
  }
  return term.constant;
}

}  // namespace

void Interpreter::load_initial_wmes() {
  for (const auto& make : program_.initial_wmes) {
    std::vector<std::pair<Symbol, ops5::Value>> attrs;
    for (const auto& [attr, term] : make.slots) {
      attrs.emplace_back(attr, const_term_value(term));
    }
    wm_.add(ops5::Wme(make.wme_class, std::move(attrs)));
  }
}

void Interpreter::match() {
  const std::vector<ops5::WmeChange> changes = wm_.drain_changes();
  if (options_.watch >= 2 && options_.out != nullptr) {
    for (const auto& change : changes) {
      *options_.out << (change.kind == ops5::WmeChange::Kind::Add ? "=>WM: "
                                                                  : "<=WM: ")
                    << change.wme.id().value() << ": "
                    << change.wme.to_string() << "\n";
    }
  }
  // The whole act-phase batch goes to the engine in one call so batching
  // engines (pmatch with max_batch > 1) can share BSP phases across it.
  engine_->process_changes(changes);
}

bool Interpreter::step() {
  if (halted_) return false;
  ++cycle_;
  match();
  ConflictSet& cs = engine_->conflict_set();
  const auto selected = cs.select(options_.strategy);
  if (!selected.has_value()) return false;
  cs.mark_fired(*selected);
  const auto& pnode = network_->production_nodes()[selected->production.value()];
  if (options_.watch >= 1 && options_.out != nullptr) {
    *options_.out << cycle_ << ". " << pnode.name;
    for (WmeId w : selected->token) *options_.out << ' ' << w.value();
    *options_.out << "\n";
  }
  firings_.push_back(FireRecord{
      cycle_, pnode.name, {selected->token.begin(), selected->token.end()}});
  // The firing's own copy of the token: the view into the conflict set
  // lives only until the set next changes.
  act(InstantiationView{selected->production, firings_.back().wmes});
  return !halted_;
}

RunResult Interpreter::run() {
  RunResult result;
  while (cycle_ < options_.max_cycles) {
    if (!step()) {
      result.outcome = halted_ ? RunResult::Outcome::Halted
                               : RunResult::Outcome::Quiescent;
      result.cycles = cycle_;
      result.firings = firings_.size();
      return result;
    }
  }
  result.outcome = RunResult::Outcome::CycleLimit;
  result.cycles = cycle_;
  result.firings = firings_.size();
  return result;
}

std::size_t Interpreter::token_pos(const ops5::Production& p,
                                   int ce_number) const {
  // Compile-time validation guaranteed 1 <= ce_number <= |lhs| and the
  // target CE is positive.  The token holds only positive CEs, in order.
  std::size_t pos = 0;
  for (int i = 0; i + 1 < ce_number; ++i) {
    if (!p.lhs[static_cast<std::size_t>(i)].negated) ++pos;
  }
  return pos;
}

std::size_t Interpreter::target_pos(const ops5::Production& p,
                                    const InstantiationView& inst,
                                    int ce_number, Symbol elem_var) const {
  if (elem_var.empty()) return token_pos(p, ce_number);
  for (const auto& binding : network_->elem_bindings(inst.production)) {
    if (binding.var == elem_var) return binding.token_pos;
  }
  throw RuntimeError("unknown element variable <" +
                     std::string(elem_var.text()) + ">");
}

ops5::Value Interpreter::eval_term(
    const ops5::Term& term, const InstantiationView& inst,
    const std::vector<std::pair<Symbol, ops5::Value>>& rhs_bindings) const {
  if (term.is_compute()) {
    std::vector<ops5::Value> operands;
    operands.reserve(term.compute_operands.size());
    for (const auto& operand : term.compute_operands) {
      operands.push_back(eval_term(operand, inst, rhs_bindings));
    }
    return ops5::eval_compute(operands, term.compute_ops);
  }
  if (!term.is_var()) return term.constant;
  for (const auto& [var, value] : rhs_bindings) {
    if (var == term.variable) return value;
  }
  for (const auto& binding : network_->bindings(inst.production)) {
    if (binding.var == term.variable) {
      return engine_->wme(inst.token[binding.token_pos])
          .get(binding.attr);
    }
  }
  throw RuntimeError("unbound RHS variable <" +
                     std::string(term.variable.text()) + ">");
}

void Interpreter::act(const InstantiationView& inst) {
  const ops5::Production& prod = network_->production(inst.production);
  std::vector<std::pair<Symbol, ops5::Value>> rhs_bindings;

  for (const auto& action : prod.rhs) {
    if (const auto* m = std::get_if<ops5::MakeAction>(&action)) {
      std::vector<std::pair<Symbol, ops5::Value>> attrs;
      for (const auto& [attr, term] : m->slots) {
        attrs.emplace_back(attr, eval_term(term, inst, rhs_bindings));
      }
      wm_.add(ops5::Wme(m->wme_class, std::move(attrs)));
    } else if (const auto* r = std::get_if<ops5::RemoveAction>(&action)) {
      wm_.remove(
          inst.token[target_pos(prod, inst, r->ce_index, r->elem_var)]);
    } else if (const auto* mo = std::get_if<ops5::ModifyAction>(&action)) {
      const WmeId target =
          inst.token[target_pos(prod, inst, mo->ce_index, mo->elem_var)];
      const ops5::Wme* old = wm_.find(target);
      if (old == nullptr) {
        throw RuntimeError("modify: wme already removed in this firing");
      }
      ops5::Wme updated = *old;
      for (const auto& [attr, term] : mo->slots) {
        updated.set(attr, eval_term(term, inst, rhs_bindings));
      }
      wm_.remove(target);
      wm_.add(std::move(updated));
    } else if (const auto* w = std::get_if<ops5::WriteAction>(&action)) {
      if (options_.out != nullptr) {
        bool first = true;
        for (const auto& term : w->terms) {
          const ops5::Value v = eval_term(term, inst, rhs_bindings);
          const bool is_newline =
              v.kind() == ops5::Value::Kind::Sym && v.as_symbol().text() == "\n";
          if (is_newline) {
            *options_.out << '\n';
            first = true;
            continue;
          }
          if (!first) *options_.out << ' ';
          *options_.out << v;
          first = false;
        }
        // OPS5's write does not end lines; that is what (crlf) is for.
      }
    } else if (std::get_if<ops5::HaltAction>(&action) != nullptr) {
      halted_ = true;
    } else if (const auto* b = std::get_if<ops5::BindAction>(&action)) {
      rhs_bindings.emplace_back(b->variable,
                                eval_term(b->term, inst, rhs_bindings));
    }
  }
}

}  // namespace mpps::rete
