#include "src/rete/network.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/common/error.hpp"

namespace mpps::rete {

bool AlphaTest::matches(const ops5::Wme& w) const {
  const Value& actual = w.get(attr);
  switch (kind) {
    case Kind::Constant:
      return actual.test(pred, constant);
    case Kind::Disjunction:
      return std::any_of(values.begin(), values.end(),
                         [&](const Value& v) { return actual.equals(v); });
    case Kind::AttrCompare:
      return actual.test(pred, w.get(other_attr));
  }
  return false;
}

bool AlphaNode::matches(const ops5::Wme& w) const {
  if (w.wme_class() != wme_class) return false;
  return std::all_of(tests.begin(), tests.end(),
                     [&](const AlphaTest& t) { return t.matches(w); });
}

std::size_t Network::shared_beta_count() const {
  std::size_t n = 0;
  for (const auto& b : betas_) {
    if (b.successors.size() > 1) ++n;
  }
  return n;
}

namespace {

/// Where a variable was first bound: token position + attribute.
struct BindingSite {
  std::uint32_t pos = 0;
  Symbol attr;
};

}  // namespace

class NetworkBuilder {
 public:
  explicit NetworkBuilder(const CompileOptions& options) : options_(options) {}

  Network build(const ops5::Program& program) {
    net_.productions_ = program.productions;
    for (std::size_t i = 0; i < program.productions.size(); ++i) {
      compile_production(program.productions[i], i);
    }
    return std::move(net_);
  }

 private:
  // -- alpha layer ---------------------------------------------------------

  /// The per-CE result of splitting tests into alpha tests and join tests.
  struct CeAnalysis {
    AlphaNode pattern;                 // id unset; tests filled
    std::vector<JoinTest> join_tests;  // vs earlier positive CEs
    std::vector<std::pair<Symbol, Symbol>> new_bindings;  // (var, attr)
  };

  CeAnalysis analyze_ce(const ops5::ConditionElement& ce,
                        const std::unordered_map<Symbol, BindingSite>& varmap,
                        const std::string& production_name) {
    CeAnalysis out;
    out.pattern.wme_class = ce.ce_class;
    std::unordered_map<Symbol, Symbol> local;  // var -> first attr in this CE
    for (const auto& attr_test : ce.attr_tests) {
      for (const auto& atomic : attr_test.tests) {
        if (atomic.is_disjunction()) {
          AlphaTest t;
          t.kind = AlphaTest::Kind::Disjunction;
          t.attr = attr_test.attr;
          t.values = atomic.disjunction;
          out.pattern.tests.push_back(std::move(t));
          continue;
        }
        if (!atomic.operand.is_var()) {
          AlphaTest t;
          t.kind = AlphaTest::Kind::Constant;
          t.attr = attr_test.attr;
          t.pred = atomic.pred;
          t.constant = atomic.operand.constant;
          out.pattern.tests.push_back(std::move(t));
          continue;
        }
        const Symbol var = atomic.operand.variable;
        if (auto it = local.find(var); it != local.end()) {
          // Same variable earlier in this CE: intra-CE attribute compare.
          AlphaTest t;
          t.kind = AlphaTest::Kind::AttrCompare;
          t.attr = attr_test.attr;
          t.pred = atomic.pred;
          t.other_attr = it->second;
          out.pattern.tests.push_back(std::move(t));
          continue;
        }
        if (auto it = varmap.find(var); it != varmap.end()) {
          // Bound in an earlier positive CE: inter-CE test at the join.
          out.join_tests.push_back(JoinTest{atomic.pred, it->second.pos,
                                            it->second.attr, attr_test.attr});
          continue;
        }
        // First occurrence anywhere.
        if (atomic.pred != Predicate::Eq) {
          throw RuntimeError("production '" + production_name +
                             "': predicate test on unbound variable <" +
                             std::string(var.text()) + ">");
        }
        local.emplace(var, attr_test.attr);
        out.new_bindings.emplace_back(var, attr_test.attr);
      }
    }
    // Equality tests first: their operands form the hash key.
    std::stable_partition(
        out.join_tests.begin(), out.join_tests.end(),
        [](const JoinTest& t) { return t.pred == Predicate::Eq; });
    return out;
  }

  NodeId intern_alpha(AlphaNode pattern) {
    if (options_.share_alpha_nodes) {
      for (const auto& a : net_.alphas_) {
        if (a.wme_class == pattern.wme_class && a.tests == pattern.tests) {
          return a.id;
        }
      }
    }
    pattern.id = NodeId{static_cast<std::uint32_t>(net_.alphas_.size())};
    NodeId id = pattern.id;
    net_.alphas_.push_back(std::move(pattern));
    return id;
  }

  // -- beta layer ----------------------------------------------------------

  /// Finds a shareable beta node with identical inputs and tests, or creates
  /// one and wires it to its alpha and left source.
  NodeId intern_beta(BetaNode::Kind kind, NodeId left_source, NodeId left_alpha,
                     NodeId right_alpha, std::vector<JoinTest> tests,
                     std::uint32_t left_arity) {
    if (!options_.partition_attr.empty()) {
      // Multi-tenant isolation (CompileOptions::partition_attr): prepend
      // the implicit partition equality so it leads the hash key.  Done
      // before the sharing lookup so shared and private nodes agree.
      tests.insert(tests.begin(),
                   JoinTest{Predicate::Eq, 0, options_.partition_attr,
                            options_.partition_attr});
    }
    for (JoinTest& t : tests) {
      t.left_slot = slot_of(t.left_attr);
      t.right_slot = slot_of(t.right_attr);
    }
    if (options_.share_beta_nodes) {
      for (const auto& b : net_.betas_) {
        if (b.kind == kind && b.left_source == left_source &&
            b.left_alpha == left_alpha && b.right_alpha == right_alpha &&
            b.tests == tests) {
          return b.id;
        }
      }
    }
    BetaNode node;
    node.kind = kind;
    node.id = NodeId{static_cast<std::uint32_t>(net_.betas_.size())};
    node.tests = std::move(tests);
    node.n_eq_tests = static_cast<std::uint32_t>(std::count_if(
        node.tests.begin(), node.tests.end(),
        [](const JoinTest& t) { return t.pred == Predicate::Eq; }));
    node.left_arity = left_arity;
    node.left_source = left_source;
    node.left_alpha = left_alpha;
    node.right_alpha = right_alpha;
    NodeId id = node.id;
    net_.betas_.push_back(std::move(node));

    net_.alphas_[right_alpha.value()].successors.push_back(
        AlphaSuccessor{id, Side::Right});
    if (left_source.valid()) {
      net_.betas_[left_source.value()].successors.push_back(
          BetaSuccessor{BetaSuccessor::Kind::Beta, id, ProductionId::invalid()});
    } else {
      net_.alphas_[left_alpha.value()].successors.push_back(
          AlphaSuccessor{id, Side::Left});
    }
    return id;
  }

  /// The attribute's slot in `Network::slot_attrs()`, numbered on first
  /// use.
  std::uint32_t slot_of(Symbol attr) {
    std::vector<Symbol>& attrs = net_.slot_attrs_;
    auto it = std::find(attrs.begin(), attrs.end(), attr);
    if (it == attrs.end()) it = attrs.insert(it, attr);
    return static_cast<std::uint32_t>(it - attrs.begin());
  }

  // -- production ----------------------------------------------------------

  void compile_production(const ops5::Production& p, std::size_t index) {
    if (p.lhs.empty() || p.lhs[0].negated) {
      throw RuntimeError("production '" + p.name +
                         "': first condition element must be positive");
    }
    std::unordered_map<Symbol, BindingSite> varmap;
    std::vector<Network::ElemBinding> elem_bindings;
    NodeId cur_beta = NodeId::invalid();
    NodeId first_alpha = NodeId::invalid();
    std::uint32_t arity = 0;  // positive CEs folded into the token so far

    for (std::size_t k = 0; k < p.lhs.size(); ++k) {
      const auto& ce = p.lhs[k];
      if (!ce.elem_var.empty()) {
        if (ce.negated) {
          throw RuntimeError("production '" + p.name +
                             "': element variable on a negated CE");
        }
        elem_bindings.push_back(Network::ElemBinding{ce.elem_var, arity});
      }
      CeAnalysis analysis = analyze_ce(ce, varmap, p.name);
      NodeId alpha = intern_alpha(std::move(analysis.pattern));

      if (k == 0) {
        first_alpha = alpha;
        arity = 1;
        for (const auto& [var, attr] : analysis.new_bindings) {
          varmap.emplace(var, BindingSite{0, attr});
        }
        continue;
      }
      const auto kind =
          ce.negated ? BetaNode::Kind::Negative : BetaNode::Kind::Join;
      cur_beta = intern_beta(kind, cur_beta,
                             cur_beta.valid() ? NodeId::invalid() : first_alpha,
                             alpha, std::move(analysis.join_tests), arity);
      if (!ce.negated) {
        for (const auto& [var, attr] : analysis.new_bindings) {
          varmap.emplace(var, BindingSite{arity, attr});
        }
        ++arity;
      }
      // Bindings introduced inside a negated CE are existential-local and
      // are dropped here; later uses of such a variable re-bind it fresh.
    }

    ProductionId pid{static_cast<std::uint32_t>(net_.pnodes_.size())};
    net_.pnodes_.push_back(ProductionNode{pid, p.name, index});
    net_.specificities_.push_back(p.specificity());
    if (cur_beta.valid()) {
      net_.betas_[cur_beta.value()].successors.push_back(
          BetaSuccessor{BetaSuccessor::Kind::Production, NodeId::invalid(),
                        pid});
    } else {
      net_.alphas_[first_alpha.value()].direct_productions.push_back(pid);
    }

    std::vector<Network::VarBinding> bindings;
    bindings.reserve(varmap.size());
    for (const auto& [var, site] : varmap) {
      bindings.push_back(Network::VarBinding{var, site.pos, site.attr});
    }
    std::sort(bindings.begin(), bindings.end(),
              [](const auto& a, const auto& b) { return a.var < b.var; });
    net_.bindings_.push_back(std::move(bindings));
    net_.elem_bindings_.push_back(elem_bindings);

    validate_rhs(p, varmap, elem_bindings);
  }

  void validate_rhs(const ops5::Production& p,
                    const std::unordered_map<Symbol, BindingSite>& varmap,
                    const std::vector<Network::ElemBinding>& elem_bindings) {
    std::unordered_set<Symbol> rhs_bound;
    // Recursively walks a term (compute expressions nest terms).
    auto check_term = [&](const ops5::Term& term) {
      auto walk = [&](auto&& self, const ops5::Term& t) -> void {
        if (t.is_var() && !varmap.contains(t.variable) &&
            !rhs_bound.contains(t.variable)) {
          throw RuntimeError("production '" + p.name + "': RHS variable <" +
                             std::string(t.variable.text()) +
                             "> is not bound by a positive condition element");
        }
        for (const auto& operand : t.compute_operands) self(self, operand);
      };
      walk(walk, term);
    };
    auto check_ce_number = [&](int n, const char* action) {
      if (n < 1 || static_cast<std::size_t>(n) > p.lhs.size()) {
        throw RuntimeError("production '" + p.name + "': " + action +
                           " refers to condition element " + std::to_string(n) +
                           " of " + std::to_string(p.lhs.size()));
      }
      if (p.lhs[static_cast<std::size_t>(n) - 1].negated) {
        throw RuntimeError("production '" + p.name + "': " + action +
                           " refers to a negated condition element");
      }
    };
    auto check_elem_var = [&](Symbol var, const char* action) {
      for (const auto& binding : elem_bindings) {
        if (binding.var == var) return;
      }
      throw RuntimeError("production '" + p.name + "': " + action +
                         " refers to unknown element variable <" +
                         std::string(var.text()) + ">");
    };
    for (const auto& action : p.rhs) {
      if (const auto* m = std::get_if<ops5::MakeAction>(&action)) {
        for (const auto& [attr, term] : m->slots) check_term(term);
      } else if (const auto* r = std::get_if<ops5::RemoveAction>(&action)) {
        if (r->elem_var.empty()) {
          check_ce_number(r->ce_index, "remove");
        } else {
          check_elem_var(r->elem_var, "remove");
        }
      } else if (const auto* mo = std::get_if<ops5::ModifyAction>(&action)) {
        if (mo->elem_var.empty()) {
          check_ce_number(mo->ce_index, "modify");
        } else {
          check_elem_var(mo->elem_var, "modify");
        }
        for (const auto& [attr, term] : mo->slots) check_term(term);
      } else if (const auto* w = std::get_if<ops5::WriteAction>(&action)) {
        for (const auto& term : w->terms) check_term(term);
      } else if (const auto* b = std::get_if<ops5::BindAction>(&action)) {
        check_term(b->term);
        rhs_bound.insert(b->variable);
      }
    }
  }

  CompileOptions options_;
  Network net_;
};

Network Network::compile(const ops5::Program& program,
                         const CompileOptions& options) {
  return NetworkBuilder(options).build(program);
}

}  // namespace mpps::rete
