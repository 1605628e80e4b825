// The compiled Rete network: alpha (constant-test) nodes, beta (two-input)
// nodes — joins and negative nodes — and production nodes.  Compilation
// shares alpha nodes with identical patterns and, optionally, beta-node
// chains across productions with common CE prefixes (the paper's "sharing").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/ids.hpp"
#include "src/common/symbol.hpp"
#include "src/ops5/ast.hpp"
#include "src/ops5/wme.hpp"
#include "src/rete/token.hpp"

namespace mpps::rete {

using ops5::Predicate;
using ops5::Value;

/// One single-wme test evaluated in the alpha network.
struct AlphaTest {
  enum class Kind : std::uint8_t {
    Constant,     // wme.attr <pred> constant
    Disjunction,  // wme.attr ∈ {values}
    AttrCompare,  // wme.attr <pred> wme.other_attr   (intra-CE variable test)
  };
  Kind kind = Kind::Constant;
  Symbol attr;
  Predicate pred = Predicate::Eq;
  Value constant;             // Constant
  std::vector<Value> values;  // Disjunction
  Symbol other_attr;          // AttrCompare

  [[nodiscard]] bool matches(const ops5::Wme& w) const;
  friend bool operator==(const AlphaTest&, const AlphaTest&) = default;
};

/// Where an alpha node's output tokens go.
struct AlphaSuccessor {
  NodeId beta;  // destination beta node
  Side side = Side::Right;
};

/// An alpha node: the full constant-test pattern of one condition element.
/// Identical patterns across CEs/productions share one alpha node.
struct AlphaNode {
  NodeId id;
  Symbol wme_class;
  std::vector<AlphaTest> tests;
  std::vector<AlphaSuccessor> successors;
  std::vector<ProductionId> direct_productions;  // single-positive-CE rules

  [[nodiscard]] bool matches(const ops5::Wme& w) const;
};

/// One variable-consistency test at a two-input node: compare the value
/// bound at `left_pos`/`left_attr` in the left token against `right_attr`
/// of the right wme.  `left_slot` and `right_slot` number the two
/// attributes in `Network::slot_attrs()`, where the wme table keeps each
/// wme's value of them.
struct JoinTest {
  Predicate pred = Predicate::Eq;
  std::uint32_t left_pos = 0;  // index into the left token's wme list
  Symbol left_attr;
  Symbol right_attr;
  std::uint32_t left_slot = 0;
  std::uint32_t right_slot = 0;

  friend bool operator==(const JoinTest&, const JoinTest&) = default;
};

/// What a beta node feeds: either another beta node's left input or a
/// production node (terminal).
struct BetaSuccessor {
  enum class Kind : std::uint8_t { Beta, Production } kind = Kind::Beta;
  NodeId beta;              // valid when kind == Beta
  ProductionId production;  // valid when kind == Production
};

/// A two-input node: a join (positive CE) or a negative node (negated CE).
/// Equality-predicate tests come first in `tests`; their count is
/// `n_eq_tests` and their operand values form the hash key of the paper's
/// global token hash tables.
struct BetaNode {
  enum class Kind : std::uint8_t { Join, Negative } kind = Kind::Join;
  NodeId id;
  std::vector<JoinTest> tests;
  std::uint32_t n_eq_tests = 0;
  std::uint32_t left_arity = 0;  // wmes per incoming left token
  std::vector<BetaSuccessor> successors;

  // Identity of the inputs, used for chain sharing during compilation.
  NodeId left_source = NodeId::invalid();  // producing beta node, or invalid
  NodeId right_alpha = NodeId::invalid();  // alpha feeding the right input
  NodeId left_alpha = NodeId::invalid();   // alpha feeding the left input
                                           // (first beta level only)
};

/// A production node: receives complete instantiations.
struct ProductionNode {
  ProductionId id;
  std::string name;
  std::size_t production_index = 0;  // into Network's production list
};

/// Options controlling compilation.
struct CompileOptions {
  /// Share beta-node chains across productions with identical CE prefixes.
  /// Turning this off is the paper's "unsharing" transformation (Fig 5-3):
  /// every production owns private two-input nodes, so successor generation
  /// for different outputs lands in different hash buckets.
  bool share_beta_nodes = true;
  /// Share alpha nodes with identical patterns.
  bool share_alpha_nodes = true;
  /// Multi-tenant partition attribute (docs/SERVING.md).  When non-empty,
  /// every two-input node gets an implicit leading equality JoinTest on
  /// this attribute (left token position 0 vs. the right wme), so tokens
  /// only ever join wmes carrying the same partition value.  Because the
  /// test is an equality, the value becomes part of every node's hash key
  /// — partitions shard across the bucket space like the paper's DHT
  /// mapping, and `HashedMemory::probe`'s exact key comparison keeps them
  /// disjoint even when bucket indices collide.  The attribute is
  /// reserved: the serving layer stamps it on every wme it admits.
  Symbol partition_attr;
};

/// The compiled network.  Immutable after `compile`.
class Network {
 public:
  /// Compiles a program.  Throws mpps::RuntimeError on semantic errors
  /// (e.g. a variable whose first occurrence is inside a negated CE being
  /// used in a later CE or in the RHS).
  static Network compile(const ops5::Program& program,
                         const CompileOptions& options = {});

  [[nodiscard]] const std::vector<AlphaNode>& alphas() const {
    return alphas_;
  }
  [[nodiscard]] const std::vector<BetaNode>& betas() const { return betas_; }
  [[nodiscard]] const BetaNode& beta(NodeId id) const {
    return betas_[id.value()];
  }
  [[nodiscard]] const std::vector<ProductionNode>& production_nodes() const {
    return pnodes_;
  }
  [[nodiscard]] const ops5::Production& production(ProductionId id) const {
    return productions_[pnodes_[id.value()].production_index];
  }
  [[nodiscard]] const std::vector<ops5::Production>& productions() const {
    return productions_;
  }
  /// The LHS test count of production `id` (`Production::specificity()`),
  /// counted once at compile time: the LEX/MEA tiebreaker.
  [[nodiscard]] std::size_t specificity(ProductionId id) const {
    return specificities_[id.value()];
  }
  /// Every attribute a join test reads, numbered by slot
  /// (`JoinTest::left_slot`, `JoinTest::right_slot`).
  [[nodiscard]] const std::vector<Symbol>& slot_attrs() const {
    return slot_attrs_;
  }

  /// For RHS/term evaluation: where each variable of production `id` was
  /// first bound: (position in the instantiation's wme list, attribute).
  struct VarBinding {
    Symbol var;
    std::uint32_t token_pos = 0;
    Symbol attr;
  };
  [[nodiscard]] const std::vector<VarBinding>& bindings(ProductionId id) const {
    return bindings_[id.value()];
  }

  /// Element-variable bindings (`{ <w> (ce) }`): variable → position of
  /// the bound wme in the instantiation's token.
  struct ElemBinding {
    Symbol var;
    std::uint32_t token_pos = 0;
  };
  [[nodiscard]] const std::vector<ElemBinding>& elem_bindings(
      ProductionId id) const {
    return elem_bindings_[id.value()];
  }

  /// Number of beta nodes whose successor list has >1 entry (diagnostics
  /// for the unsharing experiments).
  [[nodiscard]] std::size_t shared_beta_count() const;

 private:
  friend class NetworkBuilder;
  std::vector<AlphaNode> alphas_;
  std::vector<BetaNode> betas_;
  std::vector<ProductionNode> pnodes_;
  std::vector<ops5::Production> productions_;
  std::vector<std::size_t> specificities_;         // per production node
  std::vector<Symbol> slot_attrs_;
  std::vector<std::vector<VarBinding>> bindings_;  // per production node
  std::vector<std::vector<ElemBinding>> elem_bindings_;
};

}  // namespace mpps::rete
