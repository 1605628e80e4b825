#include "src/rete/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/error.hpp"
#include "src/ops5/parser.hpp"

namespace mpps::rete {
namespace {

Network compile(std::string_view src, CompileOptions opts = {}) {
  return Network::compile(ops5::parse_program(src), opts);
}

TEST(Network, SingleJoinStructure) {
  const Network net = compile(R"(
    (p pair (a ^v <x>) (b ^v <x>) --> (halt)))");
  EXPECT_EQ(net.alphas().size(), 2u);
  ASSERT_EQ(net.betas().size(), 1u);
  const BetaNode& join = net.betas()[0];
  EXPECT_EQ(join.kind, BetaNode::Kind::Join);
  ASSERT_EQ(join.tests.size(), 1u);
  EXPECT_EQ(join.tests[0].pred, ops5::Predicate::Eq);
  EXPECT_EQ(join.n_eq_tests, 1u);
  EXPECT_EQ(join.left_arity, 1u);
  ASSERT_EQ(join.successors.size(), 1u);
  EXPECT_EQ(join.successors[0].kind, BetaSuccessor::Kind::Production);
}

TEST(Network, AlphaTestsFromConstants) {
  const Network net = compile(R"(
    (p x (block ^color blue ^size > 2) --> (halt)))");
  ASSERT_EQ(net.alphas().size(), 1u);
  const AlphaNode& alpha = net.alphas()[0];
  EXPECT_EQ(alpha.wme_class, Symbol::intern("block"));
  ASSERT_EQ(alpha.tests.size(), 2u);
  EXPECT_EQ(alpha.tests[0].kind, AlphaTest::Kind::Constant);
  EXPECT_EQ(alpha.tests[1].pred, ops5::Predicate::Gt);
}

TEST(Network, IntraCeVariableBecomesAttrCompare) {
  const Network net = compile(R"(
    (p same (pair ^first <x> ^second <x>) --> (halt)))");
  const AlphaNode& alpha = net.alphas()[0];
  ASSERT_EQ(alpha.tests.size(), 1u);
  EXPECT_EQ(alpha.tests[0].kind, AlphaTest::Kind::AttrCompare);
  EXPECT_EQ(alpha.tests[0].attr, Symbol::intern("second"));
  EXPECT_EQ(alpha.tests[0].other_attr, Symbol::intern("first"));
}

TEST(Network, SingleCeProductionLinksAlphaDirectly) {
  const Network net = compile("(p one (a ^v 1) --> (halt))");
  EXPECT_TRUE(net.betas().empty());
  ASSERT_EQ(net.alphas().size(), 1u);
  ASSERT_EQ(net.alphas()[0].direct_productions.size(), 1u);
}

TEST(Network, NegatedCeBecomesNegativeNode) {
  const Network net = compile(R"(
    (p no-b (a ^v <x>) -(b ^v <x>) --> (halt)))");
  ASSERT_EQ(net.betas().size(), 1u);
  EXPECT_EQ(net.betas()[0].kind, BetaNode::Kind::Negative);
}

TEST(Network, AlphaSharingAcrossProductions) {
  const Network net = compile(R"(
    (p p1 (a ^v 1) (b ^w 2) --> (halt))
    (p p2 (a ^v 1) (c ^u 3) --> (halt)))");
  // (a ^v 1) shared: alphas are {a^v1, b^w2, c^u3}.
  EXPECT_EQ(net.alphas().size(), 3u);
}

TEST(Network, AlphaSharingCanBeDisabled) {
  CompileOptions opts;
  opts.share_alpha_nodes = false;
  const Network net = compile(R"(
    (p p1 (a ^v 1) (b ^w 2) --> (halt))
    (p p2 (a ^v 1) (c ^u 3) --> (halt)))",
                              opts);
  EXPECT_EQ(net.alphas().size(), 4u);
}

TEST(Network, BetaChainSharing) {
  // Identical two-CE prefixes share the join node.
  const Network net = compile(R"(
    (p p1 (a ^v <x>) (b ^v <x>) (c ^k 1) --> (halt))
    (p p2 (a ^v <x>) (b ^v <x>) (d ^k 2) --> (halt)))");
  // Joins: shared a-b join + c join + d join = 3 (not 4).
  EXPECT_EQ(net.betas().size(), 3u);
  EXPECT_EQ(net.shared_beta_count(), 1u);
}

TEST(Network, UnsharingGivesPrivateChains) {
  CompileOptions opts;
  opts.share_beta_nodes = false;
  const Network net = compile(R"(
    (p p1 (a ^v <x>) (b ^v <x>) (c ^k 1) --> (halt))
    (p p2 (a ^v <x>) (b ^v <x>) (d ^k 2) --> (halt)))",
                              opts);
  EXPECT_EQ(net.betas().size(), 4u);
  EXPECT_EQ(net.shared_beta_count(), 0u);
}

TEST(Network, JoinTestPositionsTrackPositiveCes) {
  const Network net = compile(R"(
    (p x (a ^v <x>) -(b ^v <x>) (c ^v <x> ^w <y>) (d ^w <y>) --> (halt)))");
  // Nodes: neg(b), join(c), join(d).
  ASSERT_EQ(net.betas().size(), 3u);
  const BetaNode& join_d = net.betas()[2];
  ASSERT_EQ(join_d.tests.size(), 1u);
  // <y> was bound in CE 'c', which is token position 1 (a=0, c=1).
  EXPECT_EQ(join_d.tests[0].left_pos, 1u);
  EXPECT_EQ(join_d.left_arity, 2u);
}

TEST(Network, EqTestsOrderedFirstForHashing) {
  const Network net = compile(R"(
    (p x (a ^v <x> ^s <m>) (b ^w > <m> ^v <x>) --> (halt)))");
  const BetaNode& join = net.betas()[0];
  ASSERT_EQ(join.tests.size(), 2u);
  EXPECT_EQ(join.n_eq_tests, 1u);
  EXPECT_EQ(join.tests[0].pred, ops5::Predicate::Eq);
  EXPECT_EQ(join.tests[1].pred, ops5::Predicate::Gt);
}

TEST(Network, BindingsRecordedPerProduction) {
  const Network net = compile(R"(
    (p x (a ^v <x>) (b ^v <x> ^w <y>) --> (make c ^v <x> ^w <y>)))");
  const auto& bindings = net.bindings(ProductionId{0});
  ASSERT_EQ(bindings.size(), 2u);  // <x>, <y>
}

TEST(NetworkErrors, PredicateOnUnboundVariable) {
  EXPECT_THROW(compile("(p x (a ^v > <nope>) --> (halt))"), RuntimeError);
}

TEST(NetworkErrors, RhsVariableNotBound) {
  EXPECT_THROW(compile("(p x (a ^v 1) --> (make b ^v <nope>))"),
               RuntimeError);
}

TEST(NetworkErrors, RhsVariableBoundOnlyInNegatedCe) {
  EXPECT_THROW(compile(R"(
    (p x (a ^v 1) -(b ^w <y>) --> (make c ^v <y>)))"),
               RuntimeError);
}

TEST(NetworkErrors, RemoveOutOfRange) {
  EXPECT_THROW(compile("(p x (a ^v 1) --> (remove 3))"), RuntimeError);
}

TEST(NetworkErrors, RemoveNegatedCe) {
  EXPECT_THROW(compile(R"(
    (p x (a ^v 1) -(b ^w 2) --> (remove 2)))"),
               RuntimeError);
}

TEST(NetworkErrors, ModifyNegatedCe) {
  EXPECT_THROW(compile(R"(
    (p x (a ^v 1) -(b ^w 2) --> (modify 2 ^w 3)))"),
               RuntimeError);
}

TEST(Network, CompileNumbersJoinAttributesAndCountsSpecificity) {
  CompileOptions opts;
  opts.partition_attr = Symbol::intern("tenant");
  const Network net = compile(R"(
    (p one (a ^v <x> ^w 3) (b ^v <x> ^u <> <x>) -(c ^u <x>) --> (halt))
    (p two (a ^v <x>) (d ^w > <x>) --> (halt))
    (p three (a ^v 1) --> (halt)))",
                              opts);
  // Each attribute a join test reads has one slot, the partition's too.
  const std::vector<Symbol>& slots = net.slot_attrs();
  for (const Symbol attr : {Symbol::intern("tenant"), Symbol::intern("v"),
                            Symbol::intern("u"), Symbol::intern("w")}) {
    EXPECT_EQ(std::count(slots.begin(), slots.end(), attr), 1) << attr.text();
  }
  EXPECT_EQ(slots.size(), 4u);
  for (const BetaNode& node : net.betas()) {
    for (const JoinTest& test : node.tests) {
      ASSERT_LT(test.left_slot, slots.size());
      ASSERT_LT(test.right_slot, slots.size());
      EXPECT_EQ(slots[test.left_slot], test.left_attr);
      EXPECT_EQ(slots[test.right_slot], test.right_attr);
    }
  }
  for (const ProductionNode& p : net.production_nodes()) {
    EXPECT_EQ(net.specificity(p.id), net.production(p.id).specificity())
        << p.name;
  }
}

TEST(Network, BindMakesVariableUsable) {
  EXPECT_NO_THROW(compile(R"(
    (p x (a ^v 1) --> (bind <t> 5) (make b ^v <t>)))"));
}

TEST(Network, PaperFigure22Network) {
  // The production shape of the paper's Figure 2-2: three CEs → two
  // two-input nodes, constant tests in alphas.
  const Network net = compile(R"(
    (p fig22
      (c1 ^a 1 ^b <x>)
      (c2 ^c <x> ^d <y>)
      (c3 ^e <y>)
      -->
      (halt)))");
  EXPECT_EQ(net.alphas().size(), 3u);
  ASSERT_EQ(net.betas().size(), 2u);
  EXPECT_EQ(net.betas()[0].left_arity, 1u);
  EXPECT_EQ(net.betas()[1].left_arity, 2u);
}

}  // namespace
}  // namespace mpps::rete
