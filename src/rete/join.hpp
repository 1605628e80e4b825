// The join kernel: one two-input node activation, the paper's unit of
// parallel match work (§3-4).  An activation stores its token in the hash
// bucket its equality key addresses, matches it against the opposite
// bucket of the same node, and emits the successor tokens.
//
// An activation arrives with its operands: the value of each of the
// node's tests on its side, read from the wme table once
// (`left_operands`, `right_operands`); the first `n_eq_tests` of them are
// the equality key.  Memory entries keep their operands, so matching a
// candidate compares two operand spans and reads no wme.
//
// The serial `rete::Engine` and every worker of `pmatch::ParallelEngine`
// run each join and negative-node activation through this one kernel.
// They differ only in the sink that receives what an activation emits,
// a template parameter so no call is virtual:
//
//   void successor(NodeId node, std::span<const WmeId> token, Tag tag);
//       a left activation of beta node `node` (two-input node outputs
//       feed left inputs only);
//   void instantiation(ProductionId pid, std::span<const WmeId> token,
//                      Tag tag);
//       a conflict-set change.
//
// The token passed to a sink may be kernel scratch or a memory entry that
// the next call overwrites, so a sink that keeps it copies it.  A sink
// must not touch the kernel's memories: probes visit the entries in
// place.  The caller computes an activation's bucket once and passes it
// in.  `rete::TreatEngine` and `naive_match` do not use this kernel: they
// are the independent witnesses it is tested against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/ids.hpp"
#include "src/obs/metrics.hpp"
#include "src/rete/conflict.hpp"
#include "src/rete/memory.hpp"
#include "src/rete/network.hpp"
#include "src/rete/token.hpp"
#include "src/rete/wme_table.hpp"

namespace mpps::rete {

struct EngineStats {
  std::uint64_t left_activations = 0;
  std::uint64_t right_activations = 0;
  std::uint64_t tokens_generated = 0;
  std::uint64_t comparisons = 0;  // opposite-bucket entries examined
  std::uint64_t stale_deletes = 0;

  friend bool operator==(const EngineStats&, const EngineStats&) = default;
};

/// Applies one +/- instantiation to a conflict set.
inline void update_conflict_set(ConflictSet& cs, ProductionId pid,
                                std::span<const WmeId> token, Tag tag) {
  if (tag == Tag::Plus) {
    cs.add(pid, token);
  } else {
    cs.remove(pid, token);
  }
}

/// What one activation emitted: the counts its ActivationRecord reports.
struct JoinEmitted {
  std::uint32_t successors = 0;      // tokens sent to beta successors
  std::uint32_t instantiations = 0;  // tokens sent to production nodes
};

/// Optional distributions the kernel records into (null ⇒ not recorded).
struct JoinHistograms {
  obs::Histogram* probe_len = nullptr;  // opposite-cell matches per probe
  obs::Histogram* occupancy = nullptr;  // own-cell size after an insert
};

/// One left/right hashed-memory pair, its counters, and the activation
/// code over them.  The serial engine owns one; each parallel worker owns
/// one for the buckets it is assigned.
class JoinKernel {
 public:
  /// `wmes` must outlive the kernel and hold every wme a token names.
  JoinKernel(const WmeTable& wmes, std::uint32_t num_buckets,
             JoinHistograms histograms = {})
      : wmes_(wmes),
        left_(num_buckets),
        right_(num_buckets),
        histograms_(histograms) {}

  [[nodiscard]] const HashedMemory& left() const { return left_; }
  [[nodiscard]] const HashedMemory& right() const { return right_; }
  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t live_tokens() const {
    return left_.total_tokens() + right_.total_tokens();
  }

  /// The operands of `token` arriving at `node`'s left input, one per
  /// test, appended to `out`.
  void left_operands(const BetaNode& node, std::span<const WmeId> token,
                     std::vector<Value>& out) const {
    for (const JoinTest& test : node.tests) {
      out.push_back(wmes_.value(wmes_.row(token[test.left_pos]),
                                test.left_slot));
    }
  }

  /// The operands of wme `wme` arriving at `node`'s right input, appended
  /// to `out`.
  void right_operands(const BetaNode& node, WmeId wme,
                      std::vector<Value>& out) const {
    const std::uint32_t row = wmes_.row(wme);
    for (const JoinTest& test : node.tests) {
      out.push_back(wmes_.value(row, test.right_slot));
    }
  }

  /// The bucket that the equality key within `operands` addresses.
  [[nodiscard]] std::uint32_t bucket_of(const BetaNode& node,
                                        std::span<const Value> operands) const {
    return left_.bucket_of(node.id, operands.first(node.n_eq_tests));
  }

  /// A token arrives at `node`'s left input; `operands` are its
  /// left_operands and `bucket` their bucket_of.
  template <typename Sink>
  JoinEmitted left_activation(const BetaNode& node, Tag tag,
                              std::span<const WmeId> token,
                              std::span<const Value> operands,
                              std::uint32_t bucket, Sink& sink) {
    ++stats_.left_activations;
    JoinEmitted out;
    const std::span<const Value> key = operands.first(node.n_eq_tests);
    if (node.kind == BetaNode::Kind::Join) {
      if (tag == Tag::Plus) {
        insert(left_, node.id, bucket, token, operands, 0);
      } else if (!left_.erase(node.id, bucket, token)) {
        ++stats_.stale_deletes;
      }
      probe(right_, node.id, bucket, key,
            [&](std::span<const WmeId> right, std::span<const Value> rops,
                int&) {
              if (!non_eq_tests_pass(node, operands, rops)) return;
              child_.assign(token.begin(), token.end());
              child_.push_back(right[0]);
              emit(node, child_, tag, sink, out);
            });
    } else if (tag == Tag::Plus) {  // negative node
      int count = 0;
      probe(right_, node.id, bucket, key,
            [&](std::span<const WmeId>, std::span<const Value> rops, int&) {
              if (non_eq_tests_pass(node, operands, rops)) ++count;
            });
      insert(left_, node.id, bucket, token, operands, count);
      if (count == 0) emit(node, token, Tag::Plus, sink, out);
    } else {
      int count = 0;
      if (!left_.erase(node.id, bucket, token, &count)) {
        ++stats_.stale_deletes;
      } else if (count == 0) {
        emit(node, token, Tag::Minus, sink, out);
      }
    }
    return out;
  }

  /// Wme `wme` arrives at `node`'s right input; `operands` are its
  /// right_operands and `bucket` their bucket_of.
  template <typename Sink>
  JoinEmitted right_activation(const BetaNode& node, Tag tag, WmeId wme,
                               std::span<const Value> operands,
                               std::uint32_t bucket, Sink& sink) {
    ++stats_.right_activations;
    JoinEmitted out;
    const std::span<const WmeId> token(&wme, 1);
    const std::span<const Value> key = operands.first(node.n_eq_tests);
    if (tag == Tag::Plus) {
      insert(right_, node.id, bucket, token, operands, 0);
    } else if (!right_.erase(node.id, bucket, token)) {
      ++stats_.stale_deletes;
      if (node.kind == BetaNode::Kind::Negative) return out;
    }
    if (node.kind == BetaNode::Kind::Join) {
      probe(left_, node.id, bucket, key,
            [&](std::span<const WmeId> left, std::span<const Value> lops,
                int&) {
              if (!non_eq_tests_pass(node, lops, operands)) return;
              child_.assign(left.begin(), left.end());
              child_.push_back(wme);
              emit(node, child_, tag, sink, out);
            });
      return out;
    }
    // Negative node: each matching left token counts this wme as a
    // blocker; a token emits when its count leaves or returns to zero.
    probe(left_, node.id, bucket, key,
          [&](std::span<const WmeId> left, std::span<const Value> lops,
              int& count) {
            if (!non_eq_tests_pass(node, lops, operands)) return;
            if (tag == Tag::Plus ? count++ == 0 : --count == 0) {
              emit(node, left, tag == Tag::Plus ? Tag::Minus : Tag::Plus,
                   sink, out);
            }
          });
    return out;
  }

 private:
  void insert(HashedMemory& mem, NodeId node, std::uint32_t bucket,
              std::span<const WmeId> token, std::span<const Value> operands,
              int neg_count) {
    const std::size_t size =
        mem.insert(node, bucket, token, operands, neg_count);
    if (histograms_.occupancy != nullptr) {
      histograms_.occupancy->observe(static_cast<std::int64_t>(size));
    }
  }

  /// Visits the opposite memory's entries under `key`, each counted as one
  /// comparison.
  template <typename Visit>
  void probe(HashedMemory& mem, NodeId node, std::uint32_t bucket,
             std::span<const Value> key, Visit&& visit) {
    const std::uint32_t matched = mem.probe(node, bucket, key, visit);
    stats_.comparisons += matched;
    if (histograms_.probe_len != nullptr) {
      histograms_.probe_len->observe(static_cast<std::int64_t>(matched));
    }
  }

  /// The non-equality join tests (the equality ones hold by key).  A CE
  /// reads `^right_attr <pred> <var>`: the right wme's value is the left
  /// operand of the predicate, the token's binding the right operand.
  [[nodiscard]] static bool non_eq_tests_pass(
      const BetaNode& node, std::span<const Value> left,
      std::span<const Value> right) {
    for (std::size_t i = node.n_eq_tests; i < node.tests.size(); ++i) {
      if (!right[i].test(node.tests[i].pred, left[i])) return false;
    }
    return true;
  }

  template <typename Sink>
  void emit(const BetaNode& node, std::span<const WmeId> token, Tag tag,
            Sink& sink, JoinEmitted& out) {
    for (const BetaSuccessor& succ : node.successors) {
      ++stats_.tokens_generated;
      if (succ.kind == BetaSuccessor::Kind::Production) {
        ++out.instantiations;
        sink.instantiation(succ.production, token, tag);
      } else {
        ++out.successors;
        sink.successor(succ.beta, token, tag);
      }
    }
  }

  const WmeTable& wmes_;
  HashedMemory left_;
  HashedMemory right_;
  JoinHistograms histograms_;
  EngineStats stats_;
  std::vector<WmeId> child_;  // join child, built in place
};

}  // namespace mpps::rete
