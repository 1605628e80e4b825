#include "src/rete/engine.hpp"

#include <utility>

#include "src/common/error.hpp"

namespace mpps::rete {

namespace {

JoinHistograms join_histograms(obs::Registry* reg) {
  if (reg == nullptr) return {};
  return {&reg->histogram("rete.probe_len",
                          obs::Histogram::exponential_bounds(1, 2.0, 16)),
          &reg->histogram("rete.bucket_occupancy",
                          obs::Histogram::exponential_bounds(1, 2.0, 16))};
}

}  // namespace

void EngineOptions::validate() const {
  if (num_buckets == 0) {
    throw UsageError("EngineOptions: num_buckets must be positive");
  }
}

StatsMirror::StatsMirror(obs::Registry* registry) {
  if (registry == nullptr) return;
  left_ = &registry->counter("rete.activations", {{"side", "left"}});
  right_ = &registry->counter("rete.activations", {{"side", "right"}});
  tokens_ = &registry->counter("rete.tokens_generated");
  comparisons_ = &registry->counter("rete.comparisons");
  stale_ = &registry->counter("rete.stale_deletes");
  live_tokens_ = &registry->gauge("rete.live_tokens");
}

void StatsMirror::flush(const EngineStats& stats, std::size_t live_tokens) {
  if (left_ == nullptr) return;
  left_->add(stats.left_activations - flushed_.left_activations);
  right_->add(stats.right_activations - flushed_.right_activations);
  tokens_->add(stats.tokens_generated - flushed_.tokens_generated);
  comparisons_->add(stats.comparisons - flushed_.comparisons);
  stale_->add(stats.stale_deletes - flushed_.stale_deletes);
  live_tokens_->set(static_cast<std::int64_t>(live_tokens));
  flushed_ = stats;
}

struct Engine::QueueSink {
  Engine& engine;
  ActivationId parent;

  void successor(NodeId node, std::span<const WmeId> token, Tag tag) {
    engine.enqueue(parent, node, Side::Left, tag, token);
  }
  void instantiation(ProductionId pid, std::span<const WmeId> token,
                     Tag tag) {
    update_conflict_set(engine.conflict_, pid, token, tag);
  }
};

Engine::Engine(const Network& net, EngineOptions options)
    : net_(net),
      options_(validated(options)),
      wmes_(net.slot_attrs()),
      join_(wmes_, options.num_buckets, join_histograms(options.metrics)),
      conflict_([&net](ProductionId pid) { return net.specificity(pid); }),
      mirror_(options.metrics) {}

void Engine::process_change(const ops5::WmeChange& change) {
  wmes_.check(change);
  if (listener_ != nullptr) listener_->on_wme_change(change);
  const Tag tag =
      change.kind == ops5::WmeChange::Kind::Add ? Tag::Plus : Tag::Minus;
  const WmeId id = change.wme.id();
  const std::span<const WmeId> root(&id, 1);
  if (tag == Tag::Plus) {
    wmes_.insert(change.wme);
  }
  queue_.clear();
  queue_wmes_.clear();
  // Constant-test (alpha) phase: find every alpha node the wme satisfies
  // and seed activations at the attached two-input nodes.
  for (const AlphaNode& alpha : net_.alphas()) {
    if (!alpha.matches(change.wme)) continue;
    for (const AlphaSuccessor& succ : alpha.successors) {
      enqueue(ActivationId::invalid(), succ.beta, succ.side, tag, root);
    }
    // Single-positive-CE productions: the wme itself is an instantiation.
    for (ProductionId pid : alpha.direct_productions) {
      update_conflict_set(conflict_, pid, root, tag);
    }
  }
  // Activations append their children, so the queue grows as it drains.
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const Pending p = queue_[head];  // activate() may reallocate queue_
    activate(p);
  }
  if (tag == Tag::Minus) {
    wmes_.erase(id);
  }
  mirror_.flush(join_.stats(), join_.live_tokens());
}

void Engine::enqueue(ActivationId parent, NodeId node, Side side, Tag tag,
                     std::span<const WmeId> token) {
  queue_.push_back(
      Pending{parent, node, side, tag, queue_wmes_.size(), token.size()});
  queue_wmes_.insert(queue_wmes_.end(), token.begin(), token.end());
}

void Engine::activate(const Pending& p) {
  const BetaNode& node = net_.beta(p.node);
  ActivationRecord rec;
  rec.id = ActivationId{next_activation_++};
  rec.parent = p.parent;
  rec.node = node.id;
  rec.side = p.side;
  rec.tag = p.tag;
  // The sink appends to queue_wmes_, so the token is copied out first.
  const WmeId* first = queue_wmes_.data() + p.begin;
  token_.assign(first, first + p.size);
  operands_.clear();
  if (p.side == Side::Left) {
    join_.left_operands(node, token_, operands_);
  } else {
    join_.right_operands(node, token_[0], operands_);
  }
  rec.bucket = join_.bucket_of(node, operands_);
  QueueSink sink{*this, rec.id};
  const JoinEmitted emitted =
      p.side == Side::Left
          ? join_.left_activation(node, p.tag, token_, operands_, rec.bucket,
                                  sink)
          : join_.right_activation(node, p.tag, token_[0], operands_,
                                   rec.bucket, sink);
  rec.successors = emitted.successors;
  rec.instantiations = emitted.instantiations;
  if (listener_ != nullptr) listener_->on_activation(rec);
}

}  // namespace mpps::rete
