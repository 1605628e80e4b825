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

  void successor(NodeId node, const Token& token, Tag tag) {
    engine.queue_.push_back(
        Pending{parent, node, Side::Left, tag, token, WmeId{}});
  }
  void instantiation(ProductionId pid, const Token& token, Tag tag) {
    update_conflict_set(engine.conflict_, pid, token, tag);
  }
};

Engine::Engine(const Network& net, EngineOptions options)
    : net_(net),
      options_(validated(options)),
      join_(wmes_, options.num_buckets, join_histograms(options.metrics)),
      conflict_([&net](ProductionId pid) {
        return net.production(pid).specificity();
      }),
      mirror_(options.metrics) {}

void Engine::process_change(const ops5::WmeChange& change) {
  if (listener_ != nullptr) listener_->on_wme_change(change);
  const Tag tag =
      change.kind == ops5::WmeChange::Kind::Add ? Tag::Plus : Tag::Minus;
  const WmeId id = change.wme.id();
  if (tag == Tag::Plus) {
    wmes_.emplace(id, change.wme);
  }
  // Constant-test (alpha) phase: find every alpha node the wme satisfies
  // and seed activations at the attached two-input nodes.
  for (const AlphaNode& alpha : net_.alphas()) {
    if (!alpha.matches(change.wme)) continue;
    for (const AlphaSuccessor& succ : alpha.successors) {
      Pending p{ActivationId::invalid(), succ.beta, succ.side, tag, {}, {}};
      if (succ.side == Side::Left) {
        p.token = Token{{id}};
      } else {
        p.wme = id;
      }
      queue_.push_back(std::move(p));
    }
    // Single-positive-CE productions: the wme itself is an instantiation.
    for (ProductionId pid : alpha.direct_productions) {
      update_conflict_set(conflict_, pid, Token{{id}}, tag);
    }
  }
  while (!queue_.empty()) {
    const Pending p = std::move(queue_.front());
    queue_.pop_front();
    activate(p);
  }
  if (tag == Tag::Minus) {
    wmes_.erase(id);
  }
  mirror_.flush(join_.stats(), join_.live_tokens());
}

void Engine::activate(const Pending& p) {
  const BetaNode& node = net_.beta(p.node);
  ActivationRecord rec;
  rec.id = ActivationId{next_activation_++};
  rec.parent = p.parent;
  rec.node = node.id;
  rec.side = p.side;
  rec.tag = p.tag;
  QueueSink sink{*this, rec.id};
  JoinEmitted emitted;
  if (p.side == Side::Left) {
    join_.left_key(node, p.token, key_);
    emitted = join_.left_activation(node, p.tag, p.token, key_, sink);
  } else {
    JoinKernel::right_key(node, wmes_.at(p.wme), key_);
    emitted = join_.right_activation(node, p.tag, p.wme, key_, sink);
  }
  rec.bucket = bucket_index(node.id, key_, options_.num_buckets);
  rec.successors = emitted.successors;
  rec.instantiations = emitted.instantiations;
  if (listener_ != nullptr) listener_->on_activation(rec);
}

}  // namespace mpps::rete
