// The serial Rete match engine over hashed memories.  It propagates +/-
// tokens through the compiled network, maintains the conflict set, and
// reports every two-input node activation to an optional listener — that
// listener is how the trace module records the hash-table activity the MPC
// simulator replays (the paper's Figure 4-1 input).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/common/ids.hpp"
#include "src/obs/metrics.hpp"
#include "src/ops5/wme.hpp"
#include "src/rete/conflict.hpp"
#include "src/rete/join.hpp"
#include "src/rete/memory.hpp"
#include "src/rete/network.hpp"
#include "src/rete/token.hpp"

namespace mpps::rete {

/// One two-input node activation, as the paper defines it: a token stored
/// into a memory plus the match against the opposite bucket.
struct ActivationRecord {
  ActivationId id;
  /// The activation whose match generated this token; invalid when the
  /// token came straight from the constant-test phase (a WM change).
  ActivationId parent;
  NodeId node;
  Side side = Side::Left;
  Tag tag = Tag::Plus;
  std::uint32_t bucket = 0;      // global hash bucket index
  std::uint32_t successors = 0;  // tokens generated toward beta successors
  std::uint32_t instantiations = 0;  // tokens sent to production nodes
};

/// Observer of engine activity; implemented by the trace collector.
class ActivationListener {
 public:
  virtual ~ActivationListener() = default;
  /// A WM change is about to be pushed through the constant-test layer.
  virtual void on_wme_change(const ops5::WmeChange& change) { (void)change; }
  /// A two-input node activation completed (successor counts are final).
  virtual void on_activation(const ActivationRecord& record) { (void)record; }
};

struct EngineOptions {
  /// Buckets per side of the global hash table — the unit the MPC mapping
  /// distributes across match processors.
  std::uint32_t num_buckets = 256;
  /// Optional metrics registry (not owned; see docs/OBSERVABILITY.md).
  /// Records rete.* counters, the hash-probe-length histogram and the
  /// bucket-occupancy histogram.  Null ⇒ zero recording cost.
  obs::Registry* metrics = nullptr;

  /// Throws mpps::UsageError naming the field when `num_buckets` is 0.
  void validate() const;
};

/// Mirrors a match engine's EngineStats into a metrics registry: the
/// rete.activations{side=left|right}, rete.tokens_generated,
/// rete.comparisons and rete.stale_deletes counters plus the
/// rete.live_tokens gauge.  Both match engines flush one after each
/// change or phase.
class StatsMirror {
 public:
  /// Registers the instruments; a null registry makes flush a no-op.
  explicit StatsMirror(obs::Registry* registry);

  /// Adds the counter deltas since the last flush and sets the gauge.
  void flush(const EngineStats& stats, std::size_t live_tokens);

 private:
  obs::Counter* left_ = nullptr;
  obs::Counter* right_ = nullptr;
  obs::Counter* tokens_ = nullptr;
  obs::Counter* comparisons_ = nullptr;
  obs::Counter* stale_ = nullptr;
  obs::Gauge* live_tokens_ = nullptr;
  EngineStats flushed_;
};

/// The match-engine contract the Interpreter's MRA loop drives.  Both the
/// serial `Engine` below and `pmatch::ParallelEngine` implement it; all an
/// engine owes the loop is per-change propagation, the conflict set, and
/// access to the wmes currently live inside the network.
class MatchEngine {
 public:
  virtual ~MatchEngine() = default;

  /// Registers the activation observer (e.g. the trace collector).
  /// Implementations must deliver activations in a deterministic order
  /// consistent with `trace::validate` (parents precede children).
  virtual void set_listener(ActivationListener* listener) = 0;

  /// Pushes one WM change (add or delete) fully through the network.
  virtual void process_change(const ops5::WmeChange& change) = 0;

  /// Pushes a whole act-phase's worth of WM changes through the network,
  /// in order.  The default is the per-change loop; engines that can
  /// amortize work across changes (pmatch batched BSP phases) override
  /// it.  The resulting conflict set is identical either way.
  virtual void process_changes(std::span<const ops5::WmeChange> changes) {
    for (const ops5::WmeChange& change : changes) process_change(change);
  }

  [[nodiscard]] virtual ConflictSet& conflict_set() = 0;

  /// The wme with `id`, which must be live inside the network.
  [[nodiscard]] virtual const ops5::Wme& wme(WmeId id) const = 0;

  [[nodiscard]] virtual const EngineStats& stats() const = 0;
};

/// Builds a match engine over a compiled network.  InterpreterOptions
/// carries one of these so callers can swap in a parallel engine without
/// the interpreter depending on it.
using MatchEngineFactory = std::function<std::unique_ptr<MatchEngine>(
    const Network&, const EngineOptions&)>;

class Engine final : public MatchEngine {
 public:
  /// The network must outlive the engine.  Throws what
  /// `options.validate()` throws.
  explicit Engine(const Network& net, EngineOptions options = {});

  // The join kernel refers to this engine's wme table.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  void set_listener(ActivationListener* listener) override {
    listener_ = listener;
  }

  /// Pushes one WM change (add or delete) fully through the network.
  /// Throws mpps::RuntimeError naming the wme id, before any memory or
  /// the listener sees the change, when it adds an id that is live or
  /// deletes one that is not; the engine stays usable.
  void process_change(const ops5::WmeChange& change) override;

  [[nodiscard]] ConflictSet& conflict_set() override { return conflict_; }
  [[nodiscard]] const ConflictSet& conflict_set() const { return conflict_; }

  [[nodiscard]] const EngineStats& stats() const override {
    return join_.stats();
  }
  [[nodiscard]] const HashedMemory& left_memory() const {
    return join_.left();
  }
  [[nodiscard]] const HashedMemory& right_memory() const {
    return join_.right();
  }

  /// The wme with `id`, which must be live inside the network.
  [[nodiscard]] const ops5::Wme& wme(WmeId id) const override {
    return wmes_.at(id);
  }

 private:
  /// One queued activation.  Its token (a right activation's is its
  /// wme) is the `size` wmes at `begin` in `queue_wmes_`.
  struct Pending {
    ActivationId parent;
    NodeId node;
    Side side;
    Tag tag;
    std::size_t begin = 0;
    std::size_t size = 0;
  };
  /// The join kernel's sink: children join the FIFO queue, instantiations
  /// update the conflict set.
  struct QueueSink;

  void enqueue(ActivationId parent, NodeId node, Side side, Tag tag,
               std::span<const WmeId> token);
  /// Runs one queued activation through the join kernel.
  void activate(const Pending& p);

  const Network& net_;
  EngineOptions options_;
  ActivationListener* listener_ = nullptr;
  WmeTable wmes_;
  JoinKernel join_;
  ConflictSet conflict_;
  // One change's FIFO of activations, its tokens back to back in one
  // buffer; both are cleared per change and keep their capacity.
  std::vector<Pending> queue_;
  std::vector<WmeId> queue_wmes_;
  std::vector<WmeId> token_;     // the current activation's token
  std::vector<Value> operands_;  // and its join-test operands
  std::uint64_t next_activation_ = 1;
  StatsMirror mirror_;
};

}  // namespace mpps::rete
