// The multi-tenant serving engine: one long-lived Rete + ParallelEngine
// multiplexing many concurrent client sessions (docs/SERVING.md has the
// full execution model).
//
// Architecture, in one paragraph: every session is a tagged partition of
// working memory.  The engine compiles the rule base with
// `CompileOptions::partition_attr` set to a reserved attribute, stamps
// that attribute (= the session ordinal) onto every wme it admits, and
// namespaces wme timetags per session (engine id = ordinal << 40 |
// session-local id).  The implicit partition equality leads every beta
// node's hash key, so sessions shard across the paper's hashed-memory
// bucket space like tenants across a DHT — one session's tokens can
// never join another session's wmes, even for rules over shared symbols
// and even when bucket indices collide (`HashedMemory::probe` compares
// full keys).  Clients talk to a bounded admission queue; a dispatcher
// thread coalesces queued transactions from DIFFERENT sessions into one
// fused BSP batch (`begin_batch`/`flush`), so concurrent tenants share
// each phase's barriers and merges the same way `max_batch` lets
// consecutive changes share them.  Conflict-set deltas are attributed
// back to the causing transaction through the session bits of their
// token wme ids — at most one transaction per session per batch keeps
// the attribution unambiguous.
//
// Threading: clients call Session::submit/transact from any thread; the
// dispatcher is the only thread that drives the ParallelEngine and the
// only writer of session/stat state (guarded by one mutex for the
// reader-facing parts).  Results travel back through per-transaction
// futures.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/ids.hpp"
#include "src/common/symbol.hpp"
#include "src/obs/metrics.hpp"
#include "src/ops5/ast.hpp"
#include "src/ops5/wme.hpp"
#include "src/pmatch/engine.hpp"
#include "src/rete/conflict.hpp"
#include "src/rete/network.hpp"

namespace mpps::serve {

/// The reserved partition attribute the engine stamps on every admitted
/// wme.  Programs must not test or set it themselves.
[[nodiscard]] Symbol session_attr();

struct ServeOptions {
  /// The parallel match engine's knobs (threads, buckets, mailboxes,
  /// profiler...), under ParallelOptions' own rules.  `schedule` must be
  /// null: serving is driven by real threads, not a model-checking
  /// controller.  `max_batch` is ignored — admission batching decides
  /// phase boundaries (one explicit transaction batch per fused phase).
  pmatch::ParallelOptions match;
  /// Rete compilation knobs; `partition_attr` is forced to
  /// `session_attr()` regardless of what it holds.
  rete::CompileOptions compile;
  /// Max transactions fused into one BSP phase; must be positive.  Only
  /// transactions from distinct sessions fuse; a session's own
  /// transactions always run in separate phases, in submission order.
  std::uint32_t admission_batch = 16;
  /// Bound on queued-but-unadmitted transactions (must be positive);
  /// `submit` blocks (the closed-loop backpressure) while the queue is
  /// full.
  std::size_t queue_capacity = 256;
  /// Concurrently open sessions allowed; must be positive.
  std::uint32_t max_sessions = 1024;
  /// Optional metrics registry (not owned).  Adds the serve.* instruments
  /// (docs/SERVING.md) and, if `match.metrics` is unset, also routes the
  /// engine's rete.*/pmatch.* counters here.
  obs::Registry* metrics = nullptr;

  /// Throws mpps::UsageError naming the field when `admission_batch`,
  /// `queue_capacity` or `max_sessions` is 0 or `match.schedule` is set,
  /// then applies `match.validate()`.
  void validate() const;
};

struct SessionOptions {
  /// Metrics label; "s<ordinal>" when empty.
  std::string label;
  /// Reject transactions that would push the session's live-wme count
  /// past this bound (0 = unbounded) — the lever soak setups use to keep
  /// RSS flat.
  std::size_t max_live_wmes = 0;
};

/// A buffered set of WM mutations submitted (and admitted) atomically:
/// all of a transaction's changes run in the same BSP phase.  Ids are
/// SESSION-LOCAL: `add` on a wme with an invalid id lets the engine
/// assign the next local id; a wme carrying an id keeps it (replay);
/// `remove` names a live local id.  Clients never see the namespaced
/// engine ids except inside `TxResult::fired` tokens.
class Transaction {
 public:
  Transaction& add(ops5::Wme wme) {
    ops_.push_back(Op{Op::Kind::Add, std::move(wme), 0});
    return *this;
  }
  Transaction& remove(WmeId local_id) {
    ops_.push_back(Op{Op::Kind::Remove, ops5::Wme{}, local_id.value()});
    return *this;
  }
  [[nodiscard]] std::size_t size() const { return ops_.size(); }
  [[nodiscard]] bool empty() const { return ops_.empty(); }

 private:
  friend class ServeEngine;
  struct Op {
    enum class Kind : std::uint8_t { Add, Remove };
    Kind kind = Kind::Add;
    ops5::Wme wme;           // Add
    std::uint64_t local = 0;  // Remove
  };
  std::vector<Op> ops_;
};

/// What one transaction did, as observed at its fused phase's merge.
struct TxResult {
  /// Session-local ids assigned to this transaction's adds, in op order.
  std::vector<WmeId> added;
  /// Instantiations this transaction's changes put INTO the conflict set
  /// (token wme ids are engine-namespaced; `ServeEngine::local_id`
  /// recovers the session-local timetags).
  std::vector<rete::Instantiation> fired;
  /// Instantiations it knocked OUT of the conflict set.
  std::uint64_t retracted = 0;
  /// Submit-to-completion wall latency.
  std::uint64_t latency_ns = 0;
  /// Engine phase the transaction ran in and how many transactions
  /// (across sessions) were fused into it.
  std::uint64_t phase = 0;
  std::uint32_t fused_transactions = 1;
};

class ServeEngine;

/// Client handle to one session.  Movable, not copyable; cheap.  Closing
/// is explicit — a dropped handle leaves the partition live (evictable
/// via `ServeEngine::evict`).
class Session {
 public:
  Session() = default;
  Session(Session&& o) noexcept : engine_(o.engine_), ordinal_(o.ordinal_) {
    o.engine_ = nullptr;
  }
  Session& operator=(Session&& o) noexcept {
    engine_ = o.engine_;
    ordinal_ = o.ordinal_;
    o.engine_ = nullptr;
    return *this;
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] std::uint32_t id() const { return ordinal_; }
  [[nodiscard]] bool valid() const { return engine_ != nullptr; }

  /// Queues a transaction; the future resolves when its phase completes.
  /// Blocks only for admission-queue space.  Throws mpps::RuntimeError if
  /// the session/engine is closed; per-transaction validation failures
  /// (unknown remove id, wm bound exceeded) surface as mpps::UsageError
  /// from the future.
  std::future<TxResult> submit(Transaction tx);
  /// submit + get: the closed-loop client call.
  TxResult transact(Transaction tx) { return submit(std::move(tx)).get(); }
  /// Replay convenience: a recorded WM-change stream (e.g. an act phase's
  /// `drain_changes`) as one transaction, ids preserved session-locally.
  TxResult transact(std::span<const ops5::WmeChange> changes);
  /// Retracts every live wme of the session and closes it (further
  /// submits throw).  Returns the retraction transaction's result.
  TxResult close();

 private:
  friend class ServeEngine;
  Session(ServeEngine* engine, std::uint32_t ordinal)
      : engine_(engine), ordinal_(ordinal) {}
  ServeEngine* engine_ = nullptr;
  std::uint32_t ordinal_ = 0;
};

/// Point-in-time serving counters (`ServeEngine::stats`).
struct ServeStats {
  std::uint64_t transactions = 0;  // completed (incl. rejected) txs
  std::uint64_t changes = 0;       // WM changes run through the engine
  std::uint64_t batches = 0;       // fused phases dispatched
  std::uint64_t activations = 0;   // conflict-set additions
  std::uint64_t retractions = 0;   // conflict-set removals
  std::uint64_t rejected = 0;      // txs failed validation at admission
  std::uint64_t max_queue_depth = 0;
  std::uint64_t max_fused = 0;     // largest transaction fan-in of a phase
  /// Conflict deltas whose token wmes named no admitted session, or more
  /// than one.  Any nonzero value means partition isolation broke; the
  /// adversarial suite pins this at 0.
  std::uint64_t cross_session_deltas = 0;
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;

  struct SessionInfo {
    std::uint32_t id = 0;
    std::string label;
    bool open = false;
    std::uint64_t live_wmes = 0;
    std::uint64_t transactions = 0;
    std::uint64_t activations = 0;
  };
  std::vector<SessionInfo> sessions;  // every session ever opened, by id
};

/// The latency/throughput summary of a serving run so far
/// (docs/SERVING.md, "Reading the latency report").
struct LatencyReport {
  std::uint64_t transactions = 0;
  std::uint64_t changes = 0;
  std::uint64_t activations = 0;
  double wall_s = 0.0;   // first submit -> last completion
  double p50_us = 0.0;   // histogram-bucket upper bounds
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  double max_us = 0.0;
  double tx_per_s = 0.0;
  double changes_per_s = 0.0;
  double activations_per_s = 0.0;
};

/// The serving engine.  Owns the compiled network, the ParallelEngine and
/// the dispatcher thread; outlives every Session handle it issued.
class ServeEngine {
 public:
  /// Compiles `program` with partition isolation and starts serving.
  /// Throws what `options.validate()` throws.
  explicit ServeEngine(const ops5::Program& program, ServeOptions options = {});
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Opens a session (bounded by ServeOptions::max_sessions; throws
  /// mpps::RuntimeError at the bound or after shutdown).
  Session open_session(SessionOptions options = {});

  /// Owner-side forced close: the session stops accepting submits
  /// immediately; its live wmes are retracted when the eviction reaches
  /// the head of the queue.  `Session::close()` is the cooperative
  /// spelling of the same thing.
  std::future<TxResult> evict(std::uint32_t session_id);

  /// Drains the admission queue, stops the dispatcher and rejects further
  /// submits.  Idempotent; the destructor calls it.
  void shutdown();

  [[nodiscard]] ServeStats stats() const;
  [[nodiscard]] LatencyReport latency_report() const;

  /// Snapshot of the engine's conflict set.  Only meaningful while no
  /// transaction is in flight (every issued future resolved): the
  /// dispatcher mutates the set outside the stats lock during a phase.
  [[nodiscard]] std::vector<rete::Instantiation> conflict_snapshot() const;

  [[nodiscard]] const rete::Network& network() const { return net_; }
  [[nodiscard]] std::uint32_t threads() const { return engine_->threads(); }

  /// Session/local split of a namespaced engine wme id.
  [[nodiscard]] static std::uint32_t session_of(WmeId id) {
    return static_cast<std::uint32_t>(id.value() >> kSessionShift);
  }
  [[nodiscard]] static WmeId local_id(WmeId id) {
    return WmeId{id.value() & ((std::uint64_t{1} << kSessionShift) - 1)};
  }

 private:
  friend class Session;
  static constexpr std::uint32_t kSessionShift = 40;
  static constexpr std::uint64_t kLocalMask =
      (std::uint64_t{1} << kSessionShift) - 1;

  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// What the transaction being admitted did to one id of its session's
  /// live set; every other id holds the default.
  struct TxMark {
    std::uint32_t add = 0;  // 1 + the index of its add in changes_, or 0
    bool removed = false;
  };

  struct SessionState {
    std::string label;
    bool open = true;
    bool closing = false;  // eviction queued; rejects new submits
    std::size_t max_live_wmes = 0;
    std::uint64_t next_local = 1;
    /// Live local ids.  While a transaction is admitted, an id it removed
    /// stays here marked until the transaction commits.
    std::unordered_map<std::uint64_t, TxMark> live;
    std::uint64_t transactions = 0;
    std::uint64_t activations = 0;
    /// The last admission that took one of its transactions, and that
    /// transaction's slot in batch_ (kNoSlot when it was rejected).
    std::uint64_t admission = 0;
    std::uint32_t slot = kNoSlot;
    obs::Gauge* wm_gauge = nullptr;
    obs::Counter* tx_counter = nullptr;
  };

  struct Pending {
    std::uint32_t ordinal = 0;
    bool close = false;
    Transaction tx;
    std::promise<TxResult> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// A Pending admitted into the current fused batch.
  struct Admitted {
    // Takes the queued Pending's promise; a default-made one would
    // allocate a shared state of its own first.
    explicit Admitted(Pending p) : pending(std::move(p)) {}
    Pending pending;
    TxResult result;
    std::uint32_t fired = 0;  // its conflict-set adds, counted by complete
  };

  /// One conflict-set delta of the running phase; its token is the `size`
  /// wmes at `begin` in delta_wmes_.
  struct PhaseDelta {
    ProductionId production;
    bool added = false;
    std::uint32_t owner = kNoSlot;  // its transaction's slot, or a leak
    std::uint32_t size = 0;
    std::size_t begin = 0;
  };

  std::future<TxResult> enqueue(std::uint32_t ordinal, Transaction tx,
                                bool close);
  void dispatcher_main();
  /// Moves <= admission_batch queued transactions, one per session, into
  /// batch_ and their stamped, namespaced changes into changes_
  /// (rejections settle their promise right here), and updates session
  /// liveness.  Caller holds mu_.
  void admit();
  /// Validates one transaction against its session's live set, editing
  /// the set in place and appending its changes to changes_.  On the
  /// first bad op it undoes its edits and throws UsageError.
  void resolve(SessionState& s, Pending& p, TxResult& result);
  /// The batch_ slot of the transaction whose session every wme of the
  /// delta's token names, or kNoSlot.
  [[nodiscard]] std::uint32_t owner_of(const PhaseDelta& d) const;
  void complete(std::size_t change_count);

  ServeOptions options_;
  rete::Network net_;
  std::unique_ptr<pmatch::ParallelEngine> engine_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable space_cv_;
  std::deque<Pending> queue_;
  std::vector<SessionState> sessions_;
  bool stop_ = false;
  ServeStats counters_;  // sessions field unused; filled by stats()

  std::uint64_t admission_ = 0;  // admissions so far: the session stamp

  // The dispatcher's buffers; each is emptied, not freed, between phases.
  // Admission fills batch_ and changes_ under mu_; the phase moves the
  // changes into the engine, and the delta hook appends to deltas_ and
  // delta_wmes_ during flush, from the dispatcher, without the lock.
  std::vector<Admitted> batch_;
  std::vector<ops5::WmeChange> changes_;
  std::vector<std::uint64_t> touched_;  // ids resolve marked in live
  std::vector<PhaseDelta> deltas_;
  std::vector<WmeId> delta_wmes_;

  obs::Histogram latency_hist_;
  bool saw_tx_ = false;
  std::chrono::steady_clock::time_point first_enqueue_;
  std::chrono::steady_clock::time_point last_complete_;

  obs::Histogram* latency_metric_ = nullptr;
  obs::Gauge* queue_gauge_ = nullptr;
  obs::Gauge* sessions_gauge_ = nullptr;
  obs::Counter* tx_metric_ = nullptr;
  obs::Counter* activation_metric_ = nullptr;
  obs::Counter* retraction_metric_ = nullptr;
  obs::Counter* cross_metric_ = nullptr;

  std::thread dispatcher_;
};

}  // namespace mpps::serve
