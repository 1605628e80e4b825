// The parallel match engine: the paper's architecture executed for real on
// shared-memory threads instead of simulated from a trace.  N workers act
// as match processors; the bucket space of the global hashed token
// memories is partitioned across them with the same `sim::Assignment`
// policies the simulator maps with; and each token activation travels as
// one message from the worker that made it to its bucket's owner, so a
// receiver sees one FIFO stream per sender (§3.2).  A cycle barrier at
// conflict-set assembly hands the merged conflict set back to the
// Interpreter's match-resolve-act loop.
//
// Execution model (docs/PARALLEL_MATCH.md has the full walkthrough):
// WM changes run as bulk-synchronous phases.  The control thread alpha-
// scans each change once, keys and buckets every constant-test root, and
// hands it to its bucket's owner as round 0.  Each round is then one
// match step per worker (process the round's items: store, join, append
// each child to the worker's outbox for the child's owner) and, after
// the round barrier, one exchange step per worker (gather every worker's
// outbox for this worker in worker order — sender-major, emission order
// within a sender — and let the schedule controller, if any, reorder
// it).  Outboxes alternate by round parity, so a worker can fill round
// r + 1's while another still gathers round r's: one barrier per round.
// With `threads > 1` and no controller, the calling thread runs worker 0's
// steps and each other worker runs its own on a thread of its own, and a
// phase barrier marks the phase's start and end; otherwise the calling
// thread runs every worker's steps in index order, and no thread is
// spawned.  Because an activation touches exactly one
// left/right bucket pair and each pair has one owner, per-bucket state
// never needs a lock; because rounds are gathered and merged in
// deterministic order, the conflict set, trace records and activation ids
// are reproducible for a fixed thread count — and at 1 thread with
// max_batch == 1 (the default) they are byte-identical to the serial
// `rete::Engine` (asserted in tests/pmatch_determinism_test.cpp).
//
// Batching (the paper's multiple-modify effect, §4): with
// `ParallelOptions::max_batch > 1`, `process_changes` runs up to
// max_batch consecutive WM changes as ONE phase — their constant-test
// roots all seed round 0 in change order, so the batch shares the
// per-round barriers and gathers instead of paying them once per
// change.  The conflict set after a batched phase equals the
// serial engine's after the same changes (as a set: join candidates
// share a bucket, so the +/- deltas of any one instantiation come from
// one worker in emission order and the round-major merge preserves it) —
// asserted against the serial oracle in tests/pmatch_batch_test.cpp.
//
// A phase that throws poisons the engine: it keeps the first error, drops
// the batch, and every later process_change / process_changes /
// begin_batch / flush throws mpps::RuntimeError naming that error.  A
// phase throws before round 0, naming the wme id, when a change adds an
// id that is live or deletes one that is not.  Deleted wmes stay in the
// wme table until their phase ends, so a phase may not re-add an id it
// deletes.
#pragma once

#include <array>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/common/ids.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/profiler.hpp"
#include "src/ops5/wme.hpp"
#include "src/pmatch/schedule.hpp"
#include "src/rete/conflict.hpp"
#include "src/rete/engine.hpp"
#include "src/rete/join.hpp"
#include "src/rete/memory.hpp"
#include "src/rete/network.hpp"
#include "src/sim/assignment.hpp"
#include "src/sim/costs.hpp"
#include "src/trace/record.hpp"

namespace mpps::pmatch {

struct ParallelOptions {
  /// Workers = match processors; must be positive.  Above 1 (and without
  /// `schedule`) the calling thread runs worker 0 and each other worker
  /// runs on its own thread, so the engine spawns threads - 1; at 1 the
  /// calling thread runs the worker, so the engine spawns no thread.
  std::uint32_t threads = 2;
  /// Buckets per memory side; 0 ⇒ inherit rete::EngineOptions::num_buckets
  /// through `parallel_engine_factory` (256 when constructed directly).
  std::uint32_t num_buckets = 0;
  /// Bucket-to-worker policy when no explicit `assignment` is given.
  enum class Partition : std::uint8_t { RoundRobin, Random };
  Partition partition = Partition::RoundRobin;
  /// Seed for Partition::Random.
  std::uint64_t seed = 1;
  /// Explicit bucket→worker map (e.g. from `greedy_static`).  Overrides
  /// `partition`/`num_buckets`; it must have buckets, and its num_procs
  /// must equal `threads`.  Only the cycle-0 map is used: tokens live in
  /// worker-owned memories across cycles, so the partition cannot migrate
  /// mid-run.
  std::optional<sim::Assignment> assignment;
  /// Items from other workers per round beyond which receipts count as
  /// overflows (`WorkerStats::mailbox_overflows`); never blocks.  Must be
  /// positive.
  std::size_t mailbox_capacity = 1024;
  /// Upper bound on WM changes fused into one BSP phase by
  /// `process_changes`.  1 (default) keeps the legacy one-change-one-phase
  /// behaviour (and byte-identical traces to the serial engine at one
  /// thread); 0 means "no bound" — a whole act-phase batch runs as a
  /// single phase.  `begin_batch()`/`flush()` ignore this bound: an
  /// explicit batch is always one phase.
  std::uint32_t max_batch = 1;
  /// Optional metrics registry (not owned).  Mirrors the serial engine's
  /// rete.* counters and adds pmatch.* measured counters: per-worker
  /// busy/idle nanoseconds, messages vs local deliveries, rounds, mailbox
  /// depth and overflows.  Null ⇒ no recording.
  obs::Registry* metrics = nullptr;
  /// Optional phase-attribution profiler (not owned; must outlive the
  /// engine).  The engine attaches it at construction (one profiler per
  /// engine) and every worker records wall-clock category spans plus
  /// per-bucket load into its own lane.  Null ⇒ profiling off: each
  /// recording site reduces to one pointer test and takes no clock
  /// readings (tests/pmatch_profile_test.cpp asserts results are
  /// identical either way).
  obs::Profiler* profiler = nullptr;
  /// Optional schedule controller (not owned; must outlive the engine).
  /// Non-null makes the calling thread run every worker's steps, as at
  /// one thread, whatever `threads` is, and the exchange step and the
  /// merge ask the controller for each admissible ordering decision
  /// (src/pmatch/schedule.hpp).  This is the seam the `src/mc` model
  /// checker drives.  Controlled mode is for exploring orderings, not for
  /// measurement: it excludes `profiler`.
  ScheduleControl* schedule = nullptr;

  /// Throws mpps::UsageError naming the field when `threads` or
  /// `mailbox_capacity` is 0, when both `schedule` and `profiler` are set,
  /// or when `assignment` has no buckets or maps a processor count other
  /// than `threads`.
  void validate() const;
};

/// Measured (wall-clock) per-worker counters, cumulative over the run.
/// busy/idle are nondeterministic by nature; everything else is
/// deterministic for a fixed thread count.
struct WorkerStats {
  std::uint64_t busy_ns = 0;
  std::uint64_t idle_ns = 0;            // time waiting on other workers
  std::uint64_t activations = 0;        // items this worker processed
  std::uint64_t messages_sent = 0;      // children routed to other workers
  std::uint64_t local_deliveries = 0;   // children kept on this worker
  std::uint64_t max_mailbox_depth = 0;  // most items received in a round
  std::uint64_t mailbox_overflows = 0;  // received beyond mailbox_capacity
};

class ParallelEngine final : public rete::MatchEngine {
 public:
  /// The network must outlive the engine.  Throws what
  /// `options.validate()` throws.  Spawns a thread for each worker but
  /// worker 0 when `threads > 1` and no `schedule` is set.
  explicit ParallelEngine(const rete::Network& net,
                          ParallelOptions options = {});
  ~ParallelEngine() override;

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  void set_listener(rete::ActivationListener* listener) override {
    listener_ = listener;
  }

  /// Runs one WM change as a bulk-synchronous phase across the workers
  /// (or, inside `begin_batch()`, defers it until `flush()`).
  void process_change(const ops5::WmeChange& change) override;
  /// As above, but inside a batch the change is moved into the queue
  /// instead of copied.
  void process_change(ops5::WmeChange&& change);

  /// Runs the changes in chunks of `ParallelOptions::max_batch` fused
  /// phases (see the header comment).  The interpreter hands each act
  /// phase's WM deltas here in one call.  Deprecated as a direct entry
  /// point: it is now a thin shim that opens a `begin_batch()`/`flush()`
  /// transaction per chunk, so the transaction surface (and the
  /// serve-layer Session API built on it, docs/SERVING.md) is the single
  /// path that runs phases.  Behaviour is identical; the facade test
  /// suite pins conflict-set equality between the two spellings.
  void process_changes(std::span<const ops5::WmeChange> changes) override;

  /// Explicit transaction API: between `begin_batch()` and `flush()`,
  /// `process_change` only queues.  `flush()` runs everything queued as
  /// ONE fused phase (regardless of max_batch) and leaves batch mode.
  /// The conflict set, `wme()` and stats are stale while a batch is open.
  /// Misuse is loud: `begin_batch()` with a batch already open and
  /// `flush()` without one both throw mpps::RuntimeError, and the engine
  /// stays fully usable after the throw.  A phase that fails poisons the
  /// engine instead (see the header comment).
  void begin_batch();
  void flush();
  [[nodiscard]] bool batching() const { return batching_; }

  [[nodiscard]] rete::ConflictSet& conflict_set() override {
    return conflict_;
  }
  [[nodiscard]] const ops5::Wme& wme(WmeId id) const override {
    return wmes_.at(id);
  }
  /// Aggregated across workers.  Identical to the serial engine's at
  /// 1 thread; at >1 threads transient +/- token pairs (which cancel
  /// before the conflict set) may add to the generation counters.
  [[nodiscard]] const rete::EngineStats& stats() const override {
    return stats_;
  }

  [[nodiscard]] std::uint32_t threads() const { return threads_; }
  [[nodiscard]] std::uint32_t num_buckets() const { return num_buckets_; }
  [[nodiscard]] const sim::Assignment& assignment() const {
    return assignment_;
  }
  /// Snapshot of the measured per-worker counters.  Call between
  /// process_change calls (i.e. not concurrently with a phase).
  [[nodiscard]] std::vector<WorkerStats> worker_stats() const;
  /// Total BSP rounds executed across all phases.
  [[nodiscard]] std::uint64_t rounds() const { return rounds_executed_; }
  /// Physical BSP phases run (<= changes() when batching).
  [[nodiscard]] std::uint64_t phases() const { return phases_; }
  /// WM changes processed (each phase covers >= 1 of them).
  [[nodiscard]] std::uint64_t changes() const { return changes_; }

 private:
  /// One activation in flight: the unit an outbox carries.  Its token
  /// (a right item's is its wme) is the `size` wmes at `token`, and the
  /// destination node's test operands, equality key first, are at
  /// `operands`, in its sender's rows for the round that made it (see
  /// Worker::rows).
  struct WorkItem {
    std::uint64_t parent = 0;  // provisional id; 0 ⇒ constant-test root
    std::uint32_t sender = 0;  // the emitting worker (a root's owner)
    NodeId node;
    rete::Side side = rete::Side::Left;
    rete::Tag tag = rete::Tag::Plus;
    std::uint32_t bucket = 0;
    std::uint32_t size = 0;
    std::size_t token = 0;
    std::size_t operands = 0;
  };
  static_assert(std::is_trivially_copyable_v<WorkItem>);

  /// The tokens and operands of the items one worker made in one round.
  struct Rows {
    std::vector<WmeId> wmes;
    std::vector<rete::Value> operands;

    void clear() {
      wmes.clear();
      operands.clear();
    }
  };

  /// A completed activation awaiting the deterministic merge.
  struct PendingRecord {
    rete::ActivationRecord rec;  // id/parent assigned at merge
    std::uint64_t provisional_id = 0;
    std::uint64_t provisional_parent = 0;
    std::uint32_t round = 0;
  };

  /// A conflict-set update awaiting the deterministic merge.  Its token is
  /// the `size` wmes at `begin` in its worker's `delta_wmes`.
  struct ConflictDelta {
    ProductionId pid;
    rete::Tag tag = rete::Tag::Plus;
    std::uint32_t round = 0;
    std::uint32_t size = 0;
    std::size_t begin = 0;
  };

  /// A conflict delta as the merge applies it, its token in place.
  struct MergedDelta {
    ProductionId pid;
    std::span<const WmeId> token;
    rete::Tag tag = rete::Tag::Plus;
  };

  struct Worker {
    std::uint32_t index = 0;
    rete::JoinKernel join;  // this worker's buckets and their counters
    // Per-phase state, touched only by the thread running the worker's
    // steps during a phase and by the control thread between phases.
    std::vector<WorkItem> current;
    std::vector<WorkItem> next;
    // Round r's children by destination worker, in emission order, in
    // outbox[r & 1]; each destination gathers its own after the round
    // barrier.  Round r + 1 fills the other parity, so a worker that has
    // moved on never writes a box a slower worker is still gathering, and
    // every gather of round r ends before round r + 1's barrier, which
    // comes before round r + 2 writes outbox[r & 1] again.
    std::array<std::vector<std::vector<WorkItem>>, 2> outbox;
    // The tokens and operands of round r's children, in rows[r & 1], and
    // of the roots the control thread hands this worker, in rows[1]; so
    // an item processed in round r reads its sender's rows[(r + 1) & 1].
    // Round r + 1 clears rows[(r + 1) & 1] before it writes them, after
    // round r's barrier has seen every read of them end.
    std::array<Rows, 2> rows;
    std::uint64_t routed = 0;  // children routed this round
    std::vector<PendingRecord> records;  // only while a listener is set
    std::vector<ConflictDelta> deltas;
    std::vector<WmeId> delta_wmes;  // the deltas' tokens, back to back
    // Items gathered from other workers, one sample per round.
    std::vector<std::uint64_t> received;
    std::uint64_t phase_activations = 0;  // items processed this phase
    std::uint32_t round = 0;
    std::uint64_t step_ns = 0;  // cooperative loop: this phase's steps
    std::size_t merged_records = 0;   // merge cursors into records
    std::size_t merged_deltas = 0;    // and deltas
    WorkerStats wstats;  // cumulative across phases
    obs::ProfLane* lane = nullptr;    // null ⇒ profiling off
    std::uint64_t prof_enqueue_ns = 0;  // per-round cross-worker push time
    std::exception_ptr error;  // first match-step failure this phase
    std::thread thread;  // with worker threads, every worker but 0

    Worker(std::uint32_t idx, const rete::WmeTable& wmes,
           std::uint32_t num_buckets, std::uint32_t workers)
        : index(idx), join(wmes, num_buckets) {
      for (auto& boxes : outbox) boxes.resize(workers);
    }
  };

  struct RoundCompletion {
    ParallelEngine* engine;
    void operator()() noexcept { engine->on_round_end(); }
  };

  /// The join kernel's sink on a worker: a child becomes a WorkItem, its
  /// token and operands appended to the round's rows, routed to its
  /// bucket's owner; an instantiation a ConflictDelta for the merge, its
  /// token appended to `delta_wmes`.
  struct WorkerSink;

  struct Instruments {
    obs::Counter* messages = nullptr;
    obs::Counter* local = nullptr;
    obs::Counter* rounds = nullptr;
    obs::Counter* phases = nullptr;
    obs::Counter* changes = nullptr;
    obs::Counter* overflows = nullptr;
    obs::Histogram* mailbox_depth = nullptr;
    std::vector<obs::Counter*> busy;  // per worker
    std::vector<obs::Counter*> idle;  // per worker
  };

  using Clock = std::chrono::steady_clock;

  /// True when worker threads run the rounds (threads > 1, no controller).
  [[nodiscard]] bool threaded() const {
    return threads_ > 1 && options_.schedule == nullptr;
  }
  /// Throws if a failed phase poisoned the engine.
  void require_usable() const;
  /// A worker thread's body: between the phase barrier's start and end
  /// arrivals, one run_worker_phase.
  void worker_main(Worker& w);
  /// Runs `count` consecutive WM changes as one fused BSP phase (the
  /// single control-side path behind process_change / process_changes /
  /// flush).  Seeds round 0, has the rounds driven, then merges.
  void run_phase(const ops5::WmeChange* changes, std::size_t count);
  /// Reads one constant-test root's operands, buckets it and appends it
  /// to its bucket owner's round 0 and rows[1].
  void seed_root(WmeId root, const rete::AlphaSuccessor& succ, rete::Tag tag);
  /// The two ways to run a phase's rounds.  A worker (worker 0 on the
  /// calling thread, the others on their own) runs its own match step,
  /// waits at the round barrier, then runs its exchange step; the
  /// cooperative loop runs every worker's match step, then every worker's
  /// exchange step, on the calling thread, in index order.  A worker
  /// keeps a match step's failure in `error`, so nothing here throws but
  /// a failed allocation, which ends the process as it would on a worker
  /// thread.
  void run_worker_phase(Worker& w) noexcept;
  void run_cooperative_phase();
  /// The two halves of one worker's round, shared by both loops.  Each
  /// starts at `start` (the clock reading that ended the worker's previous
  /// segment), records its profiler spans, and returns its own ending
  /// clock reading.  The match step processes `current` into the outboxes
  /// and keeps the first failure in `error`; the exchange step fills
  /// `next` with the next round's items in processing order.
  Clock::time_point match_step(Worker& w, Clock::time_point start);
  Clock::time_point exchange_step(Worker& w, Clock::time_point start);
  /// Ends a round once every match step has: the phase is done when no
  /// worker routed a child.  Worker threads run it as the round barrier's
  /// completion step; the cooperative loop calls it between the match and
  /// exchange steps.
  void on_round_end() noexcept;
  /// Resets a worker's per-phase state; every phase starts with it.
  static void begin_worker_phase(Worker& w);
  /// Charges one phase's wall to the worker's busy/idle counters and
  /// profiler lane.
  static void end_worker_phase(Worker& w, Clock::time_point start,
                               Clock::time_point end, std::uint64_t idle_ns);
  /// The token of an item whose sender made it in a round of parity
  /// `parity` (a root: 1).
  [[nodiscard]] std::span<const WmeId> token_of(const WorkItem& item,
                                                std::uint32_t parity) const;
  void process_item(Worker& w, const WorkItem& item);
  void route(Worker& w, const WorkItem& item);

  void merge_phase();
  /// Content hashes feeding ScheduledOp: `item_hash` identifies a round
  /// item's full effect (node, side, tag, token); the delta hashes
  /// identify a conflict delta with (`identity`) and without
  /// (`dependence`) its +/- tag — deltas sharing the dependence hash are
  /// the add/remove pair of one instantiation and must stay ordered.
  [[nodiscard]] static std::uint64_t item_hash(const WorkItem& item,
                                               std::span<const WmeId> token);
  [[nodiscard]] static std::uint64_t delta_identity_hash(
      const MergedDelta& d);
  [[nodiscard]] static std::uint64_t delta_dependence_hash(
      const MergedDelta& d);
  void collect_stats();
  void flush_metrics();

  const rete::Network& net_;
  ParallelOptions options_;
  std::uint32_t threads_ = 1;
  std::uint32_t num_buckets_ = 256;
  sim::Assignment assignment_;
  std::vector<std::uint32_t> owner_map_;  // bucket → worker
  obs::ProfLane* control_lane_ = nullptr;  // null ⇒ profiling off
  rete::ActivationListener* listener_ = nullptr;
  rete::ConflictSet conflict_;
  rete::WmeTable wmes_;
  std::vector<WmeId> deleted_;  // this phase's deletes, erased at its end
  std::vector<rete::Value> root_operands_;  // seed_root's scratch
  std::vector<std::unique_ptr<Worker>> workers_;

  // Phase barrier (worker threads only): every worker arrives once when
  // the control thread has seeded round 0 and once when its phase ends,
  // so the control thread's writes before a phase and the workers' writes
  // during it are each sequenced before the other side reads them.  The
  // destructor sets `stop_` and arrives in place of a phase start.
  std::barrier<> phase_barrier_;
  bool stop_ = false;

  // Round machinery.  `phase_done_`/`rounds_executed_` are written only by
  // `on_round_end`.  With worker threads std::barrier runs it exactly once
  // per round with every worker blocked, so the barrier sequences those
  // writes against all worker reads.
  std::barrier<RoundCompletion> round_barrier_;
  bool phase_done_ = false;
  std::uint64_t rounds_executed_ = 0;

  std::uint64_t next_activation_ = 1;
  std::unordered_map<std::uint64_t, ActivationId> remap_;
  std::vector<MergedDelta> merge_group_;  // one round's deltas
  rete::EngineStats stats_;
  rete::StatsMirror mirror_;
  std::vector<WorkerStats> flushed_workers_;
  std::uint64_t flushed_rounds_ = 0;
  std::uint64_t phases_ = 0;
  std::uint64_t flushed_phases_ = 0;
  std::uint64_t changes_ = 0;
  std::uint64_t flushed_changes_ = 0;
  // Explicit-transaction state (begin_batch/flush).
  bool batching_ = false;
  std::vector<ops5::WmeChange> pending_batch_;
  std::optional<std::string> failure_;  // set ⇒ poisoned by a failed phase
  Instruments instr_;
};

/// Adapts ParallelOptions into the InterpreterOptions::engine_factory
/// slot.  num_buckets == 0 and metrics == nullptr inherit the values of
/// the rete::EngineOptions the interpreter passes in; the factory throws
/// what that struct's `validate()` throws.
rete::MatchEngineFactory parallel_engine_factory(ParallelOptions options);

/// Whole-trace greedy (LPT) bucket→worker map: the offline-greedy policy
/// of sim::Assignment::greedy collapsed to a single static partition, so
/// it can drive a live engine whose tokens cannot migrate between cycles.
/// Each bucket's sim::bucket_costs, summed over every cycle, is dealt by
/// sim::greedy_map.  Throws mpps::RuntimeError when `threads` is 0.
sim::Assignment greedy_static(const trace::Trace& trace,
                              std::uint32_t threads,
                              const sim::CostModel& costs);

}  // namespace mpps::pmatch
