// The scheduler seam: schedule-controlled execution of the parallel match
// engine.  When `ParallelOptions::schedule` is set the engine spawns no
// worker threads and takes no barriers; instead the control thread runs
// every worker's rounds cooperatively and asks the ScheduleControl, at
// each point where a real scheduler would have freedom, which of the
// admissible orders to take:
//
//   * `order_round`   — the processing order of one worker's incoming
//                       round: its items arrive as one FIFO stream per
//                       sending worker, and the free-running engine takes
//                       the streams one after another in worker order;
//   * `order_merge`   — the order one round's conflict-set deltas are
//                       applied during the deterministic merge.
//
// The engine computes the same result for any order the controller picks
// that respects per-sender FIFO — that is exactly the claim the `src/mc`
// model checker explores and asserts.  Orders that break FIFO (stale
// deletes overtaking their adds) genuinely change the outcome; the
// checker's planted faults use that to prove it can see real bugs.
//
// Every returned order must be a permutation of the indices the engine
// passed in; anything else raises mpps::RuntimeError.  Controlled mode is
// single-threaded, deterministic, and incompatible with the wall-clock
// profiler (the engine rejects the combination at construction).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mpps::pmatch {

/// One schedulable operation, as the seam describes it to the controller.
/// `bucket` is the dependence unit: operations on distinct buckets commute
/// (disjoint per-bucket state), so a partial-order-reducing controller
/// only permutes within a bucket.  For conflict-set deltas the field
/// carries the instantiation's dependence key instead (same key = same
/// (production, token) = the +/- pair that must stay ordered).  `op_hash`
/// identifies the operation's full content: two ops with equal hashes are
/// interchangeable, so exploring both orders is redundant.
struct ScheduledOp {
  std::uint32_t sender = 0;   // emitting worker
  std::uint64_t seq = 0;      // position in the sender's stream
  std::uint32_t bucket = 0;   // dependence class (see above)
  std::uint64_t op_hash = 0;  // content identity
};

class ScheduleControl {
 public:
  virtual ~ScheduleControl() = default;

  /// A new BSP phase is starting.  `phase_index` counts phases run by the
  /// engine so far.
  virtual void begin_phase(std::uint64_t phase_index) { (void)phase_index; }

  /// Processing order for `worker`'s round `round` (round >= 1; round 0 is
  /// the constant-test scan, where the real machine has no scheduler
  /// freedom).  `ops[i]` describes the item at index i of the incoming
  /// vector, which lists each sender's stream in emission order, senders
  /// ascending.  Must fill `order` with a permutation of [0, ops.size()).
  virtual void order_round(std::uint32_t worker, std::uint32_t round,
                           std::span<const ScheduledOp> ops,
                           std::vector<std::uint32_t>& order) = 0;

  /// Application order for the conflict-set deltas of merge round `round`.
  /// `ops[i].sender` is the worker that emitted delta i; `ops[i].bucket`
  /// is the instantiation dependence key.  Within one worker, deltas
  /// appear in emission order.  Must fill `order` with a permutation of
  /// [0, ops.size()).
  virtual void order_merge(std::uint32_t round,
                           std::span<const ScheduledOp> ops,
                           std::vector<std::uint32_t>& order) = 0;
};

}  // namespace mpps::pmatch
