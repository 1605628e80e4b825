// The wall-clock phase-attribution profiler for measured (threaded) match
// engines: where `Tracer` records *simulated* time, this subsystem
// attributes *real* nanoseconds of every BSP phase to a fixed category
// set — match compute, mailbox enqueue/dequeue, barrier wait, round
// merge, conflict-set update — per worker and per round.  It is the
// measured-engine counterpart of the paper's Table 5-1 cost split
// (match / send / recv / overhead per processor), and the per-bucket load
// accounting it keeps is the prerequisite for online bucket rebalancing.
//
// Design constraints (the PR 1 zero-cost pattern, docs/OBSERVABILITY.md):
//   * Lanes are single-writer append-only buffers.  Each worker owns one
//     `ProfLane`, written only by the thread running that worker's steps
//     (the calling thread for worker 0 and for every worker of a 1-thread
//     engine, each other worker's own thread otherwise), with
//     `steady_clock` stamps; no locks, no allocation beyond vector growth,
//     no cross-thread writes.
//   * Null-sink guard.  Instrumented code holds a `ProfLane*` that is
//     nullptr when profiling is off; every recording site is one pointer
//     test and the disabled path takes no clock readings at all (asserted
//     in tests/pmatch_profile_test.cpp).
//   * Reading is quiescent-only.  `report()` / `export_chrome_trace()`
//     walk the lanes and must only run while no instrumented phase is in
//     flight (for pmatch: between `process_change` calls — worker writes
//     are sequenced before the control thread's reads by the engine's
//     phase barrier, which every worker arrives at when its phase ends).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace mpps::obs {

class Tracer;

/// The fixed attribution categories.  `Match` spans carry the nanoseconds
/// spent inside cross-worker pushes as `aux`; reports subtract that out,
/// so the six categories are disjoint and sum to at most the measured
/// wall time.
enum class ProfCategory : std::uint8_t {
  Match = 0,           // alpha scan + join work on owned buckets
  MailboxEnqueue,      // appending children to other workers' outboxes
  MailboxDequeue,      // gathering the own round from every outbox
  BarrierWait,         // parked at the round barrier
  RoundMerge,          // a schedule controller's reorder of the round
  ConflictUpdate,      // control-thread deterministic merge + conflict set
};
inline constexpr std::size_t kProfCategories = 6;

/// Stable lower_snake_case name ("match", "barrier_wait", ...), used by
/// the text report, the JSON schema and the Chrome-trace export.
const char* prof_category_name(ProfCategory category);

/// 100 * part / whole, clamped to [0, 100] (0 when whole == 0).  Every
/// percentage the profiler, the CLI JSON and the bench attribution
/// objects emit goes through this, so no report can show the impossible
/// >100% figures the unclamped ratios once produced
/// (tests/obs_profiler_test.cpp asserts the range property).
[[nodiscard]] double safe_pct(std::uint64_t part, std::uint64_t whole);

/// One attributed wall-clock interval, relative to the profiler epoch.
struct ProfSpan {
  ProfCategory category = ProfCategory::Match;
  std::uint32_t round = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  /// Category-specific payload: Match → ns inside cross-worker pushes (to
  /// be re-attributed to MailboxEnqueue), MailboxDequeue → items received
  /// from other workers, RoundMerge → round size, ConflictUpdate →
  /// records merged.
  std::uint64_t aux = 0;
};

/// Cumulative load of one hashed-memory bucket, owned by one lane.
struct ProfBucketLoad {
  std::uint64_t activations = 0;
  std::uint64_t tokens_touched = 0;  // opposite-memory candidates + self
};

/// One thread's append-only recording buffer.  Only the owning thread may
/// write; the profiler reads at report time (quiescent).
class ProfLane {
 public:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] static Clock::time_point now() { return Clock::now(); }

  /// Converts an absolute clock reading to epoch-relative nanoseconds.
  [[nodiscard]] std::uint64_t stamp(Clock::time_point t) const {
    return t <= epoch_ ? 0
                       : static_cast<std::uint64_t>(
                             std::chrono::duration_cast<
                                 std::chrono::nanoseconds>(t - epoch_)
                                 .count());
  }

  void span(ProfCategory category, std::uint32_t round, std::uint64_t start_ns,
            std::uint64_t end_ns, std::uint64_t aux = 0) {
    spans_.push_back(ProfSpan{category, round, start_ns,
                              end_ns > start_ns ? end_ns - start_ns : 0, aux});
  }

  /// One whole BSP phase as seen by this worker — the attribution
  /// denominator (wall time) for this lane.
  void phase_span(std::uint64_t start_ns, std::uint64_t end_ns) {
    phase_starts_.push_back(start_ns);
    phase_durs_.push_back(end_ns > start_ns ? end_ns - start_ns : 0);
  }

  /// Accounts one processed activation against its bucket.
  void bucket_load(std::uint32_t bucket, std::uint64_t tokens_touched) {
    ProfBucketLoad& b = buckets_[bucket];
    ++b.activations;
    b.tokens_touched += tokens_touched;
  }

  [[nodiscard]] const std::vector<ProfSpan>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<std::uint64_t>& phase_starts() const {
    return phase_starts_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& phase_durs() const {
    return phase_durs_;
  }
  [[nodiscard]] const std::vector<ProfBucketLoad>& buckets() const {
    return buckets_;
  }

 private:
  friend class Profiler;
  ProfLane(Clock::time_point epoch, std::uint32_t num_buckets)
      : epoch_(epoch), buckets_(num_buckets) {}

  Clock::time_point epoch_;
  std::vector<ProfSpan> spans_;
  std::vector<std::uint64_t> phase_starts_;
  std::vector<std::uint64_t> phase_durs_;
  std::vector<ProfBucketLoad> buckets_;
};

/// The aggregated Table 5-1-style breakdown `report()` computes.
struct ProfileReport {
  struct Worker {
    std::uint64_t wall_ns = 0;  // sum of this worker's phase spans
    std::array<std::uint64_t, kProfCategories> category_ns{};
    std::uint64_t unattributed_ns = 0;  // wall - sum(categories)
    std::uint64_t activations = 0;      // from the bucket-load accounting
    /// 100 * (wall - unattributed) / wall; 100 when wall == 0.
    [[nodiscard]] double attributed_pct() const;
  };
  struct HotBucket {
    std::uint32_t bucket = 0;
    std::uint32_t worker = 0;  // owning lane
    std::uint64_t activations = 0;
    std::uint64_t tokens_touched = 0;
    double share_pct = 0.0;  // of all recorded activations
  };

  std::vector<Worker> workers;
  /// Category totals across workers, MailboxEnqueue split out of Match;
  /// ConflictUpdate holds the control lane's merge time.
  std::array<std::uint64_t, kProfCategories> total_ns{};
  std::uint64_t total_wall_ns = 0;          // sum of worker walls
  std::uint64_t total_unattributed_ns = 0;  // sum of worker remainders
  std::uint64_t conflict_update_ns = 0;     // control lane (== ConflictUpdate)
  /// Sum of the control lane's phase spans: phase start → merge end,
  /// one per BSP phase.  This is engine time (the merge is inside it), so
  /// it is the denominator conflict_update_pct() normalizes against —
  /// dividing the control-thread merge by a *worker* wall is how the
  /// >100% conflict_update_pct bug happened.
  std::uint64_t engine_wall_ns = 0;
  std::uint64_t phases = 0;                 // BSP phases profiled
  std::uint64_t changes = 0;                // WM changes covered (>= phases)
  std::uint64_t rounds = 0;                 // BSP rounds across all phases
  /// max worker Match time / mean worker Match time (1.0 = balanced) —
  /// the measured analogue of the simulated busy skew `mpps stats` prints.
  double match_skew = 1.0;
  /// Merge-size accounting from the RoundMerge spans.
  std::uint64_t merge_rounds = 0;
  std::uint64_t merged_items = 0;
  std::uint64_t max_merge_items = 0;

  std::vector<HotBucket> hot_buckets;

  [[nodiscard]] double rounds_per_phase() const {
    return phases == 0 ? 0.0
                       : static_cast<double>(rounds) /
                             static_cast<double>(phases);
  }
  /// Rounds per WM change — under batching this is the amortized figure
  /// (a fused phase's rounds are shared by all its changes).
  [[nodiscard]] double rounds_per_change() const {
    return changes == 0 ? 0.0
                        : static_cast<double>(rounds) /
                              static_cast<double>(changes);
  }
  /// Control-thread conflict-update share of the engine wall, in
  /// [0, 100] by construction (the merge is contained in the control
  /// phase spans).  0 when no control phase spans were recorded.
  [[nodiscard]] double conflict_update_pct() const;
  /// The worst worker's attribution — the acceptance number (>= 95
  /// means the profiler explains where the wall time went).
  [[nodiscard]] double min_attributed_pct() const;
};

/// Owns the lanes of one profiled engine run.  An engine attaches once
/// (fixing the worker count, bucket count and clock epoch), hands each
/// worker thread its lane pointer at setup, and the caller pulls
/// `report()` / `export_chrome_trace()` after (or between) runs.
class Profiler {
 public:
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Creates `workers` worker lanes plus one control lane.  Throws
  /// mpps::RuntimeError if already attached — one profiler instance
  /// profiles one engine.
  void attach(std::uint32_t workers, std::uint32_t num_buckets);
  [[nodiscard]] bool attached() const { return !lanes_.empty(); }
  [[nodiscard]] std::uint32_t workers() const {
    return lanes_.empty() ? 0 : static_cast<std::uint32_t>(lanes_.size() - 1);
  }

  /// Worker lane `i` (0-based).  Pointers stay valid for the profiler's
  /// lifetime; resolve once at setup, never on the hot path.
  [[nodiscard]] ProfLane* lane(std::uint32_t worker);
  /// The control thread's lane (deterministic merge / conflict-set time).
  [[nodiscard]] ProfLane* control_lane();

  /// Called by the engine's control thread after each profiled phase.
  /// `changes_in_phase` is the number of WM changes the phase fused
  /// (1 without batching).
  void add_phase(std::uint64_t rounds_in_phase,
                 std::uint64_t changes_in_phase = 1) {
    ++phases_;
    rounds_ += rounds_in_phase;
    changes_ += changes_in_phase;
  }

  /// Aggregates every lane into the Table 5-1-style breakdown.
  /// Quiescent-only (see the class comment).
  [[nodiscard]] ProfileReport report(std::size_t top_k_buckets = 8) const;

  /// Exports every lane's spans as wall-clock Chrome-trace lanes so the
  /// measured timeline opens in the same viewer as the simulated one:
  /// tid `tid_base` is the control lane, `tid_base + 1 + w` is worker w
  /// (the default keeps clear of the simulator's tid 0..P lanes).
  void export_chrome_trace(Tracer& tracer, std::uint32_t tid_base = 100) const;

 private:
  ProfLane::Clock::time_point epoch_{};
  std::vector<std::unique_ptr<ProfLane>> lanes_;  // workers..., control
  std::uint64_t phases_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t changes_ = 0;
};

/// Renders the breakdown as the boxed tables `mpps run --profile` prints.
void print_profile_report(std::ostream& os, const ProfileReport& report);

}  // namespace mpps::obs
