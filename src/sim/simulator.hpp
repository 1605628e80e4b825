// Discrete-event simulator of the paper's mappings: a control processor
// plus match processors jointly owning the distributed hash table.
//
// The default configuration is the Section 3.2 variation used for the
// paper's simulations:
//   1. The control processor broadcasts the cycle's WM changes to ALL
//      match processors.
//   2. Every match processor pays receive overhead + constant-test time,
//      then processes the root activations (tokens generated directly from
//      the WM changes) whose buckets it owns, as one coarse-grained unit —
//      no messages are exchanged for these.
//   3. Tokens generated at two-input nodes are left activations; each is
//      sent (send overhead on the producer, wire latency, receive overhead
//      on the consumer) to the processor owning its bucket — unless that
//      bucket is local, in which case it is enqueued for free.
//   4. Completed instantiations are sent to the control processor.
//   5. The cycle ends when all activations and messages have drained
//      (termination detection is not charged by default; see
//      TerminationModel).
//
// Three variations of the base mapping (Sections 3.1/3.2) are selectable:
//   * MappingMode::ProcessorPairs — each hash partition is owned by a
//     processor PAIR: the storing side adds the token while the opposite
//     side searches its bucket and generates successors, in parallel
//     (the paper's micro-tasks).  Message traffic is restricted to the
//     left processor of each pair, which forwards tokens to its partner.
//   * constant_test_processors > 0 — instead of broadcasting WM changes to
//     everyone, a small set of dedicated processors evaluates the
//     partitioned constant tests and ships each root token to its bucket
//     owner as a message (the bottleneck the paper warns about under high
//     communication overheads).
//   * conflict_set_processors > 0 — instantiations go to dedicated
//     conflict-set processors that pre-select their best instantiation and
//     forward only that to the control processor.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/simtime.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/tracer.hpp"
#include "src/sim/assignment.hpp"
#include "src/sim/costs.hpp"
#include "src/sim/network.hpp"
#include "src/trace/record.hpp"

namespace mpps::sim {

enum class MappingMode : std::uint8_t {
  /// Both hash tables of a partition on one processor (the simulated
  /// variation of Section 3.2; the paper's default for 32-node Nectar).
  Merged,
  /// A processor pair per partition (Section 3.1 base mapping): with P
  /// match processors there are P/2 partitions; partition i is served by
  /// processors 2i (left) and 2i+1 (right).
  ProcessorPairs,
};

/// What the simulator charges for detecting the end of the match phase.
/// The paper does not simulate termination detection (Section 4) and
/// names it future work; these models bound the design space.
enum class TerminationModel : std::uint8_t {
  /// Free and instantaneous (the paper's assumption).
  None,
  /// Message-acknowledgement counting (Dijkstra-Scholten style): every
  /// message eventually carries an ack back toward the control processor;
  /// modelled as one extra message cost per message sent, charged to the
  /// cycle tail, plus a final control round.
  AckCounting,
  /// A barrier poll: the control processor polls every match processor
  /// (one request + one reply per processor) after the last activation.
  BarrierPoll,
};

struct SimConfig {
  std::uint32_t match_processors = 8;
  MappingMode mapping = MappingMode::Merged;
  /// 0 ⇒ broadcast to all match processors (step 2 above).  Otherwise the
  /// number of dedicated constant-test processors.
  std::uint32_t constant_test_processors = 0;
  /// 0 ⇒ instantiations go straight to the control processor.
  std::uint32_t conflict_set_processors = 0;
  /// Per-instantiation selection cost on a conflict-set processor.
  SimTime conflict_select_cost{};
  TerminationModel termination = TerminationModel::None;
  CostModel costs;
  /// Interconnection network charged for every remote message (default:
  /// the paper's flat wire — see src/sim/network.hpp for the semantics
  /// and the node numbering).
  NetworkConfig network;
  /// Charge send overhead + latency + receive overhead for instantiation
  /// messages.
  bool charge_instantiation_messages = true;
  /// Observability sinks (not owned; see docs/OBSERVABILITY.md).  Null ⇒
  /// nothing is recorded and the simulated results are bit-for-bit
  /// identical to an uninstrumented run.
  obs::Registry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;

  /// Hash partitions implied by mapping/match_processors.  The bucket
  /// assignment must target [0, partitions()).
  [[nodiscard]] std::uint32_t partitions() const {
    return mapping == MappingMode::ProcessorPairs ? match_processors / 2
                                                  : match_processors;
  }

  /// Throws mpps::UsageError naming the field when `match_processors` is
  /// 0, or odd or below 2 under the processor-pair mapping.
  void validate() const;
};

/// Per-processor, per-cycle observations (Fig 5-5 and idle-time analysis).
struct ProcCycleMetrics {
  SimTime busy{};
  std::uint64_t activations = 0;
  std::uint64_t left_activations = 0;
};

struct CycleMetrics {
  SimTime start{};
  SimTime end{};
  std::uint64_t messages = 0;
  std::vector<ProcCycleMetrics> procs;  // match processors only

  [[nodiscard]] SimTime span() const { return end - start; }
};

struct SimResult {
  SimTime makespan{};
  std::uint64_t messages = 0;          // inter-processor + to-control
  std::uint64_t local_deliveries = 0;  // tokens that stayed on-processor
  /// Discrete events the kernel dispatched (task arrivals + completions,
  /// summed over cycles).  A pure function of (trace, mapping, assignment)
  /// — the cost model never changes it — so it doubles as an oracle field
  /// (compared bit-exactly against refsim) and as the denominator-free
  /// throughput unit reported by bench/simkernel_throughput.
  std::uint64_t events = 0;
  SimTime network_busy{};              // sum of charged message latencies
  SimTime termination_overhead{};      // total charged by TerminationModel
  std::vector<CycleMetrics> cycles;
  std::uint32_t match_processors = 1;
  /// Network observations (hop histogram, per-link traffic, contention);
  /// always == network model's view, so `network_busy == net.total_latency`
  /// is an invariant law.
  NetStats net;

  /// Fraction of aggregate link capacity (P links × makespan) in use.
  [[nodiscard]] double network_utilization() const;
  /// Mean over match processors of busy / makespan.
  [[nodiscard]] double avg_processor_utilization() const;
};

/// Runs the trace through the simulated machine.  Deterministic: identical
/// inputs produce identical results.  Throws what `config.validate()`
/// throws, and mpps::RuntimeError when the assignment's processor range
/// differs from config.partitions().
SimResult simulate(const trace::Trace& trace, const SimConfig& config,
                   const Assignment& assignment);

/// Simulated time on one match processor with zero message-passing
/// overheads — the paper's speedup baseline.  Always recomputes: a caller
/// that replays one trace under many configurations computes it once and
/// divides every makespan by it with `speedup_ratio` (the sweep engine
/// resolves each distinct baseline trace once per `SweepRunner::run`).
SimTime baseline_time(const trace::Trace& trace);

/// The paper's speedup, `baseline / makespan`; 0 when the makespan is 0
/// (a trace with no activations), so no caller divides by zero.
double speedup_ratio(SimTime baseline, SimTime makespan);

/// Deprecated: a stateless forwarder to `baseline_time`.  It caches
/// nothing; it stays only because the benchmark's traced sweep replay
/// (perfbench/src/sweep.cpp) still calls it, and goes when that call
/// does.  New code calls `baseline_time` once per trace.
class BaselineCache {
 public:
  /// `baseline_time(trace)`, recomputed on every call.
  SimTime baseline(const trace::Trace& trace) const;

  /// The one (stateless) instance.
  static BaselineCache& shared();
};

/// Speedup of `config`/`assignment` relative to the serial zero-overhead
/// baseline: `baseline_time` + `simulate`, two simulations per call.
double speedup(const trace::Trace& trace, const SimConfig& config,
               const Assignment& assignment);

}  // namespace mpps::sim
