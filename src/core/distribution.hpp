// Bucket-distribution strategies beyond round-robin/random: the paper's
// offline greedy algorithm (Section 5.2.2), which is given the per-bucket
// activity of each cycle — information a real runtime would not have — and
// produces one assignment per cycle, approximating the NP-complete optimal
// multiprocessor-scheduling solution.
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/assignment.hpp"
#include "src/sim/costs.hpp"
#include "src/trace/record.hpp"

namespace mpps::core {

/// Offline greedy (LPT) assignment: per cycle, sorts buckets by descending
/// cost and assigns each to the least-loaded processor.  Zero-cost buckets
/// are dealt round-robin.  Compatibility wrapper over
/// sim::Assignment::greedy, where the algorithm now lives (property-tested
/// in tests/sim_assignment_property_test.cpp).
sim::Assignment greedy_assignment(const trace::Trace& trace,
                                  std::uint32_t num_procs,
                                  const sim::CostModel& costs);

/// The load-variance of an assignment on one cycle (diagnostics): the ratio
/// max-processor-load / mean-processor-load over sim::bucket_costs, >= 1,
/// 1 == perfectly even.
double load_imbalance(const trace::Trace& trace, std::size_t cycle,
                      const sim::Assignment& assignment,
                      const sim::CostModel& costs);

/// Resident-token counts per bucket at each cycle boundary, reconstructed
/// from the trace's +/- tags (an activation with tag + stores a token in
/// its bucket; tag - removes one).  Index: [cycle][bucket] = tokens
/// resident after that cycle completes.
std::vector<std::vector<std::uint64_t>> resident_tokens_per_cycle(
    const trace::Trace& trace);

/// The cost of DYNAMIC load balancing the paper rules out ("moving
/// hash-buckets around to change the token distribution is too costly"):
/// when a per-cycle assignment moves a bucket between processors at a
/// cycle boundary, every token resident in that bucket must be shipped.
/// Returns the total transfer time across all boundaries, charging
/// `per_token_move` per resident token of each moved bucket.
SimTime migration_overhead(const trace::Trace& trace,
                           const sim::Assignment& assignment,
                           SimTime per_token_move);

/// Section 5.2.1's third level of granularity: cycles with fewer than
/// `small_cycle_threshold` activations do not possess much parallelism, so
/// ALL their buckets are assigned to a single processor (rotating per
/// cycle) and no messages are exchanged; larger cycles keep the `base`
/// assignment.  "Though the different granularities are decided a priori,
/// the mapping would seem to converge to the variable granularities
/// approach promoted in [15]."
sim::Assignment coalesce_small_cycles(const trace::Trace& trace,
                                      const sim::Assignment& base,
                                      std::uint32_t num_procs,
                                      std::size_t small_cycle_threshold);

}  // namespace mpps::core
