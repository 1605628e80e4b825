// Bucket-to-processor assignment: the static partitioning of the global
// hash tables across match processors.  Left and right buckets with the
// same index are co-located (the simulated variation of Section 3.2).
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/costs.hpp"
#include "src/trace/record.hpp"

namespace mpps::sim {

class Assignment {
 public:
  /// Buckets dealt to processors in round-robin order (the paper's default).
  static Assignment round_robin(std::uint32_t num_buckets,
                                std::uint32_t num_procs);

  /// Uniform random assignment (the alternative the paper tried; it "failed
  /// to provide a significant improvement").
  static Assignment random(std::uint32_t num_buckets, std::uint32_t num_procs,
                           std::uint64_t seed);

  /// One map per cycle (used by the offline greedy redistribution, which
  /// produced "a series of distributions, one per cycle").  Each map has
  /// one processor index per bucket.  Throws mpps::RuntimeError when any
  /// entry is >= num_procs (naming the cycle, bucket and processor).
  static Assignment per_cycle(std::vector<std::vector<std::uint32_t>> maps,
                              std::uint32_t num_procs);

  /// A single static map.  Throws mpps::RuntimeError when any entry is
  /// >= num_procs.
  static Assignment fixed(std::vector<std::uint32_t> map,
                          std::uint32_t num_procs);

  /// Offline greedy (LPT) assignment, the paper's Section 5.2.2 algorithm:
  /// per cycle, deals the cycle's `bucket_costs` through `greedy_map`.
  /// Produces one map per trace cycle.  `core::greedy_assignment` is a
  /// compatibility wrapper over this.
  static Assignment greedy(const trace::Trace& trace, std::uint32_t num_procs,
                           const CostModel& costs);

  [[nodiscard]] std::uint32_t proc_of(std::size_t cycle,
                                      std::uint32_t bucket) const {
    return map_for(cycle)[bucket];
  }

  /// The dense bucket -> processor map in effect for `cycle` (the
  /// simulator kernel caches the returned array's data pointer for the
  /// whole cycle instead of paying two indirections per lookup).
  [[nodiscard]] const std::vector<std::uint32_t>& map_for(
      std::size_t cycle) const {
    return maps_.size() == 1 ? maps_[0] : maps_[cycle % maps_.size()];
  }

  [[nodiscard]] std::uint32_t num_procs() const { return num_procs_; }

  /// Structural equality: same partition count and same per-cycle maps.
  /// The sweep engine uses it to group runs for the cross-run laws,
  /// whose monotonicity comparisons are only meaningful between runs
  /// sharing one assignment.
  friend bool operator==(const Assignment&, const Assignment&) = default;
  [[nodiscard]] std::uint32_t num_buckets() const {
    return static_cast<std::uint32_t>(maps_.empty() ? 0 : maps_[0].size());
  }

 private:
  std::vector<std::vector<std::uint32_t>> maps_;
  std::uint32_t num_procs_ = 1;
};

/// Per-bucket processing cost (simulated nanoseconds) of one trace cycle
/// under `costs`: token add/delete plus successor and instantiation
/// generation, attributed to the bucket where the activation runs.
std::vector<std::uint64_t> bucket_costs(const trace::Trace& trace,
                                        std::size_t cycle,
                                        const CostModel& costs);

/// The LPT deal behind every greedy policy: buckets sorted by descending
/// `weight` (ties by index), each given to the least-loaded processor
/// (ties to the lowest index); zero-weight buckets are dealt round-robin.
/// Returns one processor index per bucket.  Throws mpps::RuntimeError
/// when `num_procs` is 0.
std::vector<std::uint32_t> greedy_map(const std::vector<std::uint64_t>& weight,
                                      std::uint32_t num_procs);

}  // namespace mpps::sim
