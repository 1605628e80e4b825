#include "src/core/distribution.hpp"

#include <algorithm>
#include <numeric>

namespace mpps::core {

sim::Assignment greedy_assignment(const trace::Trace& trace,
                                  std::uint32_t num_procs,
                                  const sim::CostModel& costs) {
  return sim::Assignment::greedy(trace, num_procs, costs);
}

std::vector<std::vector<std::uint64_t>> resident_tokens_per_cycle(
    const trace::Trace& trace) {
  std::vector<std::vector<std::uint64_t>> out;
  std::vector<std::uint64_t> resident(trace.num_buckets, 0);
  for (const auto& cycle : trace.cycles) {
    for (const auto& act : cycle.activations) {
      if (act.tag == trace::Tag::Plus) {
        ++resident[act.bucket];
      } else if (resident[act.bucket] > 0) {
        --resident[act.bucket];
      }
    }
    out.push_back(resident);
  }
  return out;
}

SimTime migration_overhead(const trace::Trace& trace,
                           const sim::Assignment& assignment,
                           SimTime per_token_move) {
  const auto resident = resident_tokens_per_cycle(trace);
  SimTime total{};
  for (std::size_t c = 0; c + 1 < trace.cycles.size(); ++c) {
    for (std::uint32_t b = 0; b < trace.num_buckets; ++b) {
      if (assignment.proc_of(c, b) == assignment.proc_of(c + 1, b)) continue;
      total += per_token_move * static_cast<std::int64_t>(resident[c][b]);
    }
  }
  return total;
}

sim::Assignment coalesce_small_cycles(const trace::Trace& trace,
                                      const sim::Assignment& base,
                                      std::uint32_t num_procs,
                                      std::size_t small_cycle_threshold) {
  std::vector<std::vector<std::uint32_t>> maps;
  maps.reserve(trace.cycles.size());
  std::uint32_t rotation = 0;
  for (std::size_t c = 0; c < trace.cycles.size(); ++c) {
    std::vector<std::uint32_t> map(trace.num_buckets);
    if (trace.cycles[c].activations.size() < small_cycle_threshold) {
      // Everything on one processor: the whole cycle runs locally.
      const std::uint32_t proc = rotation++ % num_procs;
      std::fill(map.begin(), map.end(), proc);
    } else {
      for (std::uint32_t b = 0; b < trace.num_buckets; ++b) {
        map[b] = base.proc_of(c, b);
      }
    }
    maps.push_back(std::move(map));
  }
  return sim::Assignment::per_cycle(std::move(maps), num_procs);
}

double load_imbalance(const trace::Trace& trace, std::size_t cycle,
                      const sim::Assignment& assignment,
                      const sim::CostModel& costs) {
  const std::vector<std::uint64_t> weight =
      sim::bucket_costs(trace, cycle, costs);
  std::vector<std::uint64_t> load(assignment.num_procs(), 0);
  for (std::uint32_t b = 0; b < trace.num_buckets; ++b) {
    load[assignment.proc_of(cycle, b)] += weight[b];
  }
  const std::uint64_t total = std::accumulate(load.begin(), load.end(), 0ull);
  if (total == 0) return 1.0;
  const std::uint64_t max = *std::max_element(load.begin(), load.end());
  const double mean =
      static_cast<double>(total) / static_cast<double>(load.size());
  return static_cast<double>(max) / mean;
}

}  // namespace mpps::core
