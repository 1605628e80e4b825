#include "src/sim/assignment.hpp"

#include <algorithm>
#include <numeric>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"

namespace mpps::sim {

namespace {
void require_procs(std::uint32_t num_procs) {
  if (num_procs == 0) {
    throw RuntimeError("bucket assignment requires at least one processor");
  }
}

/// Every map entry must name a processor in [0, num_procs): the simulator
/// indexes its processor table with these values, so an out-of-range entry
/// would read past the end of that table.
void require_in_range(const std::vector<std::uint32_t>& map,
                      std::size_t cycle, std::uint32_t num_procs) {
  for (std::size_t bucket = 0; bucket < map.size(); ++bucket) {
    if (map[bucket] >= num_procs) {
      throw RuntimeError(
          "bucket assignment map for cycle " + std::to_string(cycle) +
          " sends bucket " + std::to_string(bucket) + " to processor " +
          std::to_string(map[bucket]) + ", but only " +
          std::to_string(num_procs) + " processors exist");
    }
  }
}
}  // namespace

Assignment Assignment::round_robin(std::uint32_t num_buckets,
                                   std::uint32_t num_procs) {
  require_procs(num_procs);
  std::vector<std::uint32_t> map(num_buckets);
  for (std::uint32_t b = 0; b < num_buckets; ++b) map[b] = b % num_procs;
  return fixed(std::move(map), num_procs);
}

Assignment Assignment::random(std::uint32_t num_buckets,
                              std::uint32_t num_procs, std::uint64_t seed) {
  require_procs(num_procs);
  Rng rng(seed);
  std::vector<std::uint32_t> map(num_buckets);
  for (std::uint32_t b = 0; b < num_buckets; ++b) {
    map[b] = static_cast<std::uint32_t>(rng.below(num_procs));
  }
  return fixed(std::move(map), num_procs);
}

Assignment Assignment::per_cycle(std::vector<std::vector<std::uint32_t>> maps,
                                 std::uint32_t num_procs) {
  require_procs(num_procs);
  for (std::size_t cycle = 0; cycle < maps.size(); ++cycle) {
    require_in_range(maps[cycle], cycle, num_procs);
  }
  Assignment a;
  a.maps_ = std::move(maps);
  a.num_procs_ = num_procs;
  return a;
}

Assignment Assignment::fixed(std::vector<std::uint32_t> map,
                             std::uint32_t num_procs) {
  require_procs(num_procs);
  require_in_range(map, 0, num_procs);
  Assignment a;
  a.maps_.push_back(std::move(map));
  a.num_procs_ = num_procs;
  return a;
}

std::vector<std::uint64_t> bucket_costs(const trace::Trace& trace,
                                        std::size_t cycle,
                                        const CostModel& costs) {
  std::vector<std::uint64_t> out(trace.num_buckets, 0);
  for (const auto& act : trace.cycles[cycle].activations) {
    std::uint64_t cost = static_cast<std::uint64_t>(
        costs.token_cost(act.side == trace::Side::Left).nanos());
    cost += static_cast<std::uint64_t>(costs.per_successor.nanos()) *
            (act.successors + act.instantiations);
    out[act.bucket] += cost;
  }
  return out;
}

std::vector<std::uint32_t> greedy_map(const std::vector<std::uint64_t>& weight,
                                      std::uint32_t num_procs) {
  require_procs(num_procs);
  std::vector<std::uint32_t> order(weight.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return weight[a] > weight[b];
                   });
  std::vector<std::uint64_t> load(num_procs, 0);
  std::vector<std::uint32_t> map(weight.size(), 0);
  std::uint32_t rr = 0;
  for (std::uint32_t bucket : order) {
    if (weight[bucket] == 0) {
      map[bucket] = rr++ % num_procs;
      continue;
    }
    const auto min_it = std::min_element(load.begin(), load.end());
    const auto proc =
        static_cast<std::uint32_t>(std::distance(load.begin(), min_it));
    map[bucket] = proc;
    load[proc] += weight[bucket];
  }
  return map;
}

Assignment Assignment::greedy(const trace::Trace& trace,
                              std::uint32_t num_procs,
                              const CostModel& costs) {
  std::vector<std::vector<std::uint32_t>> maps;
  maps.reserve(trace.cycles.size());
  for (std::size_t c = 0; c < trace.cycles.size(); ++c) {
    maps.push_back(greedy_map(bucket_costs(trace, c, costs), num_procs));
  }
  return per_cycle(std::move(maps), num_procs);
}

}  // namespace mpps::sim
