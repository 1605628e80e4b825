#include "src/sim/sharedbus.hpp"

#include <algorithm>
#include <queue>
#include <unordered_map>

#include "src/sim/simulator.hpp"

namespace mpps::sim {
namespace {

using trace::Side;
using trace::TraceActivation;

struct ReadyTask {
  SimTime ready{};
  std::uint64_t seq = 0;
  std::size_t act_index = 0;

  friend bool operator<(const ReadyTask& a, const ReadyTask& b) {
    if (a.ready != b.ready) return a.ready > b.ready;  // min-heap
    return a.seq > b.seq;
  }
};

}  // namespace

SharedBusResult simulate_shared_bus(const trace::Trace& trace,
                                    const SharedBusConfig& config) {
  SharedBusResult result;
  const CostModel& costs = config.costs;
  SimTime clock{};

  for (const auto& cycle : trace.cycles) {
    // Index children per activation, preserving generation order.
    std::unordered_map<std::uint64_t, std::size_t> by_id;
    std::vector<std::vector<std::size_t>> children(cycle.activations.size());
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < cycle.activations.size(); ++i) {
      const auto& act = cycle.activations[i];
      by_id.emplace(act.id.value(), i);
      if (act.parent.valid()) {
        children[by_id.at(act.parent.value())].push_back(i);
      } else {
        roots.push_back(i);
      }
    }

    std::priority_queue<ReadyTask> ready;
    std::uint64_t seq = 0;
    // The constant tests run once over the shared WM changes at cycle
    // start (they parallelize trivially, matching the MPC model's 30 us
    // wall-clock charge).
    const SimTime t0 = clock + costs.constant_tests;
    for (std::size_t root : roots) {
      ready.push(ReadyTask{t0, seq++, root});
    }

    std::vector<SimTime> proc_free(config.processors, clock);
    std::unordered_map<std::uint32_t, SimTime> bucket_free;
    SimTime queue_free = clock;

    while (!ready.empty()) {
      const ReadyTask task = ready.top();
      ready.pop();
      const TraceActivation& act = cycle.activations[task.act_index];
      ++result.tasks;

      // Earliest-free processor takes the task.
      auto proc_it = std::min_element(proc_free.begin(), proc_free.end());
      SimTime start = std::max(task.ready, *proc_it);
      // Exclusive queue pop.
      start = std::max(start, queue_free);
      queue_free = start + config.queue_access;
      result.queue_busy += config.queue_access;
      start = queue_free;
      // Exclusive hash-bucket access.
      if (auto it = bucket_free.find(act.bucket); it != bucket_free.end()) {
        if (it->second > start) {
          result.bucket_wait += it->second - start;
          start = it->second;
        }
      }

      SimTime cursor = start + costs.token_cost(act.side == Side::Left);
      for (std::size_t child : children[task.act_index]) {
        cursor += costs.per_successor;
        // Pushing the new token onto the shared queue.
        cursor += config.queue_access;
        ready.push(ReadyTask{cursor, seq++, child});
      }
      for (std::uint32_t i = 0; i < act.instantiations; ++i) {
        // Conflict-set insertion behind its own lock.
        cursor += costs.per_successor + config.queue_access;
      }
      bucket_free[act.bucket] = cursor;
      *proc_it = cursor;
    }

    SimTime end = std::max(clock + costs.constant_tests, queue_free);
    for (SimTime t : proc_free) end = std::max(end, t);
    end += costs.resolve_cost;
    result.cycle_spans.push_back(end - clock);
    clock = end;
  }
  result.makespan = clock;
  return result;
}

double shared_bus_speedup(const trace::Trace& trace,
                          const SharedBusConfig& config) {
  return speedup_ratio(baseline_time(trace),
                       simulate_shared_bus(trace, config).makespan);
}

}  // namespace mpps::sim
