#include "src/core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "src/common/error.hpp"
#include "src/sim/invariants.hpp"

namespace mpps::core {

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {
  jobs_ = options.jobs != 0
              ? options.jobs
              : std::max(1u, std::thread::hardware_concurrency());
}

std::vector<SweepOutcome> SweepRunner::run(
    const std::vector<SweepScenario>& scenarios) const {
  // One slot per scenario: workers write only their own slot, so the
  // collected results are ordered by scenario no matter which worker ran
  // what.
  struct Slot {
    SweepOutcome outcome;
    obs::Registry registry;
    obs::Tracer tracer;
  };
  std::vector<Slot> slots(scenarios.size());

  // Each distinct baseline trace is simulated once per call, before the
  // fan-out, keyed by address: the caller keeps every trace alive and
  // unchanged for the call.  The workers only read the baselines.
  std::unordered_map<const trace::Trace*, SimTime> resolved;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const SweepScenario& scenario = scenarios[i];
    if (scenario.trace == nullptr) {
      throw RuntimeError("sweep scenario '" + scenario.label +
                         "' has no trace");
    }
    const trace::Trace* base =
        scenario.baseline != nullptr ? scenario.baseline : scenario.trace;
    const auto [it, fresh] = resolved.try_emplace(base);
    if (fresh) it->second = sim::baseline_time(*base);
    slots[i].outcome.baseline = it->second;
  }

  const bool collect_metrics = options_.metrics != nullptr;
  const bool collect_timeline = options_.tracer != nullptr;

  std::atomic<std::size_t> next{0};
  std::mutex failure_mu;
  std::exception_ptr failure;
  std::size_t failure_index = scenarios.size();

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= scenarios.size()) return;
      try {
        const SweepScenario& scenario = scenarios[i];
        Slot& slot = slots[i];
        sim::SimConfig config = scenario.config;
        config.metrics = collect_metrics ? &slot.registry : nullptr;
        config.tracer = collect_timeline ? &slot.tracer : nullptr;
        slot.outcome.label = scenario.label;
        slot.outcome.result =
            sim::simulate(*scenario.trace, config, scenario.assignment);
        if (options_.check_invariants) {
          const sim::InvariantReport laws = sim::check_run_invariants(
              *scenario.trace, scenario.config, slot.outcome.result,
              collect_metrics ? &slot.registry : nullptr);
          if (!laws.ok()) {
            throw RuntimeError("sweep scenario '" + scenario.label +
                               "' violates simulator invariants:\n" +
                               laws.summary());
          }
        }
        slot.outcome.speedup = sim::speedup_ratio(
            slot.outcome.baseline, slot.outcome.result.makespan);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failure_mu);
        if (i < failure_index) {
          failure_index = i;
          failure = std::current_exception();
        }
      }
    }
  };

  const auto want = static_cast<std::size_t>(jobs_);
  const std::size_t n = std::min(want, std::max<std::size_t>(
                                           std::size_t{1}, scenarios.size()));
  if (n <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (std::size_t t = 0; t < n; ++t) pool.emplace_back(worker);
    for (std::thread& thread : pool) thread.join();
  }
  if (failure) std::rethrow_exception(failure);

  std::vector<SweepOutcome> out;
  out.reserve(slots.size());
  for (Slot& slot : slots) {
    if (collect_metrics) options_.metrics->merge_from(slot.registry);
    if (collect_timeline) options_.tracer->merge_from(slot.tracer);
    out.push_back(std::move(slot.outcome));
  }

  // Cross-run laws (event conservation across the cost grid, token
  // conservation across processor counts, overhead monotonicity) over
  // every group of scenarios replaying the same trace with the same
  // assignment — the monotonicity law is only meaningful between runs
  // sharing one assignment (see sim::ObservedRun).  Runs serially after
  // the join, in scenario order, so the law counters merged into
  // `metrics` stay bit-identical for every jobs value.
  if (options_.check_invariants) {
    std::vector<bool> grouped(scenarios.size(), false);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      if (grouped[i]) continue;
      std::vector<sim::ObservedRun> group;
      std::vector<std::size_t> members;
      for (std::size_t j = i; j < scenarios.size(); ++j) {
        if (grouped[j] || scenarios[j].trace != scenarios[i].trace ||
            !(scenarios[j].assignment == scenarios[i].assignment)) {
          continue;
        }
        grouped[j] = true;
        group.push_back({scenarios[j].config, &out[j].result});
        members.push_back(j);
      }
      if (group.size() < 2) continue;
      const sim::InvariantReport laws = sim::check_cross_run_invariants(
          *scenarios[i].trace, group, options_.metrics);
      if (!laws.ok()) {
        std::string labels;
        for (const std::size_t j : members) {
          labels += (labels.empty() ? "" : ", ") + scenarios[j].label;
        }
        throw RuntimeError("sweep scenarios [" + labels +
                           "] violate cross-run simulator invariants:\n" +
                           laws.summary());
      }
    }
  }
  return out;
}

std::vector<SweepOutcome> run_sweep(const std::vector<SweepScenario>& scenarios,
                                    unsigned jobs) {
  SweepOptions options;
  options.jobs = jobs;
  return SweepRunner(options).run(scenarios);
}

}  // namespace mpps::core
