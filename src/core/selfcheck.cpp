#include "src/core/selfcheck.hpp"

#include <algorithm>
#include <ostream>
#include <unordered_set>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/core/distribution.hpp"
#include "src/sim/invariants.hpp"
#include "src/sim/refsim.hpp"
#include "src/trace/synth.hpp"

namespace mpps::core {

namespace {

sim::CostModel apply_fault(sim::CostModel costs, FaultInjection fault) {
  switch (fault) {
    case FaultInjection::None:
      break;
    case FaultInjection::LeftTokenUndercharge:
      costs.left_token =
          std::max(SimTime{}, costs.left_token - SimTime::us(1));
      break;
    case FaultInjection::FreeRemoteSend:
      costs.send_overhead = SimTime{};
      break;
    case FaultInjection::FreeRemoteHop:
      break;  // applied to the network configuration, not the cost model
  }
  return costs;
}

const char* fault_name(FaultInjection fault) {
  switch (fault) {
    case FaultInjection::None: return "none";
    case FaultInjection::LeftTokenUndercharge:
      return "left-token-undercharge";
    case FaultInjection::FreeRemoteSend: return "free-remote-send";
    case FaultInjection::FreeRemoteHop: return "free-remote-hop";
  }
  return "?";
}

const char* assign_name(AssignKind kind) {
  switch (kind) {
    case AssignKind::RoundRobin: return "round-robin";
    case AssignKind::Random: return "random";
    case AssignKind::PerCycle: return "per-cycle";
    case AssignKind::Greedy: return "greedy";
  }
  return "?";
}

/// One differential run with full results (check_scenario wraps this;
/// run_selfcheck keeps the results for the cross-run laws).
struct OracleRun {
  sim::SimResult fast;
  sim::SimResult ref;
  std::string problem;          // empty == agreement + all laws hold
  std::uint64_t law_checks = 0;
};

OracleRun run_oracle(const Scenario& scenario, FaultInjection fault) {
  OracleRun out;
  const sim::Assignment assignment = make_assignment(scenario);
  sim::SimConfig clean = scenario.config;
  clean.metrics = nullptr;
  clean.tracer = nullptr;
  sim::SimConfig faulted = clean;
  faulted.costs = apply_fault(clean.costs, fault);
  if (fault == FaultInjection::FreeRemoteHop) {
    faulted.network.free_remote_hop_fault = true;
  }
  out.fast = sim::simulate(scenario.trace, faulted, assignment);
  out.ref = sim::ref_simulate(scenario.trace, clean, assignment);
  out.problem = sim::describe_divergence(out.fast, out.ref);
  // The laws judge the optimized engine against the TRUE cost model — the
  // second oracle layer, independent of the reference engine.
  const sim::InvariantReport laws =
      sim::check_run_invariants(scenario.trace, clean, out.fast);
  out.law_checks = laws.checked;
  if (out.problem.empty() && !laws.ok()) {
    out.problem = laws.violations.front().invariant + ": " +
                  laws.violations.front().detail;
  }
  return out;
}

/// Removes the activation at `index` and its whole descendant subtree,
/// keeping the cycle structurally valid (the parent's successor count is
/// decremented).
void drop_subtree(trace::TraceCycle& cycle, std::size_t index) {
  const trace::TraceActivation& target = cycle.activations[index];
  if (target.parent.valid()) {
    for (std::size_t j = 0; j < index; ++j) {
      if (cycle.activations[j].id == target.parent) {
        --cycle.activations[j].successors;
        break;
      }
    }
  }
  std::unordered_set<std::uint64_t> dropped;
  dropped.insert(target.id.value());
  std::vector<trace::TraceActivation> kept;
  kept.reserve(cycle.activations.size() - 1);
  for (std::size_t j = 0; j < cycle.activations.size(); ++j) {
    const trace::TraceActivation& act = cycle.activations[j];
    if (j == index ||
        (act.parent.valid() && dropped.count(act.parent.value()) != 0)) {
      dropped.insert(act.id.value());
      continue;
    }
    kept.push_back(act);
  }
  cycle.activations = std::move(kept);
}

}  // namespace

FaultInjection parse_fault(const std::string& name) {
  if (name == "none") return FaultInjection::None;
  if (name == "left-token-undercharge") {
    return FaultInjection::LeftTokenUndercharge;
  }
  if (name == "free-remote-send") return FaultInjection::FreeRemoteSend;
  if (name == "free-remote-hop") return FaultInjection::FreeRemoteHop;
  throw RuntimeError("unknown fault '" + name +
                     "' (expected none, left-token-undercharge, "
                     "free-remote-send or free-remote-hop)");
}

std::string Scenario::describe() const {
  std::string out = std::to_string(trace.cycles.size()) + " cycle(s), " +
                    std::to_string(trace.total_activations()) +
                    " activation(s), " +
                    std::to_string(config.match_processors) + " proc(s), ";
  out += config.mapping == sim::MappingMode::ProcessorPairs ? "pairs"
                                                            : "merged";
  if (config.constant_test_processors > 0) {
    out += ", ct=" + std::to_string(config.constant_test_processors);
  }
  if (config.conflict_set_processors > 0) {
    out += ", cs=" + std::to_string(config.conflict_set_processors);
  }
  switch (config.termination) {
    case sim::TerminationModel::None: break;
    case sim::TerminationModel::AckCounting: out += ", ack-counting"; break;
    case sim::TerminationModel::BarrierPoll: out += ", barrier-poll"; break;
  }
  if (config.network.kind != sim::NetKind::Constant) {
    out += ", net=" + config.network.describe();
  }
  out += std::string(", ") + assign_name(assign) + " assignment";
  out += ", send=" + std::to_string(config.costs.send_overhead.nanos()) +
         "ns recv=" + std::to_string(config.costs.recv_overhead.nanos()) +
         "ns";
  return out;
}

sim::Assignment make_assignment(const Scenario& scenario) {
  scenario.config.validate();
  const std::uint32_t parts = scenario.config.partitions();
  const std::uint32_t buckets = scenario.trace.num_buckets;
  switch (scenario.assign) {
    case AssignKind::RoundRobin:
      return sim::Assignment::round_robin(buckets, parts);
    case AssignKind::Random:
      return sim::Assignment::random(buckets, parts, scenario.assign_seed);
    case AssignKind::PerCycle: {
      const std::size_t cycles =
          std::max<std::size_t>(1, scenario.trace.cycles.size());
      std::vector<std::vector<std::uint32_t>> maps(cycles);
      for (std::size_t c = 0; c < cycles; ++c) {
        maps[c].resize(buckets);
        for (std::uint32_t b = 0; b < buckets; ++b) {
          maps[c][b] = (b + static_cast<std::uint32_t>(c)) % parts;
        }
      }
      return sim::Assignment::per_cycle(std::move(maps), parts);
    }
    case AssignKind::Greedy:
      return greedy_assignment(scenario.trace, parts, scenario.config.costs);
  }
  return sim::Assignment::round_robin(buckets, parts);
}

std::string check_scenario(const Scenario& scenario, FaultInjection fault) {
  return run_oracle(scenario, fault).problem;
}

Scenario shrink_scenario(Scenario failing, FaultInjection fault,
                         std::uint64_t* steps) {
  std::uint64_t accepted = 0;
  const auto fails = [&](const Scenario& candidate) {
    try {
      return !check_scenario(candidate, fault).empty();
    } catch (const std::exception&) {
      return false;  // a malformed candidate is not a smaller repro
    }
  };

  bool progress = true;
  while (progress) {
    progress = false;

    // Whole cycles first — the cheapest large reduction.
    for (std::size_t c = 0; c < failing.trace.cycles.size() &&
                            failing.trace.cycles.size() > 1;) {
      Scenario candidate = failing;
      candidate.trace.cycles.erase(candidate.trace.cycles.begin() +
                                   static_cast<std::ptrdiff_t>(c));
      if (fails(candidate)) {
        failing = std::move(candidate);
        ++accepted;
        progress = true;
      } else {
        ++c;
      }
    }

    // Activation subtrees, last to first: a drop only removes indices at
    // or after the target (descendants follow their parent), so earlier
    // indices stay valid and one pass can accept many drops.
    for (std::size_t c = 0; c < failing.trace.cycles.size(); ++c) {
      for (std::size_t i = failing.trace.cycles[c].activations.size();
           i-- > 0;) {
        Scenario candidate = failing;
        drop_subtree(candidate.trace.cycles[c], i);
        if (fails(candidate)) {
          failing = std::move(candidate);
          ++accepted;
          progress = true;
        }
      }
    }

    // Instantiation counts.
    for (std::size_t c = 0; c < failing.trace.cycles.size(); ++c) {
      for (std::size_t i = 0; i < failing.trace.cycles[c].activations.size();
           ++i) {
        if (failing.trace.cycles[c].activations[i].instantiations == 0) {
          continue;
        }
        Scenario candidate = failing;
        candidate.trace.cycles[c].activations[i].instantiations = 0;
        if (fails(candidate)) {
          failing = std::move(candidate);
          ++accepted;
          progress = true;
        }
      }
    }

    // Machine size: the smallest processor count that still fails.
    for (const std::uint32_t procs : {1u, 2u, 3u, 4u, 8u}) {
      if (procs >= failing.config.match_processors) break;
      Scenario candidate = failing;
      candidate.config.match_processors = procs;
      if (fails(candidate)) {
        failing = std::move(candidate);
        ++accepted;
        progress = true;
        break;
      }
    }

    // Configuration simplifications, each kept only if still failing.
    const auto try_simplify = [&](const auto& mutate) {
      Scenario candidate = failing;
      mutate(candidate);
      if (fails(candidate)) {
        failing = std::move(candidate);
        ++accepted;
        progress = true;
      }
    };
    if (failing.config.mapping == sim::MappingMode::ProcessorPairs) {
      try_simplify([](Scenario& s) {
        s.config.mapping = sim::MappingMode::Merged;
      });
    }
    if (failing.config.termination != sim::TerminationModel::None) {
      try_simplify([](Scenario& s) {
        s.config.termination = sim::TerminationModel::None;
      });
    }
    if (failing.config.conflict_set_processors > 0) {
      try_simplify([](Scenario& s) {
        s.config.conflict_set_processors = 0;
        s.config.conflict_select_cost = SimTime{};
      });
    }
    if (failing.config.constant_test_processors > 0) {
      try_simplify([](Scenario& s) {
        s.config.constant_test_processors = 0;
      });
    }
    if (failing.config.network.kind != sim::NetKind::Constant) {
      try_simplify([](Scenario& s) {
        s.config.network = sim::NetworkConfig{};
      });
    }
    if (failing.assign != AssignKind::RoundRobin) {
      try_simplify([](Scenario& s) { s.assign = AssignKind::RoundRobin; });
    }
  }

  if (steps != nullptr) *steps = accepted;
  return failing;
}

std::string SelfCheckFailure::describe() const {
  std::string out = "round " + std::to_string(round) + ": " + detail;
  out += "\n  minimal repro: " + scenario.describe();
  if (shrink_steps > 0) {
    out += " (shrunk in " + std::to_string(shrink_steps) + " steps)";
  }
  return out;
}

std::string SelfCheckResult::summary() const {
  std::string out = "selfcheck: " + std::to_string(rounds) + " round(s), " +
                    std::to_string(comparisons) +
                    " differential comparison(s), " +
                    std::to_string(invariant_checks) +
                    " invariant evaluation(s), " +
                    std::to_string(failures.size()) + " failure(s)";
  for (const SelfCheckFailure& failure : failures) {
    out += '\n';
    out += failure.describe();
  }
  return out;
}

SelfCheckResult run_selfcheck(const SelfCheckOptions& options) {
  SelfCheckResult result;
  static constexpr std::uint32_t kProcChoices[] = {1, 2, 3, 4, 8, 16};
  static constexpr AssignKind kAssignKinds[] = {
      AssignKind::RoundRobin, AssignKind::Random, AssignKind::PerCycle,
      AssignKind::Greedy};

  for (std::uint64_t round = 0; round < options.rounds; ++round) {
    if (result.failures.size() >= options.max_failures) break;
    ++result.rounds;
    Rng rng(options.seed + 0x9E3779B97F4A7C15ull * (round + 1));

    trace::RandomTraceSpec spec;
    spec.cycles = 2 + static_cast<std::uint32_t>(rng.below(4));
    spec.num_buckets = 16u << rng.below(3);
    spec.nodes = 8 + static_cast<std::uint32_t>(rng.below(17));
    spec.roots_per_cycle = 4 + static_cast<std::uint32_t>(rng.below(37));
    spec.right_fraction = 0.3 + 0.6 * rng.uniform();
    spec.fanout = 0.5 + 2.0 * rng.uniform();
    spec.chain_prob = 0.5 * rng.uniform();
    spec.instantiation_prob = 0.1 * rng.uniform();
    spec.key_classes = 8 + static_cast<std::uint32_t>(rng.below(57));
    const trace::Trace trace = trace::make_random_trace(spec, rng());

    sim::SimConfig shape;
    shape.match_processors = kProcChoices[rng.below(6)];
    if (shape.match_processors % 2 == 0 && rng.below(4) == 0) {
      shape.mapping = sim::MappingMode::ProcessorPairs;
    }
    if (rng.below(5) == 0) {
      shape.constant_test_processors =
          1 + static_cast<std::uint32_t>(rng.below(2));
    }
    if (rng.below(5) == 0) {
      shape.conflict_set_processors =
          1 + static_cast<std::uint32_t>(rng.below(2));
      shape.conflict_select_cost =
          SimTime::us(static_cast<std::int64_t>(rng.below(5)));
    }
    shape.termination =
        static_cast<sim::TerminationModel>(rng.below(3));
    shape.charge_instantiation_messages = rng.below(4) != 0;
    // Three rounds in eight keep the flat wire; the rest run a routed
    // topology so the grid exercises multi-hop charging (and so the
    // free-remote-hop fault gate has hops to trip on).  Explicit
    // geometries are sized for the largest possible machine here
    // (1 control + 16 match + 2 ct + 2 cs = 21 nodes).
    switch (rng.below(8)) {
      case 0:
        shape.network.kind = sim::NetKind::Mesh;  // auto near-square dims
        break;
      case 1:
        shape.network.kind = sim::NetKind::Mesh;
        shape.network.dims = {4, 8};
        break;
      case 2:
        shape.network.kind = sim::NetKind::Torus;
        break;
      case 3:
        shape.network.kind = sim::NetKind::Torus;
        shape.network.dims = {3, 3, 4};
        break;
      case 4:
        shape.network.kind = sim::NetKind::FatTree;
        shape.network.arity = 2 + static_cast<std::uint32_t>(rng.below(2));
        break;
      default:
        break;  // flat constant-latency wire
    }
    if (shape.network.kind != sim::NetKind::Constant && rng.below(3) == 0) {
      shape.network.hop_latency = SimTime::ns(
          250 * (1 + static_cast<std::int64_t>(rng.below(4))));
    }
    const bool hardware_broadcast = rng.below(2) == 0;
    const std::uint64_t assign_seed = rng();

    // The Table 5-1 overhead grid x every assignment strategy.
    bool round_clean = true;
    std::vector<sim::SimResult> grid_results;  // round-robin runs, runs 1..4
    std::vector<sim::SimConfig> grid_configs;
    for (int run = 1; run <= 4 && round_clean; ++run) {
      for (const AssignKind kind : kAssignKinds) {
        Scenario scenario;
        scenario.trace = trace;
        scenario.config = shape;
        scenario.config.costs = sim::CostModel::paper_run(run);
        scenario.config.costs.hardware_broadcast = hardware_broadcast;
        scenario.assign = kind;
        scenario.assign_seed = assign_seed;

        OracleRun oracle = run_oracle(scenario, options.fault);
        ++result.comparisons;
        result.invariant_checks += oracle.law_checks;
        if (oracle.problem.empty()) {
          if (kind == AssignKind::RoundRobin) {
            grid_results.push_back(std::move(oracle.fast));
            grid_configs.push_back(scenario.config);
            if (options.fault == FaultInjection::None &&
                scenario.config.network.kind != sim::NetKind::Constant) {
              // Flat-wire twin of the same run: identical routing,
              // constant network — its presence in the grid feeds the
              // cross-run hop-monotonicity law.
              sim::SimConfig flat = scenario.config;
              flat.network = sim::NetworkConfig{};
              grid_results.push_back(
                  sim::simulate(trace, flat, make_assignment(scenario)));
              grid_configs.push_back(flat);
            }
          }
          continue;
        }

        SelfCheckFailure failure;
        failure.round = round;
        failure.detail = oracle.problem;
        if (options.shrink) {
          failure.scenario = shrink_scenario(
              std::move(scenario), options.fault, &failure.shrink_steps);
        } else {
          failure.scenario = std::move(scenario);
        }
        if (options.log != nullptr) {
          *options.log << failure.describe() << "\n";
        }
        result.failures.push_back(std::move(failure));
        round_clean = false;
        break;  // one failure per round; move on
      }
    }

    // Cross-run laws over the clean round-robin grid (same trace, same
    // assignment, only the message costs vary).
    if (round_clean && grid_results.size() > 1) {
      std::vector<sim::ObservedRun> observed;
      observed.reserve(grid_results.size());
      for (std::size_t i = 0; i < grid_results.size(); ++i) {
        observed.push_back({grid_configs[i], &grid_results[i]});
      }
      const sim::InvariantReport cross =
          sim::check_cross_run_invariants(trace, observed, options.metrics);
      result.invariant_checks += cross.checked;
      if (!cross.ok()) {
        SelfCheckFailure failure;
        failure.round = round;
        failure.detail = "cross-run: " + cross.violations.front().invariant +
                         ": " + cross.violations.front().detail;
        failure.scenario.trace = trace;
        failure.scenario.config = grid_configs.front();
        if (options.log != nullptr) {
          *options.log << failure.describe() << "\n";
        }
        result.failures.push_back(std::move(failure));
      }
    }

    if (options.log != nullptr && (round + 1) % 50 == 0) {
      *options.log << "selfcheck: " << (round + 1) << "/" << options.rounds
                   << " rounds, " << result.comparisons << " comparisons, "
                   << result.failures.size() << " failure(s)\n";
    }
  }

  if (options.metrics != nullptr) {
    options.metrics->counter("selfcheck.rounds").add(result.rounds);
    options.metrics->counter("selfcheck.comparisons")
        .add(result.comparisons);
    options.metrics
        ->counter("selfcheck.failures",
                  {{"fault", fault_name(options.fault)}})
        .add(result.failures.size());
  }
  return result;
}

}  // namespace mpps::core
