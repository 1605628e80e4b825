// Randomized differential self-check of the simulator: N seeded rounds,
// each generating a random workload and machine shape, running the
// optimized engine (sim::simulate) and the naive reference engine
// (sim::ref_simulate) side by side over the Table 5-1 overhead grid and
// every assignment strategy, and checking the metamorphic invariant laws
// on top.  Any disagreement or violated law is a failure; a failing
// scenario is greedily shrunk to a minimal reproduction before it is
// reported (docs/TESTING.md walks through the workflow).
//
// A test-only fault hook (FaultInjection) perturbs the configuration
// (cost model or network charging) handed to the OPTIMIZED engine only,
// so tests can prove the oracle actually catches cost-model bugs and
// that the shrinker reduces them to a handful of activations.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/sim/assignment.hpp"
#include "src/sim/simulator.hpp"
#include "src/trace/record.hpp"

namespace mpps::core {

/// Deliberate cost-model corruption applied to the optimized engine only
/// (the reference engine and the invariant checker keep the true model).
enum class FaultInjection : std::uint8_t {
  None,
  /// The fast engine charges 1 us too little per left token.
  LeftTokenUndercharge,
  /// The fast engine forgets the send overhead on remote messages.
  FreeRemoteSend,
  /// The fast engine's network charges multi-hop routes as a single hop
  /// (sim::NetworkConfig::free_remote_hop_fault) — invisible on the flat
  /// network, caught by the net-hop-latency invariant law (and the
  /// reference engine) on every multi-hop topology.
  FreeRemoteHop,
};

/// Parses "none" / "left-token-undercharge" / "free-remote-send" /
/// "free-remote-hop"; throws mpps::RuntimeError on anything else.
FaultInjection parse_fault(const std::string& name);

/// How the bucket assignment of a scenario is derived.
enum class AssignKind : std::uint8_t {
  RoundRobin,
  Random,    // seeded by Scenario::assign_seed
  PerCycle,  // rotated round-robin, one map per cycle
  Greedy,    // the offline greedy distribution (cost-model dependent)
};

/// A self-contained reproduction unit: everything needed to rerun one
/// differential comparison.  The assignment is always re-derived from the
/// scenario (make_assignment), so shrinking the trace or the machine
/// keeps the triple consistent.
struct Scenario {
  trace::Trace trace;
  sim::SimConfig config;  // metrics/tracer are ignored (forced null)
  AssignKind assign = AssignKind::RoundRobin;
  std::uint64_t assign_seed = 0;

  /// One line: machine shape + assignment + workload size.
  [[nodiscard]] std::string describe() const;
};

/// The bucket assignment implied by the scenario.  Throws what
/// `scenario.config.validate()` throws.
sim::Assignment make_assignment(const Scenario& scenario);

/// Runs one differential + invariant comparison.  Returns an empty string
/// when the engines agree and every law holds, else a one-line diagnosis
/// (first divergence or first violated law).
std::string check_scenario(const Scenario& scenario,
                           FaultInjection fault = FaultInjection::None);

/// Greedily minimizes a failing scenario while it keeps failing: drops
/// cycles, activation subtrees and instantiations, then shrinks the
/// machine and simplifies the configuration.  `steps`, when non-null,
/// receives the number of accepted shrink steps.
Scenario shrink_scenario(Scenario failing,
                         FaultInjection fault = FaultInjection::None,
                         std::uint64_t* steps = nullptr);

struct SelfCheckFailure {
  std::uint64_t round = 0;
  std::string detail;    // first divergence / violated law
  Scenario scenario;     // minimized when shrinking was enabled
  std::uint64_t shrink_steps = 0;

  [[nodiscard]] std::string describe() const;
};

struct SelfCheckOptions {
  std::uint64_t rounds = 200;
  std::uint64_t seed = 1;
  FaultInjection fault = FaultInjection::None;
  bool shrink = true;
  /// Stop after this many failing rounds (each is shrunk, which reruns
  /// the oracle many times — a systematically broken engine would
  /// otherwise turn every round into a minimization).
  std::size_t max_failures = 3;
  obs::Registry* metrics = nullptr;  // not owned; may be null
  std::ostream* log = nullptr;       // progress lines; may be null
};

struct SelfCheckResult {
  std::uint64_t rounds = 0;
  std::uint64_t comparisons = 0;       // differential runs executed
  std::uint64_t invariant_checks = 0;  // individual law evaluations
  std::vector<SelfCheckFailure> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
  /// Multi-line report: totals plus one block per failure.
  [[nodiscard]] std::string summary() const;
};

/// Runs the whole self-check.  Deterministic for fixed options.
SelfCheckResult run_selfcheck(const SelfCheckOptions& options);

}  // namespace mpps::core
