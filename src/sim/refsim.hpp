// The reference simulator: a second, deliberately naive implementation of
// the Section 4 cost model and the Section 3.1/3.2 mapping semantics,
// used as a differential oracle for the optimized event-driven engine in
// simulator.cpp (the same role rete/naive.hpp plays for the match layer).
//
// Design rules (see docs/TESTING.md):
//   * Obvious over fast.  Events live in an ordered std::map and are
//     popped by lower_bound; processor queues are std::list; every cycle
//     rebuilds its activation index from scratch with plain maps and
//     vector-of-vector children lists.  No arenas, no buffer reuse, no
//     caching — nothing shared with CycleSim's optimizations.
//   * Shared spec, separate code.  The only shared pieces are the cost
//     model (sim/costs.hpp), the public config/result structs, and the
//     trace schema.  The scheduling discipline itself — FIFO per
//     processor, ties between simultaneous events broken by creation
//     order — is re-implemented from the documented semantics.
//   * Bit-for-bit comparable.  ref_simulate must agree EXACTLY with
//     sim::simulate on makespan, message counts, per-processor busy
//     times and every other SimResult field; any difference is a bug in
//     one of the two engines.  Asserted across the full Table 5-1 grid
//     in tests/sim_refsim_test.cpp and fuzzed by `mpps selfcheck`.
#pragma once

#include "src/sim/simulator.hpp"
#include "src/trace/record.hpp"

namespace mpps::sim {

/// Replays `trace` on the simulated machine exactly like sim::simulate,
/// via the naive reference implementation.  Observability sinks in
/// `config` are ignored (the reference engine records nothing).  Rejects
/// the same inputs as sim::simulate: `config.validate()`, then the
/// assignment-vs-partitions check.
SimResult ref_simulate(const trace::Trace& trace, const SimConfig& config,
                       const Assignment& assignment);

/// Compares two results field by field (makespan, messages, local
/// deliveries, kernel event counts, network busy, termination overhead,
/// per-cycle spans and per-processor busy/activation counts).  Returns an
/// empty string when
/// they agree exactly, otherwise a description of the FIRST divergence —
/// the differential oracle's failure message.
std::string describe_divergence(const SimResult& fast, const SimResult& ref);

}  // namespace mpps::sim
