// Conflict-set cost by replay.  The traced run records the stream of
// add / remove / select operations an engine applied to its conflict set;
// replaying that stream into a fresh `rete::ConflictSet` times each kind
// of operation in isolation from the join and memory work around it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/rete/conflict.hpp"

namespace perfbench {

struct CsOp {
  enum class Kind : std::uint8_t { Add, Remove, Select };
  Kind kind = Kind::Add;
  /// Add/Remove: the instantiation.  Select: the one the engine fired
  /// (replay checks it selects the same one), or empty when it fired none.
  mpps::rete::Instantiation inst;
  bool fired = false;  // Select only: an instantiation was selected
};

struct ReplayResult {
  std::uint64_t adds = 0;
  std::uint64_t removes = 0;
  std::uint64_t selects = 0;  // select + mark_fired of the winner
  std::uint64_t add_ns = 0;
  std::uint64_t remove_ns = 0;
  std::uint64_t select_ns = 0;
  std::uint64_t select_mismatches = 0;  // replayed pick != recorded pick
  std::uint64_t failed_removes = 0;     // remove of an absent entry
  std::vector<mpps::rete::Instantiation> final_set;

  [[nodiscard]] std::uint64_t total_ns() const {
    return add_ns + remove_ns + select_ns;
  }
};

/// Replays `ops` into a fresh conflict set.  Consecutive operations of one
/// kind are timed as one batch, so clock reads stay off the per-op path.
[[nodiscard]] ReplayResult replay_conflict_set(
    const std::vector<CsOp>& ops,
    const std::function<std::size_t(mpps::ProductionId)>& specificity_of,
    mpps::rete::Strategy strategy);

/// Per-operation medians over `reps` replays of one stream, plus the
/// first replay's result for the caller's checks.
struct ReplayCosts {
  double add_ns = 0.0;  // per add
  double remove_ns = 0.0;
  double select_ns = 0.0;
  double total_ns = 0.0;  // the whole stream
  ReplayResult first;
};
[[nodiscard]] ReplayCosts replay_costs(
    const std::vector<CsOp>& ops,
    const std::function<std::size_t(mpps::ProductionId)>& specificity_of,
    mpps::rete::Strategy strategy, int reps);

/// True when both hold the same instantiations, compared as sets.
[[nodiscard]] bool same_instantiations(
    std::vector<mpps::rete::Instantiation> a,
    std::vector<mpps::rete::Instantiation> b);

}  // namespace perfbench
