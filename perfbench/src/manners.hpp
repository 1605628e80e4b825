// The `manners` workload's inputs and instruments, shared with the
// self-test: a seeded Miss Manners party and a decorating match engine
// that times and counts what the serial `rete::Engine` does per cycle.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/replay.hpp"
#include "src/rete/engine.hpp"
#include "src/rete/interp.hpp"
#include "src/spans.hpp"

namespace perfbench {

/// A seeded party: guest i is named "g<i>"; half the guests are of each
/// sex and every guest has the shared hobby 0 plus two of hobbies 1..4, so
/// a greedy seating never dead-ends.
struct MannersParty {
  int guests = 0;
  std::vector<char> sex;                // 'm' / 'f', by guest
  std::vector<std::vector<int>> hobbies;  // by guest
  std::string source;                   // rules + initial WM, OPS5 text
};

[[nodiscard]] MannersParty make_manners_party(int guests, std::uint64_t seed);

/// Empty when the halted interpreter seated every guest exactly once with
/// sexes alternating and neighbours sharing a hobby; else what is wrong.
[[nodiscard]] std::string check_seating(mpps::rete::Interpreter& interp,
                                        const MannersParty& party);

/// FNV-1a over the firing sequence (production names and wme ids).
[[nodiscard]] std::uint64_t firing_digest(
    const mpps::rete::Interpreter& interp);

/// What the decorating engine observes; owned by the caller.
struct MatchObserver {
  SpanLog* spans = nullptr;             // null: count only
  std::uint32_t step_span = kNoParent;  // parent of the next match span
  std::uint64_t cycle = 0;              // group id of the next match span
  std::vector<CsOp>* record = nullptr;  // null: do not record the stream
  std::uint64_t changes = 0;
  std::uint64_t cs_adds = 0;
  std::uint64_t cs_removes = 0;
  std::uint64_t cs_samples = 0;  // one per match call, after it
  std::uint64_t cs_size_sum = 0;
  std::uint64_t cs_size_max = 0;
};

/// Forwards everything to an owned serial `rete::Engine`, timing each
/// act-phase batch as one `rete.match` span and counting conflict-set
/// deltas through the set's delta hook.
class ObservedEngine final : public mpps::rete::MatchEngine {
 public:
  ObservedEngine(const mpps::rete::Network& net,
                 const mpps::rete::EngineOptions& options,
                 MatchObserver& observer);

  void set_listener(mpps::rete::ActivationListener* listener) override {
    inner_.set_listener(listener);
  }
  void process_change(const mpps::ops5::WmeChange& change) override {
    process_changes({&change, 1});
  }
  void process_changes(
      std::span<const mpps::ops5::WmeChange> changes) override;
  [[nodiscard]] mpps::rete::ConflictSet& conflict_set() override {
    return inner_.conflict_set();
  }
  [[nodiscard]] const mpps::ops5::Wme& wme(mpps::WmeId id) const override {
    return inner_.wme(id);
  }
  [[nodiscard]] const mpps::rete::EngineStats& stats() const override {
    return inner_.stats();
  }
  [[nodiscard]] const mpps::rete::Engine& inner() const { return inner_; }

 private:
  mpps::rete::Engine inner_;
  MatchObserver& observer_;
};

/// The production id of the interpreter's latest firing.
[[nodiscard]] mpps::ProductionId last_fired_production(
    const mpps::rete::Interpreter& interp);

}  // namespace perfbench
