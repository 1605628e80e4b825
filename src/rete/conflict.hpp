// The conflict set and OPS5 conflict-resolution strategies (LEX and MEA),
// including refraction (an instantiation fires at most once while it stays
// in the conflict set).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "src/common/ids.hpp"
#include "src/rete/token.hpp"

namespace mpps::rete {

enum class Strategy : std::uint8_t { Lex, Mea };

/// A complete match of one production.
struct Instantiation {
  ProductionId production;
  Token token;  // wmes matching the positive CEs, in CE order

  friend bool operator==(const Instantiation&, const Instantiation&) = default;
};

/// The set of active instantiations, with LEX/MEA selection.  A hash
/// index on (production, token) makes `remove` and `mark_fired` lookups;
/// a removal moves the last entry into the hole.  Adding an instantiation
/// that is already present adds a second copy: the set is a multiset, and
/// `remove` and `mark_fired` each take the earliest-added copy.
class ConflictSet {
 public:
  /// `specificity_of` returns the LHS test count of a production (the LEX
  /// tiebreaker).  Captured by reference semantics — keep it alive.
  explicit ConflictSet(
      std::function<std::size_t(ProductionId)> specificity_of);

  void add(Instantiation inst);
  /// Removes the instantiation of `production` by `token` (and forgets
  /// its refraction mark), comparing in place rather than building an
  /// Instantiation.  Returns true if it was present.
  bool remove(ProductionId production, std::span<const WmeId> token);
  bool remove(const Instantiation& inst) {
    return remove(inst.production, inst.token.wmes);
  }

  /// Observer of conflict-set mutations: called once per successful add
  /// (`added == true`) and once per successful remove (`added == false`,
  /// with the removed entry), from the thread doing the mutation (both
  /// engines mutate the conflict set only from their control thread).  The serving layer uses it to
  /// attribute each delta to the client transaction that caused it.
  using DeltaHook = std::function<void(const Instantiation&, bool added)>;
  void set_delta_hook(DeltaHook hook) { delta_hook_ = std::move(hook); }

  /// Picks the dominant unfired instantiation per `strategy`, or nullopt if
  /// every instantiation has already fired (or the set is empty).
  [[nodiscard]] std::optional<Instantiation> select(Strategy strategy) const;

  /// Marks an instantiation as fired (refraction).
  void mark_fired(const Instantiation& inst);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  /// Every instantiation, in unspecified order.
  [[nodiscard]] std::vector<Instantiation> all() const;

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  struct Entry {
    Instantiation inst;
    std::vector<WmeId> recency;  // timetags sorted descending
    std::size_t specificity = 0;
    std::size_t hash = 0;        // of (production, token)
    std::uint64_t added = 0;     // add order, to pick among equal copies
    std::uint32_t next = kNone;  // next entry on this hash chain
    bool fired = false;
  };

  /// True when `a` dominates `b` (should be preferred).
  static bool dominates(const Entry& a, const Entry& b, Strategy strategy);

  /// The earliest-added entry of `production` by `token`, or kNone.
  [[nodiscard]] std::uint32_t lookup(ProductionId production,
                                     std::span<const WmeId> token) const;
  void link(std::uint32_t i);
  void unlink(std::uint32_t i);

  std::function<std::size_t(ProductionId)> specificity_of_;
  DeltaHook delta_hook_;
  std::vector<Entry> entries_;
  // Hash chains over entries_; the size is a power of two, at least
  // entries_.size().
  std::vector<std::uint32_t> heads_;
  std::uint64_t adds_ = 0;
};

}  // namespace mpps::rete
