// The conflict set and OPS5 conflict-resolution strategies (LEX and MEA),
// including refraction (an instantiation fires at most once while it stays
// in the conflict set).
//
// Storage is flat.  Each entry's token and its timetags in descending
// order (the LEX recency list) sit side by side in one row of a pool
// shared by every entry of that token length; a freed row names the next
// free row of its pool in its first slot.  An `Entry` keeps
// its row, its hash, its add order, a hash-chain link and its fired flag;
// each production's specificity is asked for once and kept.  So once the
// pools, the entry array and the index have grown to their peak, neither
// `add` nor `remove` allocates.  `select` returns a view into the winner's
// row; the delta hook gets one reused scratch `Instantiation`, filled only
// when a hook is set.
#pragma once

#include <algorithm>
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

/// An instantiation in place: its production and a view of its token.
/// One that `ConflictSet::select` returns is valid until the set next
/// changes (an add or a remove).
struct InstantiationView {
  ProductionId production;
  std::span<const WmeId> token;  // wmes matching the positive CEs

  friend bool operator==(const InstantiationView& v, const Instantiation& i) {
    return v.production == i.production &&
           std::ranges::equal(v.token, i.token.wmes);
  }
};

/// The set of active instantiations, with LEX/MEA selection.  A hash
/// index on (production, token) makes `remove` and `mark_fired` lookups;
/// a removal moves the last entry into the hole.  Adding an instantiation
/// that is already present adds a second copy: the set is a multiset, and
/// `remove` and `mark_fired` each take the earliest-added copy.
class ConflictSet {
 public:
  /// `specificity_of` returns the LHS test count of a production (the LEX
  /// tiebreaker).  It is called on a production's first add and its answer
  /// kept, so what it refers to must outlive every add.
  explicit ConflictSet(
      std::function<std::size_t(ProductionId)> specificity_of);

  /// Adds the instantiation of `production` by `token`, copying the token
  /// into a row; `token` must not view one of this set's own rows.
  void add(ProductionId production, std::span<const WmeId> token);
  void add(const Instantiation& inst) {
    add(inst.production, inst.token.wmes);
  }
  /// Removes the instantiation of `production` by `token` (and forgets
  /// its refraction mark).  Returns true if it was present.
  bool remove(ProductionId production, std::span<const WmeId> token);
  bool remove(const Instantiation& inst) {
    return remove(inst.production, inst.token.wmes);
  }

  /// Observer of conflict-set mutations: called once per successful add
  /// (`added == true`) and once per successful remove (`added == false`,
  /// with the removed entry), from the thread doing the mutation (both
  /// engines mutate the conflict set only from their control thread).
  /// The serving layer uses it to attribute each delta to the client
  /// transaction that caused it.  The instantiation it gets is reused by
  /// the next call: a hook that keeps one copies it.
  using DeltaHook = std::function<void(const Instantiation&, bool added)>;
  void set_delta_hook(DeltaHook hook) { delta_hook_ = std::move(hook); }

  /// Picks the dominant unfired instantiation per `strategy`, or nullopt if
  /// every instantiation has already fired (or the set is empty).  The
  /// view is valid until the set next changes.
  [[nodiscard]] std::optional<InstantiationView> select(
      Strategy strategy) const;

  /// Marks the earliest-added copy of an instantiation as fired
  /// (refraction); does nothing when it is absent.
  void mark_fired(ProductionId production, std::span<const WmeId> token);
  void mark_fired(const InstantiationView& inst) {
    mark_fired(inst.production, inst.token);
  }
  void mark_fired(const Instantiation& inst) {
    mark_fired(inst.production, inst.token.wmes);
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  /// Every instantiation, in unspecified order.
  [[nodiscard]] std::vector<Instantiation> all() const;

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  static constexpr std::size_t kUnknown = SIZE_MAX;

  struct Entry {
    std::uint64_t added = 0;     // add order, to pick among equal copies
    ProductionId production;
    std::uint32_t length = 0;    // token length: the pool of its row
    std::uint32_t row = 0;       // its row's first slot in the pool
    std::uint32_t hash = 0;      // of (production, token), low bits
    std::uint32_t next = kNone;  // next entry on this hash chain
    bool fired = false;
  };

  /// The rows of one token length L, 2L slots each (the token, then its
  /// timetags sorted descending), back to back.
  struct Pool {
    std::vector<WmeId> slots;
    std::uint32_t free = kNone;  // first free row; each names the next
  };

  [[nodiscard]] const WmeId* row_of(const Entry& e) const {
    return pools_[e.length].slots.data() + e.row;
  }
  [[nodiscard]] std::span<const WmeId> token_of(const Entry& e) const {
    return {row_of(e), e.length};
  }
  [[nodiscard]] std::span<const WmeId> recency_of(const Entry& e) const {
    return {row_of(e) + e.length, e.length};
  }
  /// The first slot of a row of `length`'s pool: a freed row if any,
  /// else a new one.
  std::uint32_t take_row(std::uint32_t length);
  void free_row(std::uint32_t length, std::uint32_t row);
  /// Asks for `production`'s specificity the first time it is seen.
  void learn_specificity(ProductionId production);
  void fill_scratch(ProductionId production, std::span<const WmeId> token);

  /// True when `a` dominates `b` (should be preferred).  Inline, for
  /// `select`, its one caller.
  [[nodiscard]] inline bool dominates(const Entry& a, const Entry& b,
                                      Strategy strategy) const;

  /// The earliest-added entry of `production` by `token`, or kNone.
  [[nodiscard]] std::uint32_t lookup(ProductionId production,
                                     std::span<const WmeId> token) const;
  void link(std::uint32_t i);
  void unlink(std::uint32_t i);

  std::function<std::size_t(ProductionId)> specificity_of_;
  std::vector<std::size_t> specificity_;  // by production id, or kUnknown
  DeltaHook delta_hook_;
  Instantiation scratch_;  // what the hook is given
  std::vector<Entry> entries_;
  std::vector<Pool> pools_;  // by token length
  // Hash chains over entries_; the size is a power of two, at least
  // entries_.size().
  std::vector<std::uint32_t> heads_;
  std::uint64_t adds_ = 0;
};

}  // namespace mpps::rete
