// The wmes live inside a match engine.  Each live wme has a row that also
// holds its values at the network's attribute slots, so a join reads a
// test operand by (row, slot) instead of searching the wme's attributes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/ids.hpp"
#include "src/common/symbol.hpp"
#include "src/ops5/value.hpp"
#include "src/ops5/wme.hpp"

namespace mpps::rete {

/// The wmes live inside a match engine, by id.
///
/// An open-addressing index maps an id to its row.  It takes the high bits
/// of a Fibonacci hash, so ids that differ only in their high bits (the
/// serving layer's `ordinal << 40 | local`) spread as well as sequential
/// ones, and it probes linearly.  An index entry is 8 bytes: the hash's
/// high half, and the row, whose wme confirms the id when the halves
/// match.  Row r holds a copy of the wme and, at slot s, the wme's value
/// of `slot_attrs[s]` (absent when the wme lacks that attribute).  An
/// erased wme's row, with its storage, goes to the next insert, so in
/// steady state nothing here allocates.
///
/// Reads are const and touch no shared mutable state, so threads may read
/// one table concurrently while no thread changes it.
class WmeTable {
 public:
  static constexpr std::uint32_t kNoRow = UINT32_MAX;

  /// `slot_attrs[s]` is the attribute stored at slot s
  /// (`Network::slot_attrs()`).
  explicit WmeTable(std::vector<Symbol> slot_attrs);

  /// Throws mpps::RuntimeError naming the wme id when `change` adds an id
  /// that is live or deletes one that is not.
  void check(const ops5::WmeChange& change) const;

  /// Adds `wme`, whose id must not be live (see `check`), and returns its
  /// row.
  std::uint32_t insert(const ops5::Wme& wme);

  /// Removes the wme with `id`.  Returns false if it is not live.
  bool erase(WmeId id);

  /// The row of `id`, or kNoRow if it is not live.
  [[nodiscard]] std::uint32_t find(WmeId id) const {
    return index_[position(id)].row;
  }

  /// The row of `id`; throws mpps::RuntimeError naming the id if it is
  /// not live.
  [[nodiscard]] std::uint32_t row(WmeId id) const {
    const std::uint32_t r = find(id);
    if (r == kNoRow) throw_not_live(id);
    return r;
  }

  [[nodiscard]] bool contains(WmeId id) const { return find(id) != kNoRow; }

  /// The wme with `id`; throws mpps::RuntimeError naming the id if it is
  /// not live.
  [[nodiscard]] const ops5::Wme& at(WmeId id) const { return wmes_[row(id)]; }

  /// Row `row`'s value at `slot`.
  [[nodiscard]] const ops5::Value& value(std::uint32_t row,
                                         std::uint32_t slot) const {
    return values_[row * slot_attrs_.size() + slot];
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct Entry {
    std::uint32_t tag = 0;       // the high half of the id's hash
    std::uint32_t row = kNoRow;  // kNoRow ⇒ the entry is empty
  };

  [[nodiscard]] static std::uint32_t tag_of(WmeId id) {
    return static_cast<std::uint32_t>((id.value() * 0x9E3779B97F4A7C15ull) >>
                                      32);
  }
  /// The first index entry an id with hash tag `tag` may occupy.
  [[nodiscard]] std::size_t home(std::uint32_t tag) const {
    return tag >> (32 - bits_);
  }
  /// The index entry holding `id`, or the empty entry that ends its run.
  [[nodiscard]] std::size_t position(WmeId id) const {
    const std::uint32_t tag = tag_of(id);
    const std::size_t mask = index_.size() - 1;
    std::size_t i = home(tag);
    while (index_[i].row != kNoRow &&
           (index_[i].tag != tag || wmes_[index_[i].row].id() != id)) {
      i = (i + 1) & mask;
    }
    return i;
  }
  /// Puts `e` in the first empty entry from its home on.
  void place(Entry e);
  [[noreturn]] static void throw_not_live(WmeId id);

  std::vector<Symbol> slot_attrs_;
  std::vector<ops5::Wme> wmes_;        // by row; free rows keep storage
  std::vector<ops5::Value> values_;    // row r's slots at r * slots
  std::vector<std::uint32_t> free_rows_;
  unsigned bits_ = 4;
  // 2^bits_ entries, never more than three quarters full.
  std::vector<Entry> index_;
  std::size_t size_ = 0;
};

}  // namespace mpps::rete
