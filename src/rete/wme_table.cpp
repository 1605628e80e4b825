#include "src/rete/wme_table.hpp"

#include <string>
#include <utility>

#include "src/common/error.hpp"

namespace mpps::rete {

WmeTable::WmeTable(std::vector<Symbol> slot_attrs)
    : slot_attrs_(std::move(slot_attrs)),
      index_(std::size_t{1} << bits_) {}

void WmeTable::check(const ops5::WmeChange& change) const {
  const WmeId id = change.wme.id();
  if (change.kind == ops5::WmeChange::Kind::Add) {
    if (contains(id)) {
      throw RuntimeError("add of wme id " + std::to_string(id.value()) +
                         ", which is already live");
    }
  } else if (!contains(id)) {
    throw RuntimeError("delete of wme id " + std::to_string(id.value()) +
                       ", which is not live");
  }
}

void WmeTable::throw_not_live(WmeId id) {
  throw RuntimeError("wme id " + std::to_string(id.value()) + " is not live");
}

std::uint32_t WmeTable::insert(const ops5::Wme& wme) {
  if (4 * (size_ + 1) > 3 * index_.size()) {
    std::vector<Entry> old(2 * index_.size());
    old.swap(index_);
    ++bits_;
    for (const Entry& e : old) {
      if (e.row != kNoRow) place(e);
    }
  }
  std::uint32_t r = kNoRow;
  const std::size_t slots = slot_attrs_.size();
  if (free_rows_.empty()) {
    r = static_cast<std::uint32_t>(wmes_.size());
    wmes_.push_back(wme);
    values_.resize(values_.size() + slots);
  } else {
    r = free_rows_.back();
    free_rows_.pop_back();
    wmes_[r] = wme;  // reuses the row's attribute storage
  }
  for (std::size_t s = 0; s < slots; ++s) {
    values_[r * slots + s] = wme.get(slot_attrs_[s]);
  }
  place(Entry{tag_of(wme.id()), r});
  ++size_;
  return r;
}

void WmeTable::place(Entry e) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(e.tag);
  while (index_[i].row != kNoRow) i = (i + 1) & mask;
  index_[i] = e;
}

bool WmeTable::erase(WmeId id) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = position(id);
  if (index_[i].row == kNoRow) return false;
  free_rows_.push_back(index_[i].row);
  // Backward-shift deletion: an entry later in the run moves into the hole
  // when the hole lies between its home and where it sits, so every id
  // stays reachable from its home without crossing an empty entry.
  for (std::size_t j = (i + 1) & mask; index_[j].row != kNoRow;
       j = (j + 1) & mask) {
    const std::size_t h = home(index_[j].tag);
    if (((j - h) & mask) >= ((j - i) & mask)) {
      index_[i] = index_[j];
      i = j;
    }
  }
  index_[i] = Entry{};
  --size_;
  return true;
}

}  // namespace mpps::rete
