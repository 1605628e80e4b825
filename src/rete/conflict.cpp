#include "src/rete/conflict.hpp"

namespace mpps::rete {

namespace {

std::size_t hash_of(ProductionId production, std::span<const WmeId> token) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull ^ production.value();
  for (WmeId w : token) {
    h ^= w.value() + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  }
  // Final avalanche: the chains are picked by the low bits.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return static_cast<std::size_t>(h);
}

}  // namespace

ConflictSet::ConflictSet(std::function<std::size_t(ProductionId)> specificity_of)
    : specificity_of_(std::move(specificity_of)) {}

std::uint32_t ConflictSet::take_row(std::uint32_t length) {
  if (length >= pools_.size()) pools_.resize(length + 1);
  if (length == 0) return 0;  // an empty token needs no slots
  Pool& pool = pools_[length];
  if (pool.free != kNone) {
    const std::uint32_t row = pool.free;
    pool.free = static_cast<std::uint32_t>(pool.slots[row].value());
    return row;
  }
  const auto row = static_cast<std::uint32_t>(pool.slots.size());
  pool.slots.resize(pool.slots.size() + 2 * std::size_t{length});
  return row;
}

void ConflictSet::free_row(std::uint32_t length, std::uint32_t row) {
  if (length == 0) return;
  Pool& pool = pools_[length];
  pool.slots[row] = WmeId{pool.free};
  pool.free = row;
}

void ConflictSet::learn_specificity(ProductionId production) {
  const std::size_t p = production.value();
  if (p >= specificity_.size()) specificity_.resize(p + 1, kUnknown);
  if (specificity_[p] == kUnknown) {
    specificity_[p] = specificity_of_(production);
  }
}

void ConflictSet::fill_scratch(ProductionId production,
                               std::span<const WmeId> token) {
  scratch_.production = production;
  scratch_.token.wmes.assign(token.begin(), token.end());
}

void ConflictSet::add(ProductionId production, std::span<const WmeId> token) {
  learn_specificity(production);
  Entry e;
  e.production = production;
  e.length = static_cast<std::uint32_t>(token.size());
  e.row = take_row(e.length);
  e.hash = static_cast<std::uint32_t>(hash_of(production, token));
  e.added = adds_++;
  entries_.push_back(e);
  WmeId* row = pools_[e.length].slots.data() + e.row;
  std::ranges::copy(token, row);
  std::ranges::copy(token, row + e.length);
  std::sort(row + e.length, row + 2 * e.length, std::greater<>());
  if (entries_.size() > heads_.size()) {
    heads_.assign(std::max<std::size_t>(16, 2 * heads_.size()), kNone);
    for (std::uint32_t i = 0; i < entries_.size(); ++i) link(i);
  } else {
    link(static_cast<std::uint32_t>(entries_.size() - 1));
  }
  if (delta_hook_) {
    fill_scratch(production, token);
    delta_hook_(scratch_, true);
  }
}

bool ConflictSet::remove(ProductionId production,
                         std::span<const WmeId> token) {
  const std::uint32_t i = lookup(production, token);
  if (i == kNone) return false;
  // `token` may view the row freed below.
  if (delta_hook_) fill_scratch(production, token);
  unlink(i);
  free_row(entries_[i].length, entries_[i].row);
  const auto last = static_cast<std::uint32_t>(entries_.size() - 1);
  if (i != last) {
    unlink(last);
    entries_[i] = entries_[last];
    link(i);
  }
  entries_.pop_back();
  if (delta_hook_) delta_hook_(scratch_, false);
  return true;
}

std::uint32_t ConflictSet::lookup(ProductionId production,
                                  std::span<const WmeId> token) const {
  if (heads_.empty()) return kNone;
  const auto h = static_cast<std::uint32_t>(hash_of(production, token));
  std::uint32_t best = kNone;
  for (std::uint32_t i = heads_[h & (heads_.size() - 1)]; i != kNone;
       i = entries_[i].next) {
    const Entry& e = entries_[i];
    if (e.hash == h && e.production == production &&
        std::ranges::equal(token_of(e), token) &&
        (best == kNone || e.added < entries_[best].added)) {
      best = i;
    }
  }
  return best;
}

void ConflictSet::link(std::uint32_t i) {
  std::uint32_t& head = heads_[entries_[i].hash & (heads_.size() - 1)];
  entries_[i].next = head;
  head = i;
}

void ConflictSet::unlink(std::uint32_t i) {
  std::uint32_t* at = &heads_[entries_[i].hash & (heads_.size() - 1)];
  while (*at != i) at = &entries_[*at].next;
  *at = entries_[i].next;
}

// Inlined into select's scan, which then reads the pools once instead of
// once per comparison and pays no call per entry.
[[gnu::always_inline]] inline bool ConflictSet::dominates(
    const Entry& a, const Entry& b, Strategy strategy) const {
  const std::span<const WmeId> ta = token_of(a);
  const std::span<const WmeId> tb = token_of(b);
  if (strategy == Strategy::Mea) {
    // MEA first compares the recency of the wme matching the first CE.
    const WmeId fa = ta.empty() ? WmeId{0} : ta[0];
    const WmeId fb = tb.empty() ? WmeId{0} : tb[0];
    if (fa != fb) return fa > fb;
  }
  // LEX: lexicographic comparison of descending timetag lists; a shorter
  // list that is a prefix of the longer loses (the longer is "more").
  const std::span<const WmeId> ra = recency_of(a);
  const std::span<const WmeId> rb = recency_of(b);
  const std::size_t n = std::min(ra.size(), rb.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (ra[i] != rb[i]) return ra[i] > rb[i];
  }
  if (ra.size() != rb.size()) return ra.size() > rb.size();
  const std::size_t sa = specificity_[a.production.value()];
  const std::size_t sb = specificity_[b.production.value()];
  if (sa != sb) return sa > sb;
  // Deterministic final tiebreaks: lower production id wins; between two
  // instantiations of the SAME production whose sorted recency lists tie,
  // order the raw wme lists positionally.  Without this last comparison the
  // winner would depend on conflict-set insertion order, which a parallel
  // match engine does not reproduce.
  if (a.production != b.production) return a.production < b.production;
  return std::ranges::lexicographical_compare(tb, ta);
}

std::optional<InstantiationView> ConflictSet::select(Strategy strategy) const {
  const Entry* best = nullptr;
  for (const Entry& e : entries_) {
    if (e.fired) continue;
    if (best == nullptr || dominates(e, *best, strategy)) best = &e;
  }
  if (best == nullptr) return std::nullopt;
  return InstantiationView{best->production, token_of(*best)};
}

void ConflictSet::mark_fired(ProductionId production,
                             std::span<const WmeId> token) {
  const std::uint32_t i = lookup(production, token);
  if (i != kNone) entries_[i].fired = true;
}

std::vector<Instantiation> ConflictSet::all() const {
  std::vector<Instantiation> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    const std::span<const WmeId> token = token_of(e);
    out.push_back(
        Instantiation{e.production, Token{{token.begin(), token.end()}}});
  }
  return out;
}

}  // namespace mpps::rete
