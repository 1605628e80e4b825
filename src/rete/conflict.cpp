#include "src/rete/conflict.hpp"

#include <algorithm>

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

void ConflictSet::add(Instantiation inst) {
  Entry e;
  e.recency = inst.token.wmes;
  std::sort(e.recency.begin(), e.recency.end(), std::greater<>());
  e.specificity = specificity_of_(inst.production);
  e.hash = hash_of(inst.production, inst.token.wmes);
  e.added = adds_++;
  e.inst = std::move(inst);
  entries_.push_back(std::move(e));
  if (entries_.size() > heads_.size()) {
    heads_.assign(std::max<std::size_t>(16, 2 * heads_.size()), kNone);
    for (std::uint32_t i = 0; i < entries_.size(); ++i) link(i);
  } else {
    link(static_cast<std::uint32_t>(entries_.size() - 1));
  }
  if (delta_hook_) delta_hook_(entries_.back().inst, true);
}

bool ConflictSet::remove(ProductionId production,
                         std::span<const WmeId> token) {
  const std::uint32_t i = lookup(production, token);
  if (i == kNone) return false;
  unlink(i);
  const Entry removed = std::move(entries_[i]);
  const auto last = static_cast<std::uint32_t>(entries_.size() - 1);
  if (i != last) {
    unlink(last);
    entries_[i] = std::move(entries_[last]);
    link(i);
  }
  entries_.pop_back();
  if (delta_hook_) delta_hook_(removed.inst, false);
  return true;
}

std::uint32_t ConflictSet::lookup(ProductionId production,
                                  std::span<const WmeId> token) const {
  if (heads_.empty()) return kNone;
  const std::size_t h = hash_of(production, token);
  std::uint32_t best = kNone;
  for (std::uint32_t i = heads_[h & (heads_.size() - 1)]; i != kNone;
       i = entries_[i].next) {
    const Entry& e = entries_[i];
    if (e.hash == h && e.inst.production == production &&
        std::ranges::equal(e.inst.token.wmes, token) &&
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

bool ConflictSet::dominates(const Entry& a, const Entry& b, Strategy strategy) {
  if (strategy == Strategy::Mea) {
    // MEA first compares the recency of the wme matching the first CE.
    const WmeId fa = a.inst.token.wmes.empty() ? WmeId{0} : a.inst.token.wmes[0];
    const WmeId fb = b.inst.token.wmes.empty() ? WmeId{0} : b.inst.token.wmes[0];
    if (fa != fb) return fa > fb;
  }
  // LEX: lexicographic comparison of descending timetag lists; a shorter
  // list that is a prefix of the longer loses (the longer is "more").
  const auto& ra = a.recency;
  const auto& rb = b.recency;
  const std::size_t n = std::min(ra.size(), rb.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (ra[i] != rb[i]) return ra[i] > rb[i];
  }
  if (ra.size() != rb.size()) return ra.size() > rb.size();
  if (a.specificity != b.specificity) return a.specificity > b.specificity;
  // Deterministic final tiebreaks: lower production id wins; between two
  // instantiations of the SAME production whose sorted recency lists tie,
  // order the raw wme lists positionally.  Without this last comparison the
  // winner would depend on conflict-set insertion order, which a parallel
  // match engine does not reproduce.
  if (a.inst.production != b.inst.production) {
    return a.inst.production < b.inst.production;
  }
  return a.inst.token.wmes > b.inst.token.wmes;
}

std::optional<Instantiation> ConflictSet::select(Strategy strategy) const {
  const Entry* best = nullptr;
  for (const auto& e : entries_) {
    if (e.fired) continue;
    if (best == nullptr || dominates(e, *best, strategy)) best = &e;
  }
  if (best == nullptr) return std::nullopt;
  return best->inst;
}

void ConflictSet::mark_fired(const Instantiation& inst) {
  const std::uint32_t i = lookup(inst.production, inst.token.wmes);
  if (i != kNone) entries_[i].fired = true;
}

std::vector<Instantiation> ConflictSet::all() const {
  std::vector<Instantiation> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.inst);
  return out;
}

}  // namespace mpps::rete
