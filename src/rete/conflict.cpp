#include "src/rete/conflict.hpp"

#include <algorithm>

namespace mpps::rete {

ConflictSet::ConflictSet(std::function<std::size_t(ProductionId)> specificity_of)
    : specificity_of_(std::move(specificity_of)) {}

void ConflictSet::add(Instantiation inst) {
  Entry e;
  e.recency = inst.token.wmes;
  std::sort(e.recency.begin(), e.recency.end(), std::greater<>());
  e.specificity = specificity_of_(inst.production);
  e.inst = std::move(inst);
  entries_.push_back(std::move(e));
  if (delta_hook_) delta_hook_(entries_.back().inst, true);
}

bool ConflictSet::remove(ProductionId production, const Token& token) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->inst.production == production && it->inst.token == token) {
      const Entry removed = std::move(*it);
      entries_.erase(it);
      if (delta_hook_) delta_hook_(removed.inst, false);
      return true;
    }
  }
  return false;
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
  for (auto& e : entries_) {
    if (e.inst == inst) {
      e.fired = true;
      return;
    }
  }
}

std::vector<Instantiation> ConflictSet::all() const {
  std::vector<Instantiation> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.inst);
  return out;
}

}  // namespace mpps::rete
