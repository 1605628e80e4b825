#include "src/rete/memory.hpp"

namespace mpps::rete {

void HashedMemory::Cell::erase_at(std::size_t i) {
  // Shifting keeps the remaining entries in insertion order, which is the
  // order probes visit them in.
  const auto t = wmes.begin() + static_cast<std::ptrdiff_t>(i * token_len);
  wmes.erase(t, t + static_cast<std::ptrdiff_t>(token_len));
  const auto o =
      operands.begin() + static_cast<std::ptrdiff_t>(i * operand_len);
  operands.erase(o, o + static_cast<std::ptrdiff_t>(operand_len));
  neg_counts.erase(neg_counts.begin() + static_cast<std::ptrdiff_t>(i));
}

std::size_t HashedMemory::insert(NodeId node, std::uint32_t bucket,
                                 std::span<const WmeId> token,
                                 std::span<const Value> operands,
                                 int neg_count) {
  if (node.value() >= slots_.size()) slots_.resize(node.value() + 1);
  std::vector<std::uint32_t>& table = slots_[node.value()];
  if (table.empty()) table.assign(num_buckets_, kNoSlot);
  std::uint32_t& slot = table[bucket];
  if (slot == kNoSlot) {
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(cells_.size());
      cells_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
  }
  Cell& cell = cells_[slot];
  cell.token_len = token.size();
  cell.operand_len = operands.size();
  cell.wmes.insert(cell.wmes.end(), token.begin(), token.end());
  cell.operands.insert(cell.operands.end(), operands.begin(), operands.end());
  cell.neg_counts.push_back(neg_count);
  ++total_;
  return cell.neg_counts.size();
}

bool HashedMemory::erase(NodeId node, std::uint32_t bucket,
                         std::span<const WmeId> token, int* neg_count) {
  const std::uint32_t slot = slot_of(node, bucket);
  if (slot == kNoSlot) return false;
  Cell& cell = cells_[slot];
  for (std::size_t i = 0; i < cell.neg_counts.size(); ++i) {
    ++scanned_;
    if (!std::ranges::equal(cell.token(i), token)) continue;
    if (neg_count != nullptr) *neg_count = cell.neg_counts[i];
    cell.erase_at(i);
    --total_;
    if (cell.neg_counts.empty()) {
      slots_[node.value()][bucket] = kNoSlot;
      free_.push_back(slot);
    }
    return true;
  }
  return false;
}

}  // namespace mpps::rete
