// The paper's concurrent distributed hash-table data structure, in its
// serial form: two global token hash tables (one for all left memories,
// one for all right memories).  Tokens are keyed by the destination
// two-input node's id plus the values bound to the variables tested for
// equality at that node, so tokens with the same key land in the same
// bucket and a node activation touches exactly one left/right bucket pair.
//
// The *bucket index* (key hash mod bucket count) is what the MPC mapping
// partitions across processors; the engine additionally filters entries by
// exact key values because distinct keys may collide into one index.
//
// An entry stores, beside its token, the operands of every test of its
// node (equality key first), so a probe compares values already in the
// cell and never looks a wme up.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/ids.hpp"
#include "src/ops5/value.hpp"

namespace mpps::rete {

using ops5::Value;

/// The hash of a token headed to `node` with equality-test values `key`;
/// its bucket is the hash modulo the bucket count.
inline std::uint64_t bucket_hash(NodeId node, std::span<const Value> key) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull ^ node.value();
  h *= 0xFF51AFD7ED558CCDull;
  for (const Value& v : key) {
    h ^= v.hash() + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  }
  // Final avalanche so low bits are well mixed before the modulo.
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return h;
}

/// Computes the global bucket index for a token headed to `node` with
/// equality-test values `key`.  A node with no equality tests maps all its
/// tokens to one bucket — the paper's non-discriminating cross-product case.
inline std::uint32_t bucket_index(NodeId node, std::span<const Value> key,
                                  std::uint32_t num_buckets) {
  return static_cast<std::uint32_t>(bucket_hash(node, key) % num_buckets);
}

/// One side (left or right) of the global hash table.
///
/// Each (node, bucket) cell keeps its entries in insertion order in three
/// flat arrays: the tokens' wmes, the operands, and the negative-node
/// counts.  Every token a node stores on one side has the same length, and
/// every entry as many operands as the node has tests; the first operands
/// are the equality key.  Beta node ids are dense, so a node's cells are
/// found through a per-node table of bucket → slot.  A cell that empties
/// gives its slot, with its capacity, to the next new cell, so in steady
/// state nothing here allocates.
///
/// Callers pass the bucket their key addresses (`bucket_of(node, key)`),
/// so an activation hashes its key once.
class HashedMemory {
 public:
  explicit HashedMemory(std::uint32_t num_buckets)
      : num_buckets_(num_buckets),
        power_of_two_(std::has_single_bit(num_buckets)) {}

  [[nodiscard]] std::uint32_t num_buckets() const { return num_buckets_; }

  /// `bucket_index(node, key, num_buckets())`; a power-of-two bucket count
  /// takes the low bits, which is the same index without a division.
  [[nodiscard]] std::uint32_t bucket_of(NodeId node,
                                        std::span<const Value> key) const {
    const std::uint64_t h = bucket_hash(node, key);
    return static_cast<std::uint32_t>(
        power_of_two_ ? h & (num_buckets_ - 1) : h % num_buckets_);
  }

  /// Appends a token with test operands `operands` (equality key first)
  /// and negative-node count `neg_count` to `node`'s cell for `bucket`.
  /// Returns the cell's size after the insert.
  std::size_t insert(NodeId node, std::uint32_t bucket,
                     std::span<const WmeId> token,
                     std::span<const Value> operands, int neg_count = 0);

  /// Removes the first entry of `node`'s cell for `bucket` holding
  /// `token`, storing its negative-node count in `*neg_count` when that is
  /// not null.  Returns true if found.
  bool erase(NodeId node, std::uint32_t bucket, std::span<const WmeId> token,
             int* neg_count = nullptr);

  /// Calls `visit(token, operands, neg_count)` on each entry of `node`'s
  /// cell for `bucket` whose first `key.size()` operands equal `key`
  /// element-wise, in insertion order, and returns how many it visited.
  /// `visit` may change the count but must not insert into or erase from
  /// this memory.
  template <typename Visit>
  std::uint32_t probe(NodeId node, std::uint32_t bucket,
                      std::span<const Value> key, Visit&& visit) {
    const std::uint32_t slot = slot_of(node, bucket);
    if (slot == kNoSlot) return 0;
    Cell& cell = cells_[slot];
    const std::size_t n = cell.neg_counts.size();
    scanned_ += n;
    std::uint32_t matched = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const Value> operands = cell.operands_of(i);
      if (!std::ranges::equal(operands.first(key.size()), key)) continue;
      ++matched;
      visit(cell.token(i), operands, cell.neg_counts[i]);
    }
    return matched;
  }

  [[nodiscard]] std::size_t total_tokens() const { return total_; }

  /// Number of (node, bucket) cells currently non-empty.
  [[nodiscard]] std::size_t occupied_cells() const {
    return cells_.size() - free_.size();
  }

  /// Total entries examined by probe/erase since construction — the
  /// "token comparisons" the paper's hashing cuts by up to ~10x versus
  /// linear memories (compare num_buckets == 1 against a real bucket
  /// count).
  [[nodiscard]] std::uint64_t entries_scanned() const { return scanned_; }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  struct Cell {
    std::vector<WmeId> wmes;      // entry i's token: token_len wmes at i
    std::vector<Value> operands;  // entry i's: operand_len values at i
    std::vector<int> neg_counts;  // one per entry
    std::size_t token_len = 0;
    std::size_t operand_len = 0;

    [[nodiscard]] std::span<const WmeId> token(std::size_t i) const {
      return {wmes.data() + i * token_len, token_len};
    }
    [[nodiscard]] std::span<const Value> operands_of(std::size_t i) const {
      return {operands.data() + i * operand_len, operand_len};
    }
    void erase_at(std::size_t i);
  };

  [[nodiscard]] std::uint32_t slot_of(NodeId node,
                                      std::uint32_t bucket) const {
    const std::size_t n = node.value();
    return n < slots_.size() && !slots_[n].empty() ? slots_[n][bucket]
                                                   : kNoSlot;
  }

  std::uint32_t num_buckets_;
  bool power_of_two_;
  std::vector<Cell> cells_;          // live cells and emptied ones
  std::vector<std::uint32_t> free_;  // the emptied cells' slots
  // Node id → (bucket → slot in cells_, or kNoSlot); a node's table is
  // sized on its first insert.
  std::vector<std::vector<std::uint32_t>> slots_;
  std::size_t total_ = 0;
  std::uint64_t scanned_ = 0;
};

}  // namespace mpps::rete
