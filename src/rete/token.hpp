// Tokens: partial instantiations of productions flowing through the Rete
// network.  A token lists the wmes matching the positive condition elements
// matched so far (the paper's "list of wme IDs").  The join kernel reads
// the values a node tests from the wme table once, when the token arrives
// at the node, and stores them beside it in the node's memory, so a probe
// compares stored values and looks no wme up; the RHS reads bindings from
// the wmes.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/ids.hpp"

namespace mpps::rete {

/// Addition or deletion — the paper's +/- token tag.
enum class Tag : std::uint8_t { Plus, Minus };

/// Which input of a two-input node an activation arrives on.
enum class Side : std::uint8_t { Left, Right };

struct Token {
  std::vector<WmeId> wmes;  // one id per positive CE matched, in CE order

  friend bool operator==(const Token& a, const Token& b) = default;
};

}  // namespace mpps::rete
