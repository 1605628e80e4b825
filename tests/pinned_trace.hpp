// Helpers for the tests that pin a recorded trace by byte length and
// FNV-1a digest.  Each trace is recorded by a command in a fresh process:
// a symbol's hash follows its intern order, so a trace recorded after
// other tests interned symbols could put tokens in other buckets.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace mpps::pinned_trace {

inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
  }
  return h;
}

/// What `command` writes to standard output; the calling test fails if
/// it cannot start or exits nonzero.
inline std::string command_output(const std::string& command) {
  FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return {};
  std::string out;
  char chunk[4096];
  std::size_t n = 0;
  while ((n = ::fread(chunk, 1, sizeof(chunk), pipe)) > 0) {
    out.append(chunk, n);
  }
  EXPECT_EQ(::pclose(pipe), 0) << command;
  return out;
}

}  // namespace mpps::pinned_trace
