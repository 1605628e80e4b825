#include "src/probe.hpp"

#include <algorithm>
#include <condition_variable>
#include <memory_resource>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/spans.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kNodes = 20000;
constexpr std::uint64_t kKeys = 4096;
constexpr std::uint64_t kProbes = 20000;
constexpr std::size_t kSorted = 30000;
// Hand-off: turns per slice, half build and half probe: about one
// hand-off per 15 us of work.  The serve path is preempted about 0.9 times
// per transaction, besides its own hand-offs, and spends 25-30 us of CPU
// on one.
constexpr int kTurns = 256;

volatile std::uint64_t g_sink = 0;

std::uint64_t next(std::uint64_t& x) {
  x = x * 6364136223846793005ull + 1442695040888963407ull;
  return x >> 17;
}

/// The hash join, cut into `turns` equal turns (build, then probe).
class Join {
 public:
  Join(std::pmr::memory_resource* arena, int turns)
      : memory_(arena), turns_(static_cast<std::uint64_t>(turns)) {}

  void turn(int t) {
    const auto half = turns_ / 2;
    const auto i = static_cast<std::uint64_t>(t);
    if (i < half) {
      for (std::uint64_t n = 0; n < kNodes / half; ++n) {
        memory_.emplace(next(x_) % kKeys, x_);
      }
    } else {
      for (std::uint64_t n = 0; n < kProbes / half; ++n) {
        const auto [first, last] = memory_.equal_range(next(x_) % kKeys);
        for (auto it = first; it != last; ++it) acc_ += it->second;
      }
    }
  }
  [[nodiscard]] std::uint64_t result() const { return acc_; }

 private:
  std::pmr::unordered_multimap<std::uint64_t, std::uint64_t> memory_;
  std::uint64_t turns_;
  std::uint64_t x_ = 3;
  std::uint64_t acc_ = 0;
};

}  // namespace

HostProbe::HostProbe(ProbeWork work)
    : work_(work), arena_(kArenaBytes, std::byte{1}) {}

double HostProbe::nominal_s() const {
  switch (work_) {
    case ProbeWork::HashJoin:
      return 0.002;
    case ProbeWork::Sort:
      return 0.002;
    case ProbeWork::HandOff:
      return 0.0035;
  }
  return 0.002;
}

double HostProbe::slowdown() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t result = 0;
  {
    // Everything the slice allocates lives in the arena, which it reuses
    // from its start; nothing comes from the heap.
    std::pmr::monotonic_buffer_resource arena(
        arena_.data(), arena_.size(), std::pmr::null_memory_resource());
    switch (work_) {
      case ProbeWork::HashJoin: {
        Join join(&arena, 2);
        join.turn(0);
        join.turn(1);
        result = join.result();
        break;
      }
      case ProbeWork::Sort: {
        std::pmr::vector<std::uint64_t> values(kSorted, &arena);
        std::uint64_t x = 5;
        for (std::uint64_t& v : values) v = next(x);
        std::sort(values.begin(), values.end());
        result = values[kSorted / 2];
        break;
      }
      case ProbeWork::HandOff: {
        // Two threads take turns at the join, each turn handed to the
        // other through a mutex and condition variable.  The partner
        // inherits the caller's CPU affinity.
        Join join(&arena, kTurns);
        std::mutex mu;
        std::condition_variable cv;
        int turn = 0;  // guarded by mu
        const auto take_turns = [&](int self) {
          for (;;) {
            std::unique_lock lock(mu);
            cv.wait(lock, [&] { return turn == kTurns || turn % 2 == self; });
            if (turn == kTurns) return;
            join.turn(turn);
            ++turn;
            cv.notify_one();
          }
        };
        {
          std::jthread partner(take_turns, 1);
          take_turns(0);
        }
        result = join.result();
        break;
      }
    }
  }
  const Clock::time_point t1 = Clock::now();
  g_sink = result;
  return static_cast<double>(ns_between(t0, t1)) / 1e9 / nominal_s();
}

}  // namespace perfbench
