// The host-speed probe.  On a shared virtual machine the same code runs at
// different speeds at different times: over five consecutive 25 s runs, a
// 4-vCPU machine ran `manners` at 8.7 k to 13.4 k WM changes/s, with no
// code change and little CPU steal (perfbench/README.md, "The host-speed
// probe").  A timing taken in one host state and compared with one taken
// in another measures the host, not the program.
//
// So every workload runs short probe slices of fixed, benchmark-owned work
// beside its operations, outside their timed regions and on the same
// thread and CPU, and reports every timing as it would read on a host
// running the probe at its nominal speed: a window whose slices took
// `slowdown` times the nominal time has its durations divided by
// `slowdown` and its rates multiplied by it.
//
// Each workload's slice is benchmark-owned work of the kind its own time
// goes to, because work of different kinds slows by different factors:
// - HashJoin (`manners`): build a hash multimap of 20 000 small nodes over
//   4 096 keys, then probe it 20 000 times — a hashed join memory in
//   miniature.
// - Sort (`sweep-sections`): sort 30 000 integers — branchy work over
//   arrays, like the simulator's event handling and the trace scans.
// - HandOff (`tenants`): the hash join, done by two threads on the
//   caller's CPU taking 256 turns, each handed over through a mutex and a
//   condition variable — the serve path's hand-offs.
// perfbench/README.md ("The host-speed probe") gives the measurements
// behind the choice.  The probe is compiled here, not from ../src, so a
// change to the program moves the workloads' figures and not the probe's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class ProbeWork { HashJoin, Sort, HandOff };

class HostProbe {
 public:
  /// The slice's memory, allocated and touched once; it stays resident
  /// for the whole run, so it is a fixed part of the peak RSS.
  static constexpr std::size_t kArenaBytes = std::size_t{2} << 20;

  explicit HostProbe(ProbeWork work);

  /// Runs one slice and returns its time over the slice's nominal time.
  double slowdown();

 private:
  /// Time of one slice at the nominal host speed: the scale of every
  /// reported timing (a round figure near the slice's time on the 4-vCPU
  /// development host in a quiet period).
  [[nodiscard]] double nominal_s() const;

  ProbeWork work_;
  std::vector<std::byte> arena_;
};

/// A host slowdown measured over some slices: their mean slowdown (1 when
/// no slice ran).
class Slowdown {
 public:
  void add(double slice_slowdown) {
    total_ += slice_slowdown;
    ++slices_;
  }
  [[nodiscard]] double value() const {
    return slices_ == 0 ? 1.0 : total_ / static_cast<double>(slices_);
  }

 private:
  double total_ = 0.0;
  std::uint64_t slices_ = 0;
};

}  // namespace perfbench
