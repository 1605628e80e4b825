// Host record and process resource readings: CPU steal from /proc/stat,
// involuntary context switches and CPU time from getrusage, and peak RSS
// from /proc/self/status.  Printed beside every run's metrics so a run
// from a busy host period can be told apart from a regression.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace perfbench {

struct HostSnapshot {
  std::uint64_t steal_ticks = 0;  // summed over all CPUs
  std::uint64_t total_ticks = 0;
  std::int64_t involuntary_switches = 0;
};

[[nodiscard]] HostSnapshot host_snapshot();

/// CPU steal between two snapshots, as a share of all CPU time.
[[nodiscard]] double steal_pct(const HostSnapshot& begin,
                               const HostSnapshot& end);

/// User + system CPU seconds of this process so far.
[[nodiscard]] double process_cpu_s();

/// CPU time of the calling thread so far, in nanoseconds.  The kernel
/// accounts paravirtual steal apart, so this excludes the time the host
/// ran something else on the thread's vCPU.
[[nodiscard]] std::uint64_t thread_cpu_ns();

/// VmHWM of this process in MiB (0 when /proc is unreadable).
[[nodiscard]] double peak_rss_mb();

/// The CPUs the calling thread may run on, ascending (empty when the
/// affinity cannot be read).
[[nodiscard]] std::vector<int> allowed_cpus();

/// Pins the calling thread, and so every thread it starts afterwards, to
/// one CPU.  False when the affinity cannot be set.
bool pin_to_cpu(int cpu);

/// Prints nproc, compiler, build type and the steal / context-switch
/// totals between `begin` and `end`, one `host ...` line each.
void print_host_record(std::ostream& out, const HostSnapshot& begin,
                       const HostSnapshot& end);

}  // namespace perfbench
