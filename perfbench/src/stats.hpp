// Order statistics for the benchmark's reported timings.  Every quantile
// the benchmark prints is an exact nearest-rank order statistic of the
// recorded samples, never a histogram bucket edge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The nearest-rank q-quantile: the ceil(q * n)-th smallest sample
/// (1-based), so q = 0.5 of {1, 2, 3, 4} is 2 and q = 0.99 of 100 samples
/// is the 99th smallest.  q <= 0 gives the minimum.  Throws
/// std::invalid_argument on an empty sample set or q outside [0, 1].
[[nodiscard]] double order_stat(std::vector<double> samples, double q);

/// order_stat(samples, 0.5).
[[nodiscard]] double median(std::vector<double> samples);

/// One stretch of a timed loop: the operations it completed, their wall
/// times, the work they did and the process CPU they used, and the host
/// slowdown the probe measured beside them (probe.hpp).
struct Window {
  double wall_s = 0.0;
  double work = 0.0;  // work units completed (changes, events, tx)
  double cpu_s = 0.0;
  std::vector<double> op_us;
  double slowdown = 1.0;
};

/// What a run keeps of a closed window: its figures at the nominal host
/// speed (durations divided by the slowdown, the rate multiplied by it).
struct WindowSummary {
  double work_per_s = 0.0;
  double op_p50_us = 0.0;
  double op_p99_us = 0.0;
  double cpu_us_per_op = 0.0;
  std::uint64_t ops = 0;
  double slowdown = 1.0;
};
[[nodiscard]] WindowSummary summarize(const Window& window);

/// The window's figures as measured: `w` with the slowdown scaling undone.
[[nodiscard]] WindowSummary as_measured(WindowSummary w);

/// A run's end-to-end figures from its windows: each is the median of the
/// per-window values (work_per_s, p50, p99, CPU per op).  On a shared host
/// a window's speed swings with the other tenants' load, often by more
/// than a third from one window to the next; the median over a run's
/// windows moved least between runs (perfbench/README.md, "Noise").
/// `ops` is summed over all windows; `slowdown` is their median.
[[nodiscard]] WindowSummary window_medians(
    const std::vector<WindowSummary>& windows);

/// Appends a duration to a sample vector in microseconds.
inline void push_us(std::vector<double>& out, std::uint64_t ns) {
  out.push_back(static_cast<double>(ns) / 1e3);
}

}  // namespace perfbench
