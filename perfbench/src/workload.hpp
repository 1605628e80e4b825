// The contract between main.cpp and the three workloads.
// Each workload runs either untraced — every sink off, producing the
// end-to-end metrics — or traced, on the same seed and sizes, producing
// the per-layer metrics from spans around its calls into each layer and
// from the layers' own public counters.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/stats.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced runs only: where to write the Chrome trace (empty = nowhere).
  std::string chrome_trace;
};

/// One run of a workload.  The end-to-end figures carry generic names so
/// every workload reports the same set; `*_name` says what they are on
/// this workload.
struct Measured {
  const char* throughput_name = "";  // e.g. "wm_changes_per_s"
  const char* throughput_unit = "";  // e.g. "changes/s"
  const char* op_name = "";          // the timed operation, e.g. "step"

  std::vector<double> setup_s;  // one sample per repeated set-up
  /// The timed loop's closed windows; `timed()` gives the run's figures:
  /// work per second of timed wall time, exact order statistics of the
  /// operation's time, process CPU (all threads) per operation.
  std::vector<WindowSummary> windows;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check

  /// Counts that must repeat exactly between the traced and untraced run
  /// of one seed (and across runs of it).
  std::map<std::string, std::uint64_t> exact;
  /// Per-layer metrics (traced runs only); layers a workload bypasses are
  /// absent here and reported as 0.
  std::map<std::string, double> layers;
  /// Extra `name value` lines printed with the run (digests, sizes).
  std::vector<std::string> info;

  [[nodiscard]] WindowSummary timed() const { return window_medians(windows); }
  /// The same figures as measured, at the host's speed of the moment.
  [[nodiscard]] WindowSummary measured() const {
    std::vector<WindowSummary> raw;
    for (const WindowSummary& w : windows) raw.push_back(as_measured(w));
    return window_medians(raw);
  }

  void fail(std::string what) {
    ++failed;
    failures.push_back(std::move(what));
  }
};

class SpanLog;

/// `spans == nullptr` runs untraced.  `untraced` (traced runs only) is
/// the same seed's untraced result, for ratios against untraced time.
Measured run_manners(const RunConfig& config, SpanLog* spans,
                     const Measured* untraced);
Measured run_sweep(const RunConfig& config, SpanLog* spans,
                   const Measured* untraced);
Measured run_tenants(const RunConfig& config, SpanLog* spans,
                     const Measured* untraced);

}  // namespace perfbench
