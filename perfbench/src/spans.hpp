// In-memory span log for the traced run.  The benchmark opens one span
// around each call it makes into a layer: name, layer, start, end, parent
// span and the id of the cycle / scenario / transaction it belongs to.
// Spans stay in memory until the run ends; self times and the Chrome
// trace are computed from the finished log.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mpps::obs {
class Tracer;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t ns_between(Clock::time_point a,
                                              Clock::time_point b) {
  return b <= a ? 0
                : static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(b -
                                                                           a)
                          .count());
}

inline constexpr std::uint32_t kNoParent = UINT32_MAX;

struct Span {
  const char* name = "";   // e.g. "rete.match"; static storage
  const char* layer = "";  // module: ops5, rete, pmatch, serve, trace, ...
  std::uint64_t start_ns = 0;  // since the log's epoch
  std::uint64_t end_ns = 0;
  std::uint32_t parent = kNoParent;  // index into the log
  std::uint64_t group = 0;  // cycle / scenario / transaction id
  std::int64_t arg = -1;    // workload-specific payload (serve: phase)
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  [[nodiscard]] Clock::time_point epoch() const { return epoch_; }
  [[nodiscard]] std::uint64_t stamp(Clock::time_point t) const {
    return ns_between(epoch_, t);
  }

  /// Opens a span now and returns its index.
  std::uint32_t open(const char* name, const char* layer, std::uint64_t group,
                     std::uint32_t parent = kNoParent) {
    spans_.push_back(Span{name, layer, stamp(Clock::now()), 0, parent, group});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void close(std::uint32_t index) { spans_[index].end_ns = stamp(Clock::now()); }

  /// Records a finished span from two clock readings.
  std::uint32_t add(const char* name, const char* layer, Clock::time_point start,
                    Clock::time_point end, std::uint64_t group,
                    std::uint32_t parent = kNoParent, std::int64_t arg = -1) {
    spans_.push_back(
        Span{name, layer, stamp(start), stamp(end), parent, group, arg});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  [[nodiscard]] std::vector<Span>& spans() { return spans_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Each span's duration minus the union of its children's intervals
/// (clipped to the span), indexed like `spans`.  Children may overlap one
/// another — concurrent work is counted once.
[[nodiscard]] std::vector<std::uint64_t> self_times(
    const std::vector<Span>& spans);

/// Sum of self time per span name.
[[nodiscard]] std::map<std::string, std::uint64_t> self_time_by_name(
    const std::vector<Span>& spans);

/// Length of the union of the root spans' intervals: the part of the run
/// attributed to some layer.
[[nodiscard]] std::uint64_t covered_ns(const std::vector<Span>& spans);

/// Appends the spans starting inside [from_ns, to_ns) of the log to a
/// Chrome-trace tracer, shifted by `offset_ns` into the tracer's time
/// frame; spans that would start before the frame's zero are skipped.
/// Lane = `tid`; args = the group id (and `arg` under `arg_name` when
/// set).
void export_spans(const std::vector<Span>& spans, mpps::obs::Tracer& tracer,
                  std::uint32_t tid, std::int64_t offset_ns,
                  std::uint64_t from_ns, std::uint64_t to_ns,
                  const char* arg_name);

/// Writes the tracer's Chrome-trace JSON to `path`; false on I/O error.
[[nodiscard]] bool write_chrome_trace(const std::string& path,
                                      const mpps::obs::Tracer& tracer);

/// Writes the spans of the first 100 ms from the first span named
/// `first`, on one lane, as a Chrome trace.
[[nodiscard]] bool write_span_trace(const std::string& path,
                                    const SpanLog& log, const char* first,
                                    const char* process);

}  // namespace perfbench
