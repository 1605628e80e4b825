#include "src/spans.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "src/common/simtime.hpp"
#include "src/obs/tracer.hpp"

namespace perfbench {

namespace {

using Interval = std::pair<std::uint64_t, std::uint64_t>;

/// Total length of the union of `intervals` (sorted in place).
std::uint64_t union_length(std::vector<Interval>& intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t total = 0;
  std::uint64_t cur_start = 0;
  std::uint64_t cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (!open || start > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    const Span& p = spans.at(s.parent);
    const std::uint64_t start = std::max(s.start_ns, p.start_ns);
    const std::uint64_t end = std::min(s.end_ns, p.end_ns);
    if (end > start) children[s.parent].emplace_back(start, end);
  }
  std::vector<std::uint64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    out[i] = dur - std::min(dur, union_length(children[i]));
  }
  return out;
}

std::map<std::string, std::uint64_t> self_time_by_name(
    const std::vector<Span>& spans) {
  const std::vector<std::uint64_t> self = self_times(spans);
  std::map<std::string, std::uint64_t> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

std::uint64_t covered_ns(const std::vector<Span>& spans) {
  std::vector<Interval> roots;
  for (const Span& s : spans) {
    if (s.parent == kNoParent) roots.emplace_back(s.start_ns, s.end_ns);
  }
  return union_length(roots);
}

void export_spans(const std::vector<Span>& spans, mpps::obs::Tracer& tracer,
                  std::uint32_t tid, std::int64_t offset_ns,
                  std::uint64_t from_ns, std::uint64_t to_ns,
                  const char* arg_name) {
  for (const Span& s : spans) {
    if (s.start_ns < from_ns || s.start_ns >= to_ns) continue;
    const std::int64_t ts = static_cast<std::int64_t>(s.start_ns) + offset_ns;
    if (ts < 0) continue;
    std::vector<std::pair<const char*, std::int64_t>> args{
        {"id", static_cast<std::int64_t>(s.group)}};
    if (s.arg >= 0) args.emplace_back(arg_name, s.arg);
    tracer.span(s.name, s.layer, tid, mpps::SimTime::ns(ts),
                mpps::SimTime::ns(static_cast<std::int64_t>(s.end_ns) -
                                  static_cast<std::int64_t>(s.start_ns)),
                std::move(args));
  }
}

bool write_chrome_trace(const std::string& path,
                        const mpps::obs::Tracer& tracer) {
  std::ofstream out(path);
  tracer.write_chrome_json(out);
  return static_cast<bool>(out);
}

bool write_span_trace(const std::string& path, const SpanLog& log,
                      const char* first, const char* process) {
  std::uint64_t from = 0;
  for (const Span& s : log.spans()) {
    if (std::string_view(s.name) == first) {
      from = s.start_ns;
      break;
    }
  }
  mpps::obs::Tracer tracer;
  tracer.set_process_name(process);
  tracer.set_thread_name(1, "benchmark spans");
  export_spans(log.spans(), tracer, 1, 0, from, from + 100'000'000, "arg");
  return write_chrome_trace(path, tracer);
}

}  // namespace perfbench
