#include "src/obs/profiler.hpp"

#include <algorithm>
#include <iomanip>

#include "src/common/error.hpp"
#include "src/common/simtime.hpp"
#include "src/common/table.hpp"
#include "src/obs/tracer.hpp"

namespace mpps::obs {

const char* prof_category_name(ProfCategory category) {
  switch (category) {
    case ProfCategory::Match:
      return "match";
    case ProfCategory::MailboxEnqueue:
      return "mailbox_enqueue";
    case ProfCategory::MailboxDequeue:
      return "mailbox_dequeue";
    case ProfCategory::BarrierWait:
      return "barrier_wait";
    case ProfCategory::RoundMerge:
      return "round_merge";
    case ProfCategory::ConflictUpdate:
      return "conflict_update";
  }
  return "unknown";
}

double safe_pct(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return 0.0;
  const double pct =
      100.0 * static_cast<double>(part) / static_cast<double>(whole);
  return std::clamp(pct, 0.0, 100.0);
}

double ProfileReport::conflict_update_pct() const {
  return safe_pct(conflict_update_ns, engine_wall_ns);
}

double ProfileReport::Worker::attributed_pct() const {
  if (wall_ns == 0) return 100.0;
  return 100.0 *
         static_cast<double>(wall_ns - std::min(unattributed_ns, wall_ns)) /
         static_cast<double>(wall_ns);
}

double ProfileReport::min_attributed_pct() const {
  double min_pct = 100.0;
  for (const Worker& w : workers) {
    min_pct = std::min(min_pct, w.attributed_pct());
  }
  return min_pct;
}

void Profiler::attach(std::uint32_t workers, std::uint32_t num_buckets) {
  if (attached()) {
    throw RuntimeError(
        "Profiler: already attached (one profiler profiles one engine)");
  }
  if (workers == 0) throw RuntimeError("Profiler: zero workers");
  epoch_ = ProfLane::Clock::now();
  lanes_.reserve(workers + 1);
  for (std::uint32_t i = 0; i < workers; ++i) {
    lanes_.emplace_back(new ProfLane(epoch_, num_buckets));
  }
  lanes_.emplace_back(new ProfLane(epoch_, 0));  // control: no buckets
}

ProfLane* Profiler::lane(std::uint32_t worker) {
  if (worker + 1 >= lanes_.size()) {
    throw RuntimeError("Profiler: lane " + std::to_string(worker) +
                       " out of range (attach first)");
  }
  return lanes_[worker].get();
}

ProfLane* Profiler::control_lane() {
  if (lanes_.empty()) throw RuntimeError("Profiler: not attached");
  return lanes_.back().get();
}

ProfileReport Profiler::report(std::size_t top_k_buckets) const {
  ProfileReport report;
  report.phases = phases_;
  report.rounds = rounds_;
  report.changes = changes_;
  if (lanes_.empty()) return report;

  const std::size_t n_workers = lanes_.size() - 1;
  report.workers.resize(n_workers);
  std::uint64_t total_activations = 0;
  for (std::size_t w = 0; w < n_workers; ++w) {
    const ProfLane& lane = *lanes_[w];
    ProfileReport::Worker& out = report.workers[w];
    for (std::uint64_t dur : lane.phase_durs()) out.wall_ns += dur;
    for (const ProfSpan& span : lane.spans()) {
      const auto cat = static_cast<std::size_t>(span.category);
      if (span.category == ProfCategory::Match) {
        // `aux` is the time spent inside cross-worker pushes,
        // nested in the match loop; re-attribute it so categories are
        // disjoint.
        const std::uint64_t enqueue = std::min(span.aux, span.dur_ns);
        out.category_ns[cat] += span.dur_ns - enqueue;
        out.category_ns[static_cast<std::size_t>(
            ProfCategory::MailboxEnqueue)] += enqueue;
      } else {
        out.category_ns[cat] += span.dur_ns;
      }
      if (span.category == ProfCategory::RoundMerge) {
        ++report.merge_rounds;
        report.merged_items += span.aux;
        report.max_merge_items = std::max(report.max_merge_items, span.aux);
      }
    }
    std::uint64_t attributed = 0;
    for (std::uint64_t ns : out.category_ns) attributed += ns;
    out.unattributed_ns =
        out.wall_ns > attributed ? out.wall_ns - attributed : 0;
    for (const ProfBucketLoad& b : lane.buckets()) {
      out.activations += b.activations;
    }
    total_activations += out.activations;
    for (std::size_t c = 0; c < kProfCategories; ++c) {
      report.total_ns[c] += out.category_ns[c];
    }
    report.total_wall_ns += out.wall_ns;
    report.total_unattributed_ns += out.unattributed_ns;
  }

  // Control lane: conflict-set merge time (runs while workers are parked,
  // so it is engine time on top of the worker walls, not inside them).
  // Its phase spans cover each whole BSP phase (phase start → merge end)
  // and sum to the engine wall — the only denominator the merge time may
  // be expressed as a percentage of.
  for (const ProfSpan& span : lanes_.back()->spans()) {
    report.total_ns[static_cast<std::size_t>(span.category)] += span.dur_ns;
    if (span.category == ProfCategory::ConflictUpdate) {
      report.conflict_update_ns += span.dur_ns;
    }
  }
  for (std::uint64_t dur : lanes_.back()->phase_durs()) {
    report.engine_wall_ns += dur;
  }

  // Measured match skew: max/mean of per-worker match-compute time.
  double match_sum = 0.0;
  double match_max = 0.0;
  for (const ProfileReport::Worker& w : report.workers) {
    const auto match = static_cast<double>(
        w.category_ns[static_cast<std::size_t>(ProfCategory::Match)]);
    match_sum += match;
    match_max = std::max(match_max, match);
  }
  const double match_mean =
      match_sum / static_cast<double>(n_workers == 0 ? 1 : n_workers);
  report.match_skew = match_mean > 0.0 ? match_max / match_mean : 1.0;

  // Hot buckets across all worker lanes (bucket ownership is per-worker,
  // so every bucket appears in exactly one lane).
  std::vector<ProfileReport::HotBucket> loads;
  for (std::size_t w = 0; w < n_workers; ++w) {
    const auto& buckets = lanes_[w]->buckets();
    for (std::uint32_t b = 0; b < buckets.size(); ++b) {
      if (buckets[b].activations == 0) continue;
      ProfileReport::HotBucket hot;
      hot.bucket = b;
      hot.worker = static_cast<std::uint32_t>(w);
      hot.activations = buckets[b].activations;
      hot.tokens_touched = buckets[b].tokens_touched;
      hot.share_pct =
          total_activations == 0
              ? 0.0
              : 100.0 * static_cast<double>(buckets[b].activations) /
                    static_cast<double>(total_activations);
      loads.push_back(hot);
    }
  }
  std::sort(loads.begin(), loads.end(),
            [](const ProfileReport::HotBucket& a,
               const ProfileReport::HotBucket& b) {
              if (a.activations != b.activations) {
                return a.activations > b.activations;
              }
              return a.bucket < b.bucket;
            });
  if (loads.size() > top_k_buckets) loads.resize(top_k_buckets);
  report.hot_buckets = std::move(loads);
  return report;
}

void Profiler::export_chrome_trace(Tracer& tracer,
                                   std::uint32_t tid_base) const {
  if (lanes_.empty()) return;
  const std::size_t n_workers = lanes_.size() - 1;
  tracer.set_thread_name(tid_base, "measured control");
  for (std::size_t w = 0; w < n_workers; ++w) {
    tracer.set_thread_name(tid_base + 1 + static_cast<std::uint32_t>(w),
                           "measured worker " + std::to_string(w));
  }
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    const ProfLane& lane = *lanes_[l];
    const std::uint32_t tid =
        l == n_workers ? tid_base
                       : tid_base + 1 + static_cast<std::uint32_t>(l);
    const auto& starts = lane.phase_starts();
    const auto& durs = lane.phase_durs();
    for (std::size_t p = 0; p < starts.size(); ++p) {
      tracer.span("phase", "measured", tid,
                  SimTime::ns(static_cast<std::int64_t>(starts[p])),
                  SimTime::ns(static_cast<std::int64_t>(durs[p])),
                  {{"phase", static_cast<std::int64_t>(p)}});
    }
    for (const ProfSpan& span : lane.spans()) {
      tracer.span(prof_category_name(span.category), "measured", tid,
                  SimTime::ns(static_cast<std::int64_t>(span.start_ns)),
                  SimTime::ns(static_cast<std::int64_t>(span.dur_ns)),
                  {{"round", static_cast<std::int64_t>(span.round)},
                   {"aux", static_cast<std::int64_t>(span.aux)}});
    }
  }
}

void print_profile_report(std::ostream& os, const ProfileReport& report) {
  print_banner(os, "wall-clock phase attribution (measured, Table 5-1 style)");
  os << report.workers.size() << " workers, " << report.phases
     << " BSP phases covering " << report.changes << " WM changes, "
     << report.rounds << " BSP rounds (" << std::fixed
     << std::setprecision(2) << report.rounds_per_change()
     << std::defaultfloat << " rounds per change)\n";

  TextTable table({"worker", "wall ms", "match %", "enqueue %", "dequeue %",
                   "barrier %", "merge %", "unattr %", "activations"});
  const auto cat = [](const ProfileReport::Worker& w, ProfCategory c) {
    return w.category_ns[static_cast<std::size_t>(c)];
  };
  for (std::size_t i = 0; i < report.workers.size(); ++i) {
    const ProfileReport::Worker& w = report.workers[i];
    table.row()
        .cell(static_cast<unsigned long>(i))
        .cell(static_cast<double>(w.wall_ns) / 1e6, 3)
        .cell(safe_pct(cat(w, ProfCategory::Match), w.wall_ns), 1)
        .cell(safe_pct(cat(w, ProfCategory::MailboxEnqueue), w.wall_ns), 1)
        .cell(safe_pct(cat(w, ProfCategory::MailboxDequeue), w.wall_ns), 1)
        .cell(safe_pct(cat(w, ProfCategory::BarrierWait), w.wall_ns), 1)
        .cell(safe_pct(cat(w, ProfCategory::RoundMerge), w.wall_ns), 1)
        .cell(safe_pct(w.unattributed_ns, w.wall_ns), 1)
        .cell(static_cast<unsigned long>(w.activations));
  }
  table.print(os);

  os << "attributed: " << std::fixed << std::setprecision(1)
     << report.min_attributed_pct()
     << " % of worker wall time (worst worker); measured match skew "
     << std::setprecision(2) << report.match_skew
     << " (max/mean worker match time)\n";
  os << "conflict-set update (control thread): " << std::setprecision(3)
     << static_cast<double>(report.conflict_update_ns) / 1e6 << " ms across "
     << std::defaultfloat << report.phases << " phases";
  if (report.engine_wall_ns > 0) {
    os << " (" << std::fixed << std::setprecision(1)
       << report.conflict_update_pct() << std::defaultfloat
       << " % of engine wall)";
  }
  os << "\n";
  os << "round merges: " << report.merge_rounds << " rounds, "
     << report.merged_items << " items merged, largest round "
     << report.max_merge_items << " items\n";

  if (!report.hot_buckets.empty()) {
    print_banner(os, "hottest buckets (measured load accounting)");
    TextTable hot(
        {"bucket", "worker", "activations", "tokens touched", "share %"});
    for (const ProfileReport::HotBucket& b : report.hot_buckets) {
      hot.row()
          .cell(static_cast<unsigned long>(b.bucket))
          .cell(static_cast<unsigned long>(b.worker))
          .cell(static_cast<unsigned long>(b.activations))
          .cell(static_cast<unsigned long>(b.tokens_touched))
          .cell(b.share_pct, 1);
    }
    hot.print(os);
  }
}

}  // namespace mpps::obs
