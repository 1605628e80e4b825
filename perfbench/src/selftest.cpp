// Tests of the benchmark's own arithmetic: order statistics, the host
// slowdown scaling, span self time, and the conflict-set replay.  Exits
// non-zero on any failure.
#include <cmath>
#include <iostream>
#include <string>

#include "src/manners.hpp"
#include "src/ops5/parser.hpp"
#include "src/probe.hpp"
#include "src/replay.hpp"
#include "src/spans.hpp"
#include "src/stats.hpp"

namespace {

using namespace perfbench;

int checks = 0;
int failures = 0;

void check(bool ok, const std::string& what) {
  ++checks;
  if (!ok) {
    ++failures;
    std::cerr << "selftest FAILED: " << what << "\n";
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-9 * std::abs(b); }

void order_statistics() {
  // Nearest rank: the ceil(q * n)-th smallest.
  const std::vector<double> four{4, 1, 3, 2};
  check(order_stat(four, 0.5) == 2, "p50 of {1,2,3,4} is 2");
  check(order_stat(four, 0.75) == 3, "p75 of {1,2,3,4} is 3");
  check(order_stat(four, 0.76) == 4, "p76 of {1,2,3,4} is 4");
  check(order_stat(four, 0.0) == 1, "p0 is the minimum");
  check(order_stat(four, 1.0) == 4, "p100 is the maximum");
  check(median({7}) == 7, "median of one sample");
  check(median({5, 9, 1}) == 5, "median of three samples");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  check(order_stat(hundred, 0.99) == 99, "p99 of 1..100 is 99");
  check(order_stat(hundred, 0.5) == 50, "p50 of 1..100 is 50");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  check(order_stat(thousand, 0.99) == 990, "p99 of 1..1000 is 990");
  bool threw = false;
  try {
    (void)order_stat({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "empty sample set throws");
}

void windowed_figures() {
  // Window i (1..4): rate 10i/s, ops {i, 2i, 3i, 4i} us, 1000i us CPU.
  std::vector<WindowSummary> windows;
  for (int i = 1; i <= 4; ++i) {
    const double d = i;
    windows.push_back(
        summarize({1.0, 10 * d, 0.001 * d, {d, 2 * d, 3 * d, 4 * d}}));
  }
  check(windows[2].work_per_s == 30 && windows[2].op_p50_us == 6 &&
            windows[2].op_p99_us == 12 && windows[2].ops == 4,
        "window summary");
  const WindowSummary f = window_medians(windows);
  check(f.work_per_s == 20, "run rate is the median of {10,20,30,40}");
  check(f.op_p50_us == 4, "run p50 is the median of the window p50s");
  check(f.op_p99_us == 8, "run p99 is the median of the window p99s");
  check(f.cpu_us_per_op > 499.999 && f.cpu_us_per_op < 500.001,
        "run CPU per op is the median of {250,500,750,1000}");
  check(f.ops == 16, "ops summed over windows");

  // Slices at 1.5 and 2.5 times their nominal time: slowdown 2.  The
  // window's durations halve and its rate doubles.
  Slowdown slow;
  check(slow.value() == 1.0, "no slice: slowdown 1");
  slow.add(1.5);
  slow.add(2.5);
  check(slow.value() == 2, "slowdown = mean slice slowdown");
  Window slowed{1.0, 10, 0.004, {2, 4, 6, 8}};
  slowed.slowdown = 2;
  const WindowSummary s = summarize(slowed);
  check(s.work_per_s == 20 && s.op_p50_us == 2 && s.op_p99_us == 4 &&
            near(s.cpu_us_per_op, 500) && s.slowdown == 2,
        "a slowed window reads at the nominal host speed");
  const WindowSummary r = as_measured(s);
  check(r.work_per_s == 10 && r.op_p50_us == 4 && r.op_p99_us == 8 &&
            near(r.cpu_us_per_op, 1000) && r.slowdown == 1,
        "as_measured undoes the scaling");
  windows[0].slowdown = 3;
  check(window_medians(windows).slowdown == 1, "run slowdown is the median");
}

void probe_slices() {
  for (const ProbeWork work :
       {ProbeWork::HashJoin, ProbeWork::Sort, ProbeWork::HandOff}) {
    HostProbe probe(work);
    const double first = probe.slowdown();
    const double second = probe.slowdown();
    check(first > 0 && second > 0 && std::isfinite(first + second),
          "every probe kind runs its slice repeatedly and times it");
  }
}

void self_time() {
  // root [0,100) with children [10,30) and [20,50) (overlapping: union
  // 40) and a grandchild [12,18) inside the first child.
  std::vector<Span> spans(4);
  spans[0] = {"root", "t", 0, 100, kNoParent, 1};
  spans[1] = {"a", "t", 10, 30, 0, 1};
  spans[2] = {"b", "t", 20, 50, 0, 1};
  spans[3] = {"c", "t", 12, 18, 1, 1};
  const std::vector<std::uint64_t> self = self_times(spans);
  check(self[0] == 60, "root self = 100 - |[10,50)|");
  check(self[1] == 14, "child a self = 20 - 6");
  check(self[2] == 30, "child b has no children");
  check(self[3] == 6, "leaf self = its duration");
  // A child sticking out of its parent is clipped to the parent.
  std::vector<Span> clipped(2);
  clipped[0] = {"p", "t", 100, 200, kNoParent, 1};
  clipped[1] = {"q", "t", 150, 260, 0, 1};
  check(self_times(clipped)[0] == 50, "child clipped to parent");
  // Disjoint roots plus an overlapping pair cover their union only.
  std::vector<Span> roots(3);
  roots[0] = {"x", "t", 0, 10, kNoParent, 1};
  roots[1] = {"y", "t", 5, 20, kNoParent, 2};
  roots[2] = {"z", "t", 30, 40, kNoParent, 3};
  check(covered_ns(roots) == 30, "covered = |[0,20) u [30,40)|");
  const auto by_name = self_time_by_name(spans);
  check(by_name.at("root") == 60 && by_name.at("c") == 6, "self by name");
}

void conflict_set_replay() {
  // Record a small Manners solve through the observing engine, replay it
  // into a fresh conflict set, and compare the final sets.
  const MannersParty party = make_manners_party(16, 7);
  MatchObserver observer;
  std::vector<CsOp> recorded;
  observer.record = &recorded;
  mpps::rete::InterpreterOptions options;
  options.engine_factory = [&](const mpps::rete::Network& net,
                               const mpps::rete::EngineOptions& eopts)
      -> std::unique_ptr<mpps::rete::MatchEngine> {
    return std::make_unique<ObservedEngine>(net, eopts, observer);
  };
  mpps::rete::Interpreter interp(mpps::ops5::parse_program(party.source),
                                 options);
  interp.load_initial_wmes();
  check(observer.changes == 0,
        "loading the initial WM matches nothing; the first step matches it");
  for (bool more = true; more;) {
    const std::size_t before = interp.firings().size();
    more = interp.step();
    CsOp select{CsOp::Kind::Select, {}, false};
    if (interp.firings().size() > before) {
      select.inst = {last_fired_production(interp),
                     mpps::rete::Token{interp.firings().back().wmes}};
      select.fired = true;
    }
    recorded.push_back(std::move(select));
  }
  check(check_seating(interp, party).empty(), "16-guest party is seated");
  const mpps::rete::Network& net = interp.network();
  const ReplayResult r = replay_conflict_set(
      recorded,
      [&net](mpps::ProductionId pid) {
        return net.production(pid).specificity();
      },
      mpps::rete::Strategy::Lex);
  check(r.adds == observer.cs_adds && r.removes == observer.cs_removes,
        "replay applies every recorded delta");
  check(r.selects == interp.cycle(), "one select per cycle");
  check(r.select_mismatches == 0, "replay selects what the engine fired");
  check(r.failed_removes == 0, "every replayed remove finds its entry");
  const auto engine_set = interp.match_engine().conflict_set().all();
  check(!engine_set.empty(), "the final conflict set is not empty");
  check(same_instantiations(r.final_set, engine_set),
        "replay ends in the engine's final conflict set");
  // The comparison is as sets: order does not matter, content does.
  auto shuffled = engine_set;
  std::swap(shuffled.front(), shuffled.back());
  check(same_instantiations(shuffled, engine_set), "set comparison");
  shuffled.pop_back();
  check(!same_instantiations(shuffled, engine_set), "a missing entry differs");
}

}  // namespace

int main() {
  order_statistics();
  windowed_figures();
  probe_slices();
  self_time();
  conflict_set_replay();
  std::cout << "selftest: " << checks << " checks, " << failures
            << " failed\n";
  return failures == 0 ? 0 : 1;
}
