// `manners`: the default path of `mpps run` — a seeded Miss Manners party
// solved by `rete::Interpreter` on the serial `rete::Engine`.  One
// operation is one `Interpreter::step` (an MRA cycle); throughput is WM
// changes matched per second of solve wall time.  A step's time is its
// thread CPU time: the step runs on one thread and never blocks, so that
// is its wall time less the host's steal, which came in bursts that
// inflated the wall-time p99 of whole runs (perfbench/README.md).  Every
// solve starts from source text, so set-up (parse, compile, engine,
// initial WM) is measured on every solve.
#include "src/manners.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>

#include "src/common/rng.hpp"
#include "src/host.hpp"
#include "src/ops5/parser.hpp"
#include "src/probe.hpp"
#include "src/stats.hpp"
#include "src/workload.hpp"

namespace perfbench {

namespace ops5 = mpps::ops5;
namespace rete = mpps::rete;

namespace {

constexpr int kGuests = 256;
// Probe slices after each solve: about 5 ms beside a solve of 70-150 ms.
constexpr int kSlicesPerSolve = 2;

// The rules of examples/manners.cpp.
constexpr const char* kRules = R"(
(p seat-first-guest
  (context ^state start)
  (guest ^name <g>)
  -->
  (make seated ^name <g> ^seat 1)
  (make last ^name <g> ^seat 1)
  (modify 1 ^state assign))

(p seat-next-guest
  (context ^state assign)
  (last ^name <n1> ^seat <s>)
  (guest ^name <n1> ^sex <sx> ^hobby <h>)
  (guest ^name { <n2> <> <n1> } ^sex <> <sx> ^hobby <h>)
  -(seated ^name <n2>)
  -->
  (make seated ^name <n2> ^seat (compute <s> + 1))
  (modify 2 ^name <n2> ^seat (compute <s> + 1)))

(p everyone-seated
  (context ^state assign)
  (party ^guests <n>)
  (last ^seat <n>)
  -->
  (halt))
)";

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

MannersParty make_manners_party(int guests, std::uint64_t seed) {
  // Guests come in (sex, hobby pair) classes: sexes alternate and the six
  // pairs of hobbies 1..4 rotate, so every seed has the same class counts;
  // the seed decides which guest gets which class.
  static constexpr int kPairs[6][2] = {{1, 2}, {1, 3}, {1, 4},
                                       {2, 3}, {2, 4}, {3, 4}};
  std::vector<std::pair<char, int>> classes;
  for (int i = 0; i < guests; ++i) {
    classes.emplace_back(i % 2 == 0 ? 'm' : 'f', (i / 2) % 6);
  }
  mpps::Rng rng(seed);
  for (std::size_t i = classes.size(); i > 1; --i) {
    std::swap(classes[i - 1], classes[rng.below(i)]);
  }
  MannersParty party;
  party.guests = guests;
  party.source = kRules;
  party.source += "(make context ^state start)\n";
  party.source += "(make party ^guests " + std::to_string(guests) + ")\n";
  for (int i = 0; i < guests; ++i) {
    const auto [sex, pair] = classes[static_cast<std::size_t>(i)];
    party.sex.push_back(sex);
    party.hobbies.push_back({0, kPairs[pair][0], kPairs[pair][1]});
    for (const int h : party.hobbies.back()) {
      party.source += "(make guest ^name g" + std::to_string(i) + " ^sex " +
                      sex + " ^hobby h" + std::to_string(h) + ")\n";
    }
  }
  return party;
}

std::string check_seating(rete::Interpreter& interp,
                          const MannersParty& party) {
  if (!interp.halted()) return "the solve did not halt";
  const auto seated_class = mpps::Symbol::intern("seated");
  const auto name_attr = mpps::Symbol::intern("name");
  const auto seat_attr = mpps::Symbol::intern("seat");
  const auto n = static_cast<std::size_t>(party.guests);
  std::vector<int> guest_at(n + 1, -1);
  std::set<int> seen;
  for (const ops5::Wme* w : interp.wm().all()) {
    if (w->wme_class() != seated_class) continue;
    const std::string_view name = w->get(name_attr).as_symbol().text();
    const long seat = w->get(seat_attr).as_int();
    const int guest = std::stoi(std::string(name.substr(1)));
    if (seat < 1 || seat > party.guests ||
        guest_at[static_cast<std::size_t>(seat)] != -1 ||
        !seen.insert(guest).second) {
      return "guest " + std::string(name) + " seated twice or at a bad seat";
    }
    guest_at[static_cast<std::size_t>(seat)] = guest;
  }
  if (seen.size() != n) {
    return std::to_string(seen.size()) + " of " + std::to_string(n) +
           " guests seated";
  }
  for (std::size_t s = 1; s < n; ++s) {
    const auto a = static_cast<std::size_t>(guest_at[s]);
    const auto b = static_cast<std::size_t>(guest_at[s + 1]);
    if (party.sex[a] == party.sex[b]) {
      return "seats " + std::to_string(s) + "/" + std::to_string(s + 1) +
             " do not alternate sex";
    }
    const auto& ha = party.hobbies[a];
    const bool share = std::any_of(ha.begin(), ha.end(), [&](int h) {
      return std::find(party.hobbies[b].begin(), party.hobbies[b].end(), h) !=
             party.hobbies[b].end();
    });
    if (!share) {
      return "seats " + std::to_string(s) + "/" + std::to_string(s + 1) +
             " share no hobby";
    }
  }
  return "";
}

std::uint64_t firing_digest(const rete::Interpreter& interp) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const rete::FireRecord& f : interp.firings()) {
    h = fnv1a(h, f.production.data(), f.production.size());
    for (const mpps::WmeId w : f.wmes) {
      const std::uint64_t v = w.value();
      h = fnv1a(h, &v, sizeof v);
    }
  }
  return h;
}

ObservedEngine::ObservedEngine(const rete::Network& net,
                               const rete::EngineOptions& options,
                               MatchObserver& observer)
    : inner_(net, options), observer_(observer) {
  inner_.conflict_set().set_delta_hook(
      [this](const rete::Instantiation& inst, bool added) {
        ++(added ? observer_.cs_adds : observer_.cs_removes);
        if (observer_.record != nullptr) {
          observer_.record->push_back(
              CsOp{added ? CsOp::Kind::Add : CsOp::Kind::Remove, inst});
        }
      });
}

void ObservedEngine::process_changes(
    std::span<const ops5::WmeChange> changes) {
  const Clock::time_point start = Clock::now();
  for (const ops5::WmeChange& change : changes) inner_.process_change(change);
  if (observer_.spans != nullptr) {
    observer_.spans->add("rete.match", "rete", start, Clock::now(),
                         observer_.cycle, observer_.step_span);
  }
  observer_.changes += changes.size();
  const std::uint64_t size = inner_.conflict_set().size();
  ++observer_.cs_samples;
  observer_.cs_size_sum += size;
  observer_.cs_size_max = std::max(observer_.cs_size_max, size);
}

mpps::ProductionId last_fired_production(const rete::Interpreter& interp) {
  const std::string& name = interp.firings().back().production;
  for (const rete::ProductionNode& p : interp.network().production_nodes()) {
    if (p.name == name) return p.id;
  }
  return mpps::ProductionId{};
}

Measured run_manners(const RunConfig& config, SpanLog* spans,
                     const Measured* untraced) {
  Measured m;
  m.throughput_name = "wm_changes_per_s";
  m.throughput_unit = "changes/s";
  m.op_name = "Interpreter::step";
  const MannersParty party = make_manners_party(kGuests, config.seed);
  m.info.push_back("guests " + std::to_string(party.guests));

  // Builds one solve's interpreter from source.  With an observer the
  // engine is the observing decorator (and, with `log`, every layer call
  // gets a span); without one it is the default serial engine with every
  // sink off.
  std::uint64_t solve_id = 0;
  std::uint64_t setup_ns = 0;
  Clock::time_point factory_at{};
  const auto set_up = [&](MatchObserver* observer, SpanLog* log) {
    rete::InterpreterOptions options;
    if (observer != nullptr) {
      options.engine_factory = [&factory_at, observer](
                                   const rete::Network& net,
                                   const rete::EngineOptions& eopts)
          -> std::unique_ptr<rete::MatchEngine> {
        factory_at = Clock::now();
        return std::make_unique<ObservedEngine>(net, eopts, *observer);
      };
    }
    const Clock::time_point t0 = Clock::now();
    ops5::Program program = ops5::parse_program(party.source);
    const Clock::time_point t1 = Clock::now();
    auto interp = std::make_unique<rete::Interpreter>(std::move(program),
                                                      std::move(options));
    const Clock::time_point t2 = Clock::now();
    interp->load_initial_wmes();
    const Clock::time_point t3 = Clock::now();
    if (log != nullptr) {
      log->add("ops5.parse", "ops5", t0, t1, solve_id);
      log->add("rete.compile", "rete", t1, factory_at, solve_id);
      log->add("rete.engine_init", "rete", factory_at, t2, solve_id);
      log->add("ops5.load_wm", "ops5", t2, t3, solve_id);
    }
    setup_ns = ns_between(t0, t3);
    return interp;
  };

  // Reference solve (untimed warm-up): counts WM changes through the
  // observing engine and fixes the digest every later solve must repeat.
  MatchObserver counted;
  const std::unique_ptr<rete::Interpreter> reference =
      set_up(&counted, nullptr);
  // `load_initial_wmes` only fills working memory; the first step's match
  // drains it into the engine.  So every change counted below, the initial
  // WM included, is matched inside the timed step loop.
  if (counted.changes != 0) {
    m.fail("manners: " + std::to_string(counted.changes) +
           " WM changes were matched before the first step");
  }
  reference->run();
  if (const std::string bad = check_seating(*reference, party); !bad.empty()) {
    m.fail("manners reference solve: " + bad);
  }
  const std::uint64_t changes_per_solve = counted.changes;
  const std::uint64_t digest = firing_digest(*reference);
  const std::uint64_t activations =
      reference->match_engine().stats().left_activations +
      reference->match_engine().stats().right_activations;
  m.exact["wm_changes_per_solve"] = changes_per_solve;
  m.exact["activations_per_solve"] = activations;
  m.exact["firings_per_solve"] = reference->firings().size();
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  m.info.push_back(std::string("firing_digest ") + hex);
  m.info.push_back("wm_changes_per_solve " + std::to_string(changes_per_solve));

  HostProbe probe(ProbeWork::HashJoin);
  Window window;  // consecutive solves, closed at >= 0.5 s
  Slowdown window_slowdown;
  std::vector<CsOp> recorded;
  std::vector<rete::Instantiation> recorded_final;
  std::uint64_t cycles = 0;
  std::uint64_t traced_wall_ns = 0;
  // Traced solves share one observer; it records the first one's
  // conflict-set stream for the replay.
  MatchObserver traced;
  traced.spans = spans;
  traced.record = &recorded;
  std::vector<double> parse_ms;
  std::vector<double> compile_ms;
  std::uint64_t scanned = 0;
  std::uint64_t tokens = 0;

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  while (Clock::now() < deadline || m.windows.size() < 4) {
    ++solve_id;
    const bool record = spans != nullptr && solve_id == 1;
    const Clock::time_point solve_start = Clock::now();
    const std::unique_ptr<rete::Interpreter> solve =
        set_up(spans != nullptr ? &traced : nullptr, spans);
    rete::Interpreter& interp = *solve;
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    for (bool more = true; more;) {
      ++m.attempted;
      ++cycles;
      std::uint32_t step_span = kNoParent;
      if (spans != nullptr) {
        step_span = spans->open("rete.step", "rete", cycles);
        traced.step_span = step_span;
        traced.cycle = cycles;
      }
      const std::size_t fired_before = interp.firings().size();
      const std::uint64_t s0 = thread_cpu_ns();
      more = interp.step();
      const std::uint64_t s1 = thread_cpu_ns();
      if (spans != nullptr) {
        spans->close(step_span);
        if (record) {
          CsOp select{CsOp::Kind::Select, {}, false};
          if (interp.firings().size() > fired_before) {
            select.inst = {last_fired_production(interp),
                           rete::Token{interp.firings().back().wmes}};
            select.fired = true;
          }
          recorded.push_back(std::move(select));
        }
      }
      push_us(window.op_us, s1 - s0);
    }
    const Clock::time_point t1 = Clock::now();
    window.cpu_s += process_cpu_s() - cpu0;
    window.wall_s += static_cast<double>(ns_between(t0, t1)) / 1e9;
    window.work += static_cast<double>(changes_per_solve);
    if (spans != nullptr) traced_wall_ns += ns_between(solve_start, t1);
    Slowdown solve_slowdown;
    for (int i = 0; i < kSlicesPerSolve; ++i) {
      const double slice = probe.slowdown();
      solve_slowdown.add(slice);
      window_slowdown.add(slice);
    }
    m.setup_s.push_back(static_cast<double>(setup_ns) / 1e9 /
                        solve_slowdown.value());

    // Output checks, outside the timed region.
    if (const std::string bad = check_seating(interp, party); !bad.empty()) {
      m.fail("manners solve " + std::to_string(solve_id) + ": " + bad);
    } else if (firing_digest(interp) != digest) {
      m.fail("manners solve " + std::to_string(solve_id) +
             ": firing digest differs from the reference solve");
    }
    const rete::EngineStats& st = interp.match_engine().stats();
    if (st.left_activations + st.right_activations != activations) {
      m.fail("manners solve " + std::to_string(solve_id) +
             ": activation count differs from the reference solve");
    }
    if (spans != nullptr) {
      const auto& inner =
          static_cast<ObservedEngine&>(interp.match_engine()).inner();
      scanned += inner.left_memory().entries_scanned() +
                 inner.right_memory().entries_scanned();
      tokens += st.tokens_generated;
      if (record) {
        recorded_final = interp.match_engine().conflict_set().all();
        traced.record = nullptr;
      }
    }
    if (window.wall_s >= 0.5) {
      window.slowdown = window_slowdown.value();
      m.windows.push_back(summarize(window));
      window = Window{};
      window_slowdown = Slowdown{};
    }
  }

  if (spans == nullptr) return m;

  // --- per-layer metrics of the traced run ---
  const std::vector<Span>& log = spans->spans();
  for (const Span& s : log) {
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    if (std::strcmp(s.name, "ops5.parse") == 0) parse_ms.push_back(ms);
    if (std::strcmp(s.name, "rete.compile") == 0) compile_ms.push_back(ms);
  }
  const auto self = self_time_by_name(log);
  const auto per_cycle_us = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0
                            : static_cast<double>(it->second) / 1e3 /
                                  static_cast<double>(cycles);
  };
  const auto solves = static_cast<double>(m.setup_s.size());
  const double acts = static_cast<double>(activations) * solves;
  const double changes = static_cast<double>(traced.changes);
  auto& L = m.layers;
  L["ops5.parse_ms"] = median(parse_ms);
  L["rete.compile_ms"] = median(compile_ms);
  L["rete.match_us_per_cycle"] = per_cycle_us("rete.match");
  L["rete.resolve_act_us_per_cycle"] = per_cycle_us("rete.step");
  L["rete.activations_per_change"] = acts / changes;
  L["rete.tokens_per_change"] = static_cast<double>(tokens) / changes;
  L["rete.scanned_per_activation"] = static_cast<double>(scanned) / acts;
  L["rete.cs_size_mean"] = static_cast<double>(traced.cs_size_sum) /
                           static_cast<double>(traced.cs_samples);
  L["rete.cs_size_max"] = static_cast<double>(traced.cs_size_max);
  L["rete.cs_deltas_per_cycle"] =
      static_cast<double>(traced.cs_adds + traced.cs_removes) /
      static_cast<double>(cycles);
  L["rete.cs_fired_share"] =
      static_cast<double>(m.exact["firings_per_solve"]) * solves /
      static_cast<double>(traced.cs_adds);
  L["obs.unattributed_pct"] =
      100.0 *
      static_cast<double>(traced_wall_ns -
                          std::min(traced_wall_ns, covered_ns(log))) /
      static_cast<double>(traced_wall_ns);

  // Conflict-set cost by replaying the first traced solve's stream.
  const rete::Network& net = reference->network();
  const auto specificity = [&net](mpps::ProductionId pid) {
    return net.production(pid).specificity();
  };
  const ReplayCosts cs =
      replay_costs(recorded, specificity, rete::Strategy::Lex, 15);
  if (cs.first.select_mismatches != 0 || cs.first.failed_removes != 0 ||
      !same_instantiations(cs.first.final_set, recorded_final)) {
    m.fail("manners: conflict-set replay diverged from the engine");
  }
  L["rete.cs_add_ns"] = cs.add_ns;
  L["rete.cs_remove_ns"] = cs.remove_ns;
  L["rete.cs_select_ns"] = cs.select_ns;
  if (untraced != nullptr) {
    // Replay time of one solve over the untraced solve wall time, both as
    // measured.
    const double solve_wall_ns = static_cast<double>(changes_per_solve) /
                                 untraced->measured().work_per_s * 1e9;
    L["rete.cs_share_pct"] = 100.0 * cs.total_ns / solve_wall_ns;
  }
  if (!config.chrome_trace.empty() &&
      !write_span_trace(config.chrome_trace, *spans, "rete.step",
                        "perfbench manners")) {
    m.fail("manners: cannot write " + config.chrome_trace);
  }
  return m;
}

}  // namespace perfbench
