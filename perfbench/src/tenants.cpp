// `tenants`: the path of `mpps serve`.  One `ServeEngine` (2 match
// threads, admission batch 16) serves 32 sessions driven by one generator
// thread in a closed loop with one outstanding transaction per session;
// the generator awaits futures in submission order, because the admission
// queue is FIFO.
//
// Each session installs 16 slots x 2 `item`s and 8 `tag`s.  A transaction
// adds one `trigger` at a seeded slot and, once 8 triggers are live, also
// retracts the session's oldest.  Every production has two joins,
//   (trigger ^slot s ^g <g>) (item ^slot s ^g <g> ^v <v>) (tag ^v <v>)
// so each fused phase runs at least two BSP rounds with mailbox traffic
// between the workers, and each trigger add fires exactly 2 instantiations.
//
// Each epoch runs on one CPU: the generator pins itself before it starts
// the epoch's engine, whose threads inherit the pin.  On a shared virtual
// machine a thread woken on an idle vCPU waits for the host to schedule
// that vCPU, and that wait follows the other tenants' load; pinned, every
// hand-off between the client, the dispatcher and the two workers is a
// local context switch, so the figures follow the serving path's own work
// and hand-offs.  Epochs rotate over the CPUs the process may use,
// because at any moment some vCPUs run the same code up to a third slower
// than others (their host cores are busier), and the rotation averages
// that over the run.
//
// The run is a sequence of epochs.  Each starts a fresh engine (that
// set-up is timed), opens the 32 sessions of one of 8 seeded script sets,
// serves 5 000 transactions, checks the engine's final conflict set, and
// shuts the engine down; epochs cycle through the script sets until the
// timed loops have taken `--seconds`.  An engine's resident memory grows
// with the transactions it has served, by an amount that depends on the
// scripts (pmatch work items pile up in the pool of the worker that
// receives more cross-worker traffic than it sends; with one match thread
// nothing grows).  One engine for the whole run would make `peak_rss_mb`
// follow the run's throughput; short epochs over 8 script sets make it
// the largest of 8 bounded growths.
//
// The timed loop is cut into windows of 1 000 transactions; throughput,
// latency quantiles and CPU per transaction are each the median over the
// windows (stats.hpp).
#include <array>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "src/common/rng.hpp"
#include "src/host.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/tracer.hpp"
#include "src/ops5/parser.hpp"
#include "src/probe.hpp"
#include "src/replay.hpp"
#include "src/rete/engine.hpp"
#include "src/serve/serve.hpp"
#include "src/spans.hpp"
#include "src/stats.hpp"
#include "src/workload.hpp"

namespace perfbench {

namespace obs = mpps::obs;
namespace ops5 = mpps::ops5;
namespace rete = mpps::rete;
namespace serve = mpps::serve;
using mpps::Symbol;
using mpps::WmeId;

namespace {

constexpr std::uint32_t kSessions = 32;
constexpr int kSlots = 16;
constexpr int kItemsPerSlot = 2;
constexpr long kTags = 8;
constexpr long kGroups = 4;  // distinct ^g values per session
constexpr std::size_t kWindow = 8;  // live triggers per session
constexpr std::uint32_t kMatchThreads = 2;
constexpr std::uint32_t kAdmissionBatch = 16;
constexpr std::size_t kWindowTx = 1000;
constexpr int kWindowsPerEpoch = 5;
constexpr int kMinEpochs = 2;
constexpr std::size_t kScriptSets = 8;  // epoch e serves set e % kScriptSets
// Probe slices just before and just after each epoch's timed loop, while
// the engine is idle: about 10 ms beside a loop of 70-250 ms.
constexpr int kSlicesPerEnd = 2;

std::string program_source() {
  std::string src;
  for (int s = 0; s < kSlots; ++s) {
    const std::string slot = std::to_string(s);
    src += "(p match" + slot + " (trigger ^slot " + slot +
           " ^g <g>) (item ^slot " + slot +
           " ^g <g> ^v <v>) (tag ^v <v>) --> (halt))\n";
  }
  return src;
}

ops5::Wme make_wme(const char* cls,
                   std::initializer_list<std::pair<const char*, long>> attrs) {
  std::vector<std::pair<Symbol, ops5::Value>> slots;
  for (const auto& [attr, v] : attrs) {
    slots.emplace_back(Symbol::intern(attr), ops5::Value{v});
  }
  return ops5::Wme(Symbol::intern(cls), std::move(slots));
}

/// One session's seeded transaction stream.  The client draws its
/// transactions from it during the run, and the serial oracle replays a
/// fresh copy afterwards, so the oracle is fed the same transactions
/// without the run keeping a log that grows with throughput.
class SessionScript {
 public:
  explicit SessionScript(std::uint64_t seed) : rng_(seed) {
    for (int s = 0; s < kSlots; ++s) {
      group_[static_cast<std::size_t>(s)] =
          static_cast<long>(rng_.below(kGroups));
      for (int i = 0; i < kItemsPerSlot; ++i) {
        working_set_.push_back(
            make_wme("item", {{"slot", s},
                              {"g", group_[static_cast<std::size_t>(s)]},
                              {"v", static_cast<long>(rng_.below(kTags))}}));
      }
    }
    for (long v = 0; v < kTags; ++v) {
      working_set_.push_back(make_wme("tag", {{"v", v}}));
    }
    // The engine numbers a session's adds 1, 2, ... in submission order.
    next_local_ = working_set_.size() + 1;
  }

  /// Items then tags; they get local ids 1..size().
  [[nodiscard]] const std::vector<ops5::Wme>& working_set() const {
    return working_set_;
  }

  struct Tx {
    std::uint64_t retract = 0;  // local id of the retracted trigger, or 0
    ops5::Wme trigger;
    std::uint64_t local = 0;  // the id the engine gives the trigger
  };

  /// The session's next transaction.
  Tx next() {
    Tx tx;
    const auto slot = static_cast<int>(rng_.below(kSlots));
    tx.trigger = make_wme(
        "trigger",
        {{"slot", slot}, {"g", group_[static_cast<std::size_t>(slot)]}});
    if (live_.size() >= kWindow) {
      tx.retract = live_.front();
      live_.pop_front();
    }
    tx.local = next_local_++;
    live_.push_back(tx.local);
    return tx;
  }

 private:
  mpps::Rng rng_;
  std::array<long, kSlots> group_{};  // the ^g of each slot's items
  std::vector<ops5::Wme> working_set_;
  std::deque<std::uint64_t> live_;  // live trigger ids, oldest first
  std::uint64_t next_local_ = 1;
};

struct Client {
  serve::Session session;
  std::uint64_t seed = 0;
  SessionScript script{0};
  std::uint64_t transactions = 0;  // drawn from the script and submitted
  /// Traced runs: the instantiations each live trigger fired, oldest
  /// first, to rebuild the conflict-set stream for the replay.
  std::deque<std::vector<rete::Instantiation>> live_fired;
};

struct Inflight {
  std::size_t client = 0;
  std::future<serve::TxResult> future;
  Clock::time_point submitted;
  SessionScript::Tx tx;
};

/// One engine with its sessions installed.  Members are destroyed in
/// reverse order, so the engine goes before the sinks it writes into;
/// `reset` keeps that order.
struct Server {
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<obs::Profiler> profiler;
  std::unique_ptr<serve::ServeEngine> engine;
  std::vector<Client> clients;

  void reset() {
    clients.clear();
    engine.reset();
    profiler.reset();
    registry.reset();
  }
};

struct TxTrace {
  std::uint64_t phase = 0;
  std::uint64_t latency_ns = 0;  // engine: enqueue -> completion
  std::uint64_t client_ns = 0;   // generator: submit -> get() returned
};

using Counters = std::map<std::string, std::uint64_t>;

/// The registry counters the per-layer metrics read.
Counters read_counters(obs::Registry& reg) {
  const auto counter = [&reg](const char* name,
                              const obs::Labels& labels = {}) {
    return reg.counter(name, labels).value();
  };
  Counters out;
  out["messages"] = counter("pmatch.messages");
  out["local"] = counter("pmatch.local_deliveries");
  out["left"] = counter("rete.activations", {{"side", "left"}});
  out["right"] = counter("rete.activations", {{"side", "right"}});
  out["tokens"] = counter("rete.tokens_generated");
  out["comparisons"] = counter("rete.comparisons");
  out["busy"] = out["idle"] = 0;
  for (std::uint32_t w = 0; w < kMatchThreads; ++w) {
    const obs::Labels worker{{"worker", std::to_string(w)}};
    out["busy"] += counter("pmatch.worker_busy_ns", worker);
    out["idle"] += counter("pmatch.worker_idle_ns", worker);
  }
  return out;
}

/// A traced run's per-layer readings, summed over its epochs.
struct LayerSums {
  Counters counters;  // registry deltas over the timed loops
  std::array<std::uint64_t, obs::kProfCategories> prof_ns{};
  std::uint64_t worker_wall_ns = 0;
  std::uint64_t engine_wall_ns = 0;
  std::uint64_t conflict_update_ns = 0;
  std::uint64_t prof_phases = 0;
  std::uint64_t rounds = 0;
  std::array<std::uint64_t, kMatchThreads> worker_match_ns{};
  std::uint64_t serve_tx = 0;  // ServeStats deltas over the timed loops
  std::uint64_t serve_phases = 0;
  std::uint64_t serve_changes = 0;
  std::uint64_t traced_tx = 0;
  double queue_wait_ns = 0.0;
  double settle_ns = 0.0;
  std::uint64_t loop_ns = 0;
  std::uint64_t attributable_ns = 0;  // set-up and loop wall
};

/// Adds one epoch's profile to the sums.
void add_profile(const obs::ProfileReport& report, LayerSums& sums) {
  for (std::size_t c = 0; c < obs::kProfCategories; ++c) {
    sums.prof_ns[c] += report.total_ns[c];
  }
  sums.worker_wall_ns += report.total_wall_ns;
  sums.engine_wall_ns += report.engine_wall_ns;
  sums.conflict_update_ns += report.conflict_update_ns;
  sums.prof_phases += report.phases;
  sums.rounds += report.rounds;
  for (std::size_t w = 0; w < report.workers.size() && w < kMatchThreads; ++w) {
    sums.worker_match_ns[w] += report.workers[w].category_ns[static_cast<
        std::size_t>(obs::ProfCategory::Match)];
  }
}

/// Checks an epoch's engine against the union of per-session serial
/// engines fed the same transactions, replayed from the scripts.
void check_against_oracles(const ops5::Program& program, const Server& server,
                           int epoch, Measured& m) {
  const std::string where = "tenants epoch " + std::to_string(epoch) + ": ";
  const rete::Network plain = rete::Network::compile(program);
  using Key =
      std::tuple<std::uint32_t, std::string, std::vector<std::uint64_t>>;
  std::set<Key> expected;
  for (const Client& client : server.clients) {
    rete::Engine oracle(plain);
    SessionScript script(client.seed);
    std::map<std::uint64_t, ops5::Wme> live;
    const auto add = [&](ops5::Wme w, std::uint64_t local) {
      w.rebind_id(WmeId{local});
      oracle.process_change({ops5::WmeChange::Kind::Add, w});
      live.emplace(local, std::move(w));
    };
    for (std::size_t i = 0; i < script.working_set().size(); ++i) {
      add(script.working_set()[i], i + 1);
    }
    for (std::uint64_t t = 0; t < client.transactions; ++t) {
      SessionScript::Tx tx = script.next();
      if (tx.retract != 0) {
        const auto it = live.find(tx.retract);
        oracle.process_change({ops5::WmeChange::Kind::Delete, it->second});
        live.erase(it);
      }
      add(std::move(tx.trigger), tx.local);
    }
    for (const rete::Instantiation& inst : oracle.conflict_set().all()) {
      std::vector<std::uint64_t> ids;
      for (const WmeId w : inst.token.wmes) ids.push_back(w.value());
      expected.emplace(client.session.id(),
                       plain.production_nodes()[inst.production.value()].name,
                       std::move(ids));
    }
  }
  std::set<Key> actual;
  const serve::ServeEngine& engine = *server.engine;
  const rete::Network& served = engine.network();
  for (const rete::Instantiation& inst : engine.conflict_snapshot()) {
    std::vector<std::uint64_t> ids;
    for (const WmeId w : inst.token.wmes) {
      ids.push_back(serve::ServeEngine::local_id(w).value());
    }
    actual.emplace(serve::ServeEngine::session_of(inst.token.wmes.at(0)),
                   served.production_nodes()[inst.production.value()].name,
                   std::move(ids));
  }
  if (actual != expected) {
    m.fail(where + "final conflict set (" + std::to_string(actual.size()) +
           " instantiations) differs from the serial oracles (" +
           std::to_string(expected.size()) + ")");
  }
  const serve::ServeStats stats = engine.stats();
  if (stats.cross_session_deltas != 0) {
    m.fail(where + std::to_string(stats.cross_session_deltas) +
           " cross-session conflict deltas");
  }
  if (stats.rejected != 0) {
    m.fail(where + std::to_string(stats.rejected) + " rejected transactions");
  }
}

/// Writes one linked Chrome trace: the benchmark's transaction spans (tid
/// 1, arg `phase` = the profiler's 0-based phase index) beside the
/// profiler's control and worker lanes (tid 100+), over the first 100 ms
/// of the timed loop that starts at `loop_start`.
bool write_linked_trace(const std::string& path, const SpanLog& spans,
                        obs::Profiler& profiler, Clock::time_point loop_start) {
  obs::ProfLane& control = *profiler.control_lane();
  const Clock::time_point now = Clock::now();
  const auto prof_epoch_offset =
      static_cast<std::int64_t>(control.stamp(now)) -
      static_cast<std::int64_t>(ns_between(spans.epoch(), now));
  const std::uint64_t from = spans.stamp(loop_start);
  const std::uint64_t to = from + 100'000'000;
  obs::Tracer all_lanes;
  profiler.export_chrome_trace(all_lanes);
  obs::Tracer tracer;
  tracer.set_process_name("perfbench tenants");
  tracer.set_thread_name(1, "benchmark transactions");
  tracer.set_thread_name(100, "measured control");
  for (std::uint32_t w = 0; w < kMatchThreads; ++w) {
    tracer.set_thread_name(101 + w, "measured worker " + std::to_string(w));
  }
  export_spans(spans.spans(), tracer, 1, prof_epoch_offset, from, to, "phase");
  const auto lo = static_cast<std::int64_t>(from) + prof_epoch_offset;
  const auto hi = static_cast<std::int64_t>(to) + prof_epoch_offset;
  for (const obs::TraceEvent& ev : all_lanes.events()) {
    if (ev.ts.nanos() >= lo && ev.ts.nanos() < hi) {
      tracer.span(ev.name, ev.category, ev.tid, ev.ts, ev.dur, ev.args);
    }
  }
  return write_chrome_trace(path, tracer);
}

}  // namespace

Measured run_tenants(const RunConfig& config, SpanLog* spans,
                     const Measured* untraced) {
  Measured m;
  m.throughput_name = "tx_per_s";
  m.throughput_unit = "tx/s";
  m.op_name = "transaction (client submit -> completion)";
  static const std::vector<int> cpus = allowed_cpus();
  m.info.push_back("epochs rotate over " + std::to_string(cpus.size()) +
                   " cpus");
  const ops5::Program program = ops5::parse_program(program_source());
  rete::CompileOptions served_compile;
  served_compile.partition_attr = serve::session_attr();

  mpps::Rng seeder(config.seed);
  std::vector<std::vector<std::uint64_t>> script_sets(kScriptSets);
  for (std::vector<std::uint64_t>& set : script_sets) {
    for (std::uint32_t c = 0; c < kSessions; ++c) set.push_back(seeder());
  }
  std::vector<double> compile_ms;
  std::vector<double> steal;  // per window
  std::vector<CsOp> cs_ops;
  std::uint64_t tx_id = 0;
  std::uint64_t replayed_tx = 0;  // transactions in the replayed stream
  std::uint64_t phases = 0;
  std::uint64_t timed_ns = 0;
  LayerSums sums;

  HostProbe probe(ProbeWork::HandOff);
  int epoch = 0;
  for (; epoch < kMinEpochs ||
         static_cast<double>(timed_ns) / 1e9 < config.seconds;
       ++epoch) {
    if (!cpus.empty() &&
        !pin_to_cpu(cpus[static_cast<std::size_t>(epoch) % cpus.size()])) {
      m.info.push_back("epoch " + std::to_string(epoch) + " not pinned");
    }

    // --- set-up: engine start, sessions, working sets ---
    Server server;
    const auto id = static_cast<std::uint64_t>(epoch);
    const Clock::time_point setup_start = Clock::now();
    if (spans != nullptr) {
      // The compile the engine runs in its constructor, timed on its own.
      const rete::Network net =
          rete::Network::compile(program, served_compile);
      const Clock::time_point c1 = Clock::now();
      spans->add("rete.compile", "rete", setup_start, c1, id);
      compile_ms.push_back(
          static_cast<double>(ns_between(setup_start, c1)) / 1e6);
      server.registry = std::make_unique<obs::Registry>();
      server.profiler = std::make_unique<obs::Profiler>();
    }
    serve::ServeOptions options;
    options.match.threads = kMatchThreads;
    options.admission_batch = kAdmissionBatch;
    options.metrics = server.registry.get();
    options.match.profiler = server.profiler.get();
    const Clock::time_point t0 = Clock::now();
    server.engine = std::make_unique<serve::ServeEngine>(program, options);
    const Clock::time_point t1 = Clock::now();
    std::vector<std::future<serve::TxResult>> installs;
    for (const std::uint64_t seed :
         script_sets[static_cast<std::size_t>(epoch) % kScriptSets]) {
      Client client;
      client.session = server.engine->open_session();
      client.seed = seed;
      client.script = SessionScript(seed);
      serve::Transaction tx;
      for (const ops5::Wme& w : client.script.working_set()) tx.add(w);
      installs.push_back(client.session.submit(std::move(tx)));
      server.clients.push_back(std::move(client));
    }
    const Clock::time_point t2 = Clock::now();
    for (std::size_t c = 0; c < installs.size(); ++c) {
      const serve::TxResult r = installs[c].get();
      if (r.added.size() != server.clients[c].script.working_set().size() ||
          r.added.back().value() != r.added.size()) {
        m.fail("tenants: working set of session " + std::to_string(c) +
               " got unexpected ids");
      }
    }
    const Clock::time_point t3 = Clock::now();
    if (spans != nullptr) {
      sums.attributable_ns += ns_between(setup_start, t3);
      spans->add("serve.engine_start", "serve", t0, t1, id);
      spans->add("serve.open_and_submit", "serve", t1, t2, id);
      spans->add("serve.install", "serve", t2, t3, id);
    }
    std::vector<Client>& clients = server.clients;
    const serve::ServeStats before = server.engine->stats();
    const Counters reg_before =
        spans != nullptr ? read_counters(*server.registry) : Counters{};

    // --- the timed closed loop ---
    const auto submit = [&](std::size_t c) {
      Client& client = clients[c];
      Inflight f;
      f.client = c;
      f.tx = client.script.next();
      ++client.transactions;
      serve::Transaction tx;
      if (f.tx.retract != 0) tx.remove(WmeId{f.tx.retract});
      tx.add(f.tx.trigger);
      ++m.attempted;
      f.submitted = Clock::now();
      f.future = client.session.submit(std::move(tx));
      return f;
    };
    const bool record = spans != nullptr && epoch == 0;
    Slowdown slowdown;
    for (int i = 0; i < kSlicesPerEnd; ++i) slowdown.add(probe.slowdown());
    Window window;
    std::vector<Window> closed;
    std::vector<TxTrace> tx_traces;
    std::deque<Inflight> inflight;
    int windows = 0;
    const Clock::time_point loop_start = Clock::now();
    for (std::size_t c = 0; c < clients.size(); ++c) {
      inflight.push_back(submit(c));
    }
    Clock::time_point window_start = loop_start;
    double window_cpu = process_cpu_s();
    HostSnapshot window_host = host_snapshot();
    bool stopping = false;
    while (!inflight.empty()) {
      Inflight f = std::move(inflight.front());
      inflight.pop_front();
      Client& client = clients[f.client];
      serve::TxResult r;
      try {
        r = f.future.get();
      } catch (const std::exception& e) {
        m.fail(std::string("tenants: transaction failed: ") + e.what());
        if (!stopping) inflight.push_back(submit(f.client));
        continue;
      }
      const Clock::time_point done = Clock::now();
      ++tx_id;
      if (spans != nullptr) {
        spans->add("serve.tx", "serve", f.submitted, done, tx_id, kNoParent,
                   static_cast<std::int64_t>(r.phase) - 1);
        tx_traces.push_back(
            {r.phase, r.latency_ns, ns_between(f.submitted, done)});
      }
      const bool retracts = f.tx.retract != 0;
      if (r.fired.size() != 2 || r.retracted != (retracts ? 2u : 0u) ||
          r.added.size() != 1 || r.added[0].value() != f.tx.local) {
        m.fail("tenants: transaction " + std::to_string(tx_id) + " fired " +
               std::to_string(r.fired.size()) + " and retracted " +
               std::to_string(r.retracted) + " (expected 2 and " +
               (retracts ? "2)" : "0)"));
      }
      if (record) {
        ++replayed_tx;
        if (retracts && !client.live_fired.empty()) {
          for (rete::Instantiation& inst : client.live_fired.front()) {
            cs_ops.push_back({CsOp::Kind::Remove, std::move(inst)});
          }
          client.live_fired.pop_front();
        }
        for (const rete::Instantiation& inst : r.fired) {
          cs_ops.push_back({CsOp::Kind::Add, inst});
        }
        client.live_fired.push_back(r.fired);
      }
      if (stopping) continue;
      push_us(window.op_us, ns_between(f.submitted, done));
      if (window.op_us.size() == kWindowTx) {
        const double cpu_s = process_cpu_s();
        const HostSnapshot host = host_snapshot();
        window.wall_s =
            static_cast<double>(ns_between(window_start, done)) / 1e9;
        window.work = static_cast<double>(window.op_us.size());
        window.cpu_s = cpu_s - window_cpu;
        closed.push_back(std::move(window));
        window = Window{};
        steal.push_back(steal_pct(window_host, host));
        timed_ns += ns_between(window_start, done);
        window_start = done;
        window_cpu = cpu_s;
        window_host = host;
        stopping = ++windows == kWindowsPerEpoch;
      }
      if (!stopping) inflight.push_back(submit(f.client));
    }
    const Clock::time_point loop_end = Clock::now();
    for (int i = 0; i < kSlicesPerEnd; ++i) slowdown.add(probe.slowdown());
    m.setup_s.push_back(static_cast<double>(ns_between(t0, t3)) / 1e9 /
                        slowdown.value());
    for (Window& w : closed) {
      w.slowdown = slowdown.value();
      m.windows.push_back(summarize(w));
    }

    // --- output checks, outside the timed region ---
    const serve::ServeStats after = server.engine->stats();
    phases += after.batches - before.batches;
    check_against_oracles(program, server, epoch, m);

    if (spans != nullptr) {
      const Counters reg_after = read_counters(*server.registry);
      for (const auto& [key, value] : reg_after) {
        sums.counters[key] += value - reg_before.at(key);
      }
      add_profile(server.profiler->report(), sums);
      const std::vector<std::uint64_t>& phase_durs =
          server.profiler->control_lane()->phase_durs();
      for (const TxTrace& t : tx_traces) {
        const std::uint64_t phase_ns =
            t.phase >= 1 && t.phase <= phase_durs.size()
                ? phase_durs[t.phase - 1]
                : 0;
        sums.queue_wait_ns += static_cast<double>(t.latency_ns) -
                              static_cast<double>(phase_ns);
        sums.settle_ns += static_cast<double>(t.client_ns) -
                          static_cast<double>(t.latency_ns);
      }
      sums.traced_tx += tx_traces.size();
      sums.serve_tx += after.transactions - before.transactions;
      sums.serve_phases += after.batches - before.batches;
      sums.serve_changes += after.changes - before.changes;
      sums.loop_ns += ns_between(loop_start, loop_end);
      sums.attributable_ns += ns_between(loop_start, loop_end);
      if (epoch == 0 && !config.chrome_trace.empty() &&
          !write_linked_trace(config.chrome_trace, *spans, *server.profiler,
                              loop_start)) {
        m.fail("tenants: cannot write " + config.chrome_trace);
      }
    }
    server.reset();
  }

  // CPU steal on a shared host stalls the hand-offs; printed beside the
  // figures so a run from a busy period can be told apart.
  m.info.push_back("CPU steal per window min/median/max % " +
                   std::to_string(order_stat(steal, 0.0)) + " " +
                   std::to_string(median(steal)) + " " +
                   std::to_string(order_stat(steal, 1.0)));
  m.info.push_back("epochs " + std::to_string(epoch) + " of " +
                   std::to_string(kWindowsPerEpoch * kWindowTx) +
                   " transactions");
  m.info.push_back("phases " + std::to_string(phases));
  if (spans == nullptr) return m;

  // --- per-layer metrics of the traced run ---
  const auto delta = [&](const char* key) {
    return static_cast<double>(sums.counters[key]);
  };
  const auto pct = [&](obs::ProfCategory c) {
    return obs::safe_pct(sums.prof_ns[static_cast<std::size_t>(c)],
                         sums.worker_wall_ns);
  };
  double match_sum = 0.0;
  double match_max = 0.0;
  for (const std::uint64_t ns : sums.worker_match_ns) {
    match_sum += static_cast<double>(ns);
    match_max = std::max(match_max, static_cast<double>(ns));
  }
  const auto serve_phases = static_cast<double>(sums.serve_phases);
  const auto changes = static_cast<double>(sums.serve_changes);
  const double phase_us = static_cast<double>(sums.engine_wall_ns) /
                          static_cast<double>(sums.prof_phases) / 1e3;
  const auto n_tx = static_cast<double>(sums.traced_tx);
  auto& L = m.layers;
  L["rete.compile_ms"] = median(compile_ms);
  L["rete.activations_per_change"] = (delta("left") + delta("right")) / changes;
  L["rete.tokens_per_change"] = delta("tokens") / changes;
  L["rete.scanned_per_activation"] =
      delta("comparisons") / (delta("left") + delta("right"));
  L["pmatch.phase_us"] = phase_us;
  L["pmatch.rounds_per_phase"] = static_cast<double>(sums.rounds) /
                                 static_cast<double>(sums.prof_phases);
  L["pmatch.match_pct"] = pct(obs::ProfCategory::Match);
  L["pmatch.mailbox_enqueue_pct"] = pct(obs::ProfCategory::MailboxEnqueue);
  L["pmatch.mailbox_dequeue_pct"] = pct(obs::ProfCategory::MailboxDequeue);
  L["pmatch.barrier_wait_pct"] = pct(obs::ProfCategory::BarrierWait);
  L["pmatch.round_merge_pct"] = pct(obs::ProfCategory::RoundMerge);
  L["pmatch.conflict_update_pct"] =
      obs::safe_pct(sums.conflict_update_ns, sums.engine_wall_ns);
  L["pmatch.match_skew"] =
      match_sum > 0.0 ? match_max / (match_sum / kMatchThreads) : 1.0;
  L["pmatch.remote_share"] =
      delta("messages") / (delta("messages") + delta("local"));
  L["pmatch.worker_idle_pct"] =
      100.0 * delta("idle") / (delta("idle") + delta("busy"));
  L["serve.fanin_mean"] = static_cast<double>(sums.serve_tx) / serve_phases;
  L["serve.queue_wait_us"] = sums.queue_wait_ns / n_tx / 1e3;
  L["serve.settle_us"] = sums.settle_ns / n_tx / 1e3;
  L["serve.dispatch_self_us"] =
      static_cast<double>(sums.loop_ns) / serve_phases / 1e3 - phase_us;

  // The first epoch's conflict-set stream, replayed into a fresh set.
  const rete::Network served = rete::Network::compile(program, served_compile);
  const ReplayCosts cs = replay_costs(
      cs_ops,
      [&served](mpps::ProductionId pid) {
        return served.production(pid).specificity();
      },
      rete::Strategy::Lex, 15);
  if (cs.first.failed_removes != 0) {
    m.fail("tenants: conflict-set replay removed an absent instantiation");
  }
  L["rete.cs_add_ns"] = cs.add_ns;
  L["rete.cs_remove_ns"] = cs.remove_ns;
  if (untraced != nullptr) {
    // Replay time per transaction over the untraced wall time per one,
    // both as measured.
    L["rete.cs_share_pct"] = 100.0 * cs.total_ns /
                             static_cast<double>(replayed_tx) *
                             untraced->measured().work_per_s / 1e9;
  }

  // Transactions run concurrently (32 in flight), so the union of their
  // spans with the set-up spans is what the run attributes.
  const auto wall = static_cast<double>(sums.attributable_ns);
  L["obs.unattributed_pct"] =
      100.0 * (wall - static_cast<double>(covered_ns(spans->spans()))) / wall;
  return m;
}

}  // namespace perfbench
