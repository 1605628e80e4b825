#include "src/sim/refsim.hpp"

#include <algorithm>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/error.hpp"

namespace mpps::sim {
namespace {

using trace::Side;
using trace::Trace;
using trace::TraceActivation;
using trace::TraceCycle;

// What a processor is asked to do.  Mirrors the documented task taxonomy
// of the mapping (simulator.hpp's header comment), not CycleSim's code.
enum class RefWork : std::uint8_t {
  Roots,          // broadcast mode: constant tests + locally owned roots
  Activation,     // merged mapping: store + generate on one processor
  PairLeft,       // pair mapping: receive, forward to partner, do own half
  PairRight,      // pair mapping: the partner's half
  ConstantTests,  // dedicated constant-test processor
  Instantiation,  // conflict-set processor: receive + select
};

struct RefTask {
  RefWork work = RefWork::Activation;
  std::size_t act = 0;       // activation index (when applicable)
  std::uint32_t ct_share = 0;  // constant-test processor index
  bool charged_receive = false;
};

struct RefProcessor {
  std::list<RefTask> queue;  // FIFO of tasks waiting for this processor
  bool running = false;
  SimTime done_at{};
};

/// One cycle of the reference machine.  Everything is rebuilt from
/// scratch per cycle: the id map, the children lists, the event table.
class RefCycle {
 public:
  RefCycle(const Trace& trace, const SimConfig& config,
           const Assignment& assignment, NetworkModel* net,
           std::size_t cycle_no, SimTime cycle_start)
      : cycle_(trace.cycles[cycle_no]),
        config_(config),
        assignment_(assignment),
        net_(net),
        cycle_no_(cycle_no),
        n_match_(config.match_processors),
        n_ct_(config.constant_test_processors),
        n_cs_(config.conflict_set_processors),
        procs_(n_match_ + n_ct_ + n_cs_),
        cs_received_(n_cs_, 0) {
    index_activations();
    metrics_.start = cycle_start;
    metrics_.procs.resize(n_match_);
  }

  /// Runs the cycle to quiescence and fills in the metrics.
  CycleMetrics run() {
    distribute_wme_changes(metrics_.start);
    while (!events_.empty()) {
      const auto first = events_.begin();
      const Posted posted = first->second;
      const SimTime now = SimTime::ns(first->first.first);
      events_.erase(first);
      RefProcessor& proc = procs_[posted.proc];
      if (posted.is_arrival) {
        proc.queue.push_back(posted.task);
        if (!proc.running) begin_task(posted.proc, now);
      } else {
        proc.running = false;
        if (!proc.queue.empty()) begin_task(posted.proc, now);
      }
    }
    report_conflict_sets();
    SimTime end = metrics_.start;
    for (const RefProcessor& proc : procs_) end = std::max(end, proc.done_at);
    end = std::max(end, control_free_at_);
    end += quiescence_tail();
    end += config_.costs.resolve_cost;
    metrics_.end = end;
    return metrics_;
  }

  [[nodiscard]] std::uint64_t local_deliveries() const { return local_; }
  [[nodiscard]] std::uint64_t events() const { return next_post_; }
  [[nodiscard]] SimTime network_busy() const { return wire_time_; }
  [[nodiscard]] SimTime termination_overhead() const { return tail_; }

 private:
  struct Posted {
    bool is_arrival = true;
    std::uint32_t proc = 0;
    RefTask task;
  };

  void index_activations() {
    std::map<std::uint64_t, std::size_t> by_id;
    const std::size_t n = cycle_.activations.size();
    children_.assign(n, {});
    for (std::size_t i = 0; i < n; ++i) {
      by_id.emplace(cycle_.activations[i].id.value(), i);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const TraceActivation& a = cycle_.activations[i];
      if (!a.parent.valid()) {
        roots_.push_back(i);
        continue;
      }
      const auto it = by_id.find(a.parent.value());
      if (it == by_id.end() || it->second >= i) {
        throw RuntimeError("refsim: cycle " + std::to_string(cycle_no_) +
                           ": activation " + std::to_string(a.id.value()) +
                           " has a missing or forward-declared parent");
      }
      children_[it->second].push_back(i);
    }
  }

  [[nodiscard]] const TraceActivation& act(std::size_t i) const {
    return cycle_.activations[i];
  }
  [[nodiscard]] bool pair_mapping() const {
    return config_.mapping == MappingMode::ProcessorPairs;
  }
  [[nodiscard]] std::uint32_t partition_of(std::uint32_t bucket) const {
    return assignment_.proc_of(cycle_no_, bucket);
  }
  [[nodiscard]] std::uint32_t storing_proc(std::uint32_t partition) const {
    return pair_mapping() ? 2 * partition : partition;
  }
  [[nodiscard]] std::uint32_t partner_proc(std::uint32_t partition) const {
    return pair_mapping() ? 2 * partition + 1 : partition;
  }

  /// Network node of a processor (node 0 is the control processor).
  [[nodiscard]] static std::uint32_t node_of(std::uint32_t proc) {
    return proc + 1;
  }
  static constexpr std::uint32_t kControlNode = 0;

  /// Charges one unicast leaving `src_node` at `departure`; returns the
  /// arrival time at `dst_node`.
  SimTime charge_unicast(std::uint32_t src_node, std::uint32_t dst_node,
                         SimTime departure) {
    const NetCharge c = net_->cost(src_node, dst_node, departure);
    wire_time_ += c.latency;
    return departure + c.departure_delay + c.latency;
  }

  void post(bool is_arrival, std::uint32_t proc, RefTask task, SimTime at) {
    Posted p;
    p.is_arrival = is_arrival;
    p.proc = proc;
    p.task = task;
    events_.emplace(std::make_pair(at.nanos(), next_post_++), p);
  }

  /// Step 1: the control processor distributes the cycle's WM changes —
  /// one hardware broadcast, or one serialized send per destination.
  void distribute_wme_changes(SimTime t0) {
    const CostModel& costs = config_.costs;
    const std::uint32_t destinations = n_ct_ > 0 ? n_ct_ : n_match_;
    std::uint32_t far = 0;
    std::uint32_t far_hops = 0;
    for (std::uint32_t d = 0; d < destinations; ++d) {
      const std::uint32_t dest = n_ct_ > 0 ? n_match_ + d : d;
      RefTask task;
      if (n_ct_ > 0) {
        task.work = RefWork::ConstantTests;
        task.ct_share = d;
      } else {
        task.work = RefWork::Roots;
      }
      task.charged_receive = true;
      if (costs.hardware_broadcast) {
        // One physical broadcast: pure route latency per destination,
        // charged once as a flood to the farthest destination below.
        const std::uint32_t h = net_->hops(kControlNode, node_of(dest));
        if (d == 0 || h > far_hops) {
          far = dest;
          far_hops = h;
        }
        post(true, dest, task,
             t0 + costs.send_overhead +
                 net_->latency(kControlNode, node_of(dest)));
      } else {
        const SimTime leaves =
            t0 + costs.send_overhead * static_cast<std::int64_t>(d + 1);
        post(true, dest, task,
             charge_unicast(kControlNode, node_of(dest), leaves));
      }
    }
    if (costs.hardware_broadcast) {
      wire_time_ += net_->charge_flood(kControlNode, node_of(far));
    }
  }

  void begin_task(std::uint32_t proc_id, SimTime now) {
    RefProcessor& proc = procs_[proc_id];
    const RefTask task = proc.queue.front();
    proc.queue.pop_front();
    proc.running = true;
    SimTime t = now;
    if (task.charged_receive) t += config_.costs.recv_overhead;
    switch (task.work) {
      case RefWork::Roots:
        t = do_roots(proc_id, t);
        break;
      case RefWork::Activation:
        t = do_store(proc_id, task.act, t);
        t = do_generate(proc_id, task.act, t);
        break;
      case RefWork::PairLeft:
        t = do_pair_left(proc_id, task.act, t);
        break;
      case RefWork::PairRight:
        t = do_pair_right(proc_id, task.act, t);
        break;
      case RefWork::ConstantTests:
        t = do_constant_tests(proc_id, task.ct_share, t);
        break;
      case RefWork::Instantiation:
        t += config_.conflict_select_cost;
        break;
    }
    proc.done_at = t;
    if (proc_id < n_match_) metrics_.procs[proc_id].busy += t - now;
    post(false, proc_id, RefTask{}, t);
  }

  /// Broadcast mode: every match processor repeats the constant tests,
  /// then handles the root activations whose buckets it owns.
  SimTime do_roots(std::uint32_t proc_id, SimTime t) {
    t += config_.costs.constant_tests;
    for (std::size_t root : roots_) {
      const TraceActivation& a = act(root);
      const std::uint32_t part = partition_of(a.bucket);
      if (!pair_mapping()) {
        if (part != proc_id) continue;
        t = do_store(proc_id, root, t);
        t = do_generate(proc_id, root, t);
        continue;
      }
      // Pair mapping: the storing side adds the token while the opposite
      // side searches its bucket and generates successors.
      const bool stores_here = (a.side == Side::Left)
                                   ? proc_id == storing_proc(part)
                                   : proc_id == partner_proc(part);
      const bool generates_here = (a.side == Side::Left)
                                      ? proc_id == partner_proc(part)
                                      : proc_id == storing_proc(part);
      if (stores_here) t = do_store(proc_id, root, t);
      if (generates_here) t = do_generate(proc_id, root, t);
    }
    return t;
  }

  /// Dedicated constant-test processor: a ceil-divided share of the
  /// constant-test work, then one message per root it is responsible for
  /// (roots are dealt round-robin over the constant-test processors).
  SimTime do_constant_tests(std::uint32_t proc_id, std::uint32_t share,
                            SimTime t) {
    const CostModel& costs = config_.costs;
    t += SimTime::ns((costs.constant_tests.nanos() + n_ct_ - 1) / n_ct_);
    std::uint32_t dealt = 0;
    for (std::size_t root : roots_) {
      if (dealt++ % n_ct_ != share) continue;
      t += costs.send_overhead;
      ++metrics_.messages;
      deliver_token(proc_id, root, t);
    }
    return t;
  }

  /// A token message lands on the processor that stores its bucket,
  /// charged through the network from `src_proc`.
  void deliver_token(std::uint32_t src_proc, std::size_t act_index,
                     SimTime departure) {
    const std::uint32_t part = partition_of(act(act_index).bucket);
    const std::uint32_t dest = storing_proc(part);
    RefTask task;
    task.work = pair_mapping() ? RefWork::PairLeft : RefWork::Activation;
    task.act = act_index;
    task.charged_receive = true;
    post(true, dest, task,
         charge_unicast(node_of(src_proc), node_of(dest), departure));
  }

  /// Pair mapping, storing-side processor: forward the token to the
  /// partner first, then do this side's half of the work.
  SimTime do_pair_left(std::uint32_t proc_id, std::size_t act_index,
                       SimTime t) {
    t += config_.costs.send_overhead;
    ++metrics_.messages;
    RefTask partner;
    partner.work = RefWork::PairRight;
    partner.act = act_index;
    partner.charged_receive = true;
    const std::uint32_t dest =
        partner_proc(partition_of(act(act_index).bucket));
    post(true, dest, partner,
         charge_unicast(node_of(proc_id), node_of(dest), t));
    return act(act_index).side == Side::Left
               ? do_store(proc_id, act_index, t)
               : do_generate(proc_id, act_index, t);
  }

  SimTime do_pair_right(std::uint32_t proc_id, std::size_t act_index,
                        SimTime t) {
    return act(act_index).side == Side::Left
               ? do_generate(proc_id, act_index, t)
               : do_store(proc_id, act_index, t);
  }

  /// Token add/delete.  The storing side is the one the activation is
  /// attributed to in the per-processor metrics.
  SimTime do_store(std::uint32_t proc_id, std::size_t act_index, SimTime t) {
    const TraceActivation& a = act(act_index);
    if (proc_id < n_match_) {
      ++metrics_.procs[proc_id].activations;
      if (a.side == Side::Left) ++metrics_.procs[proc_id].left_activations;
    }
    return t + config_.costs.token_cost(a.side == Side::Left);
  }

  /// Opposite-bucket search: generate every successor token in order and
  /// route it (free local enqueue, or a message), then the activation's
  /// instantiations (to a conflict-set processor or the control
  /// processor, which serializes its receive overheads).
  SimTime do_generate(std::uint32_t proc_id, std::size_t act_index,
                      SimTime t) {
    const CostModel& costs = config_.costs;
    const TraceActivation& a = act(act_index);
    for (std::size_t child : children_[act_index]) {
      t += costs.per_successor;
      const std::uint32_t part = partition_of(act(child).bucket);
      const std::uint32_t dest = storing_proc(part);
      if (dest == proc_id) {
        ++local_;
        RefTask task;
        task.work = pair_mapping() ? RefWork::PairLeft : RefWork::Activation;
        task.act = child;
        task.charged_receive = false;
        post(true, dest, task, t);
      } else {
        t += costs.send_overhead;
        ++metrics_.messages;
        deliver_token(proc_id, child, t);
      }
    }
    for (std::uint32_t i = 0; i < a.instantiations; ++i) {
      t += costs.per_successor;
      if (!config_.charge_instantiation_messages) continue;
      t += costs.send_overhead;
      ++metrics_.messages;
      if (n_cs_ > 0) {
        const std::uint32_t slot = a.bucket % n_cs_;
        const std::uint32_t cs = n_match_ + n_ct_ + slot;
        ++cs_received_[slot];
        RefTask task;
        task.work = RefWork::Instantiation;
        task.charged_receive = true;
        post(true, cs, task, charge_unicast(node_of(proc_id), node_of(cs), t));
      } else {
        const SimTime arrival =
            charge_unicast(node_of(proc_id), kControlNode, t);
        const SimTime begin = std::max(control_free_at_, arrival);
        control_free_at_ = begin + costs.recv_overhead;
      }
    }
    return t;
  }

  /// Conflict-set processors forward their pre-selected best
  /// instantiation to the control processor after the cycle drains.
  void report_conflict_sets() {
    const CostModel& costs = config_.costs;
    for (std::uint32_t j = 0; j < n_cs_; ++j) {
      if (cs_received_[j] == 0) continue;
      RefProcessor& cs = procs_[n_match_ + n_ct_ + j];
      cs.done_at += costs.send_overhead;
      ++metrics_.messages;
      const SimTime arrival = charge_unicast(node_of(n_match_ + n_ct_ + j),
                                             kControlNode, cs.done_at);
      const SimTime begin = std::max(control_free_at_, arrival);
      control_free_at_ = begin + costs.recv_overhead;
    }
  }

  /// Termination-detection charge appended to the cycle (the paper's
  /// simulations charge none; see TerminationModel).
  SimTime quiescence_tail() {
    const CostModel& costs = config_.costs;
    SimTime tail{};
    switch (config_.termination) {
      case TerminationModel::None:
        break;
      case TerminationModel::AckCounting: {
        const SimTime per_msg = costs.send_overhead + costs.recv_overhead;
        tail = SimTime::ns(static_cast<std::int64_t>(metrics_.messages) *
                           per_msg.nanos() /
                           std::max<std::int64_t>(1, n_match_)) +
               costs.send_overhead + costs.recv_overhead +
               2 * costs.wire_latency;
        break;
      }
      case TerminationModel::BarrierPoll:
        tail = static_cast<std::int64_t>(n_match_) *
                   (costs.send_overhead + costs.recv_overhead) +
               2 * costs.wire_latency;
        break;
    }
    tail_ += tail;
    return tail;
  }

  const TraceCycle& cycle_;
  const SimConfig& config_;
  const Assignment& assignment_;
  NetworkModel* net_;  // owned by ref_simulate(); one instance per run
  const std::size_t cycle_no_;
  const std::uint32_t n_match_;
  const std::uint32_t n_ct_;
  const std::uint32_t n_cs_;

  std::vector<std::size_t> roots_;
  std::vector<std::vector<std::size_t>> children_;
  std::vector<RefProcessor> procs_;
  std::vector<std::uint64_t> cs_received_;
  // Pending events ordered by (time, posting order): simultaneous events
  // are handled in the order they were created.
  std::map<std::pair<std::int64_t, std::uint64_t>, Posted> events_;
  std::uint64_t next_post_ = 0;
  CycleMetrics metrics_;
  std::uint64_t local_ = 0;
  SimTime wire_time_{};
  SimTime control_free_at_{};
  SimTime tail_{};
};

}  // namespace

SimResult ref_simulate(const Trace& trace, const SimConfig& config,
                       const Assignment& assignment) {
  config.validate();
  if (assignment.num_procs() != config.partitions()) {
    throw RuntimeError(
        "bucket assignment targets " + std::to_string(assignment.num_procs()) +
        " partitions but the configuration implies " +
        std::to_string(config.partitions()));
  }
  SimResult result;
  result.match_processors = config.match_processors;
  SimTime clock{};
  const std::uint32_t total_nodes = 1 + config.match_processors +
                                    config.constant_test_processors +
                                    config.conflict_set_processors;
  std::unique_ptr<NetworkModel> net =
      make_network(config.network, config.costs, total_nodes);
  for (std::size_t c = 0; c < trace.cycles.size(); ++c) {
    RefCycle cycle(trace, config, assignment, net.get(), c, clock);
    CycleMetrics metrics = cycle.run();
    clock = metrics.end;
    result.messages += metrics.messages;
    result.local_deliveries += cycle.local_deliveries();
    result.events += cycle.events();
    result.network_busy += cycle.network_busy();
    result.termination_overhead += cycle.termination_overhead();
    result.cycles.push_back(std::move(metrics));
  }
  result.makespan = clock;
  result.net = net->stats();
  return result;
}

namespace {

std::string diverged_time(const std::string& field, SimTime a, SimTime b) {
  return field + ": fast " + std::to_string(a.nanos()) + " ns vs ref " +
         std::to_string(b.nanos()) + " ns";
}

std::string diverged_count(const std::string& field, std::uint64_t a,
                           std::uint64_t b) {
  return field + ": fast " + std::to_string(a) + " vs ref " +
         std::to_string(b);
}

}  // namespace

std::string describe_divergence(const SimResult& fast, const SimResult& ref) {
  if (fast.makespan != ref.makespan) {
    return diverged_time("makespan", fast.makespan, ref.makespan);
  }
  if (fast.messages != ref.messages) {
    return diverged_count("messages", fast.messages, ref.messages);
  }
  if (fast.local_deliveries != ref.local_deliveries) {
    return diverged_count("local deliveries", fast.local_deliveries,
                          ref.local_deliveries);
  }
  if (fast.events != ref.events) {
    return diverged_count("kernel events", fast.events, ref.events);
  }
  if (fast.network_busy != ref.network_busy) {
    return diverged_time("network busy", fast.network_busy, ref.network_busy);
  }
  if (fast.termination_overhead != ref.termination_overhead) {
    return diverged_time("termination overhead", fast.termination_overhead,
                         ref.termination_overhead);
  }
  if (fast.match_processors != ref.match_processors) {
    return diverged_count("match processors", fast.match_processors,
                          ref.match_processors);
  }
  if (fast.net.messages != ref.net.messages) {
    return diverged_count("net charged messages", fast.net.messages,
                          ref.net.messages);
  }
  if (fast.net.total_latency != ref.net.total_latency) {
    return diverged_time("net total latency", fast.net.total_latency,
                         ref.net.total_latency);
  }
  if (fast.net.total_delay != ref.net.total_delay) {
    return diverged_time("net contention delay", fast.net.total_delay,
                         ref.net.total_delay);
  }
  if (fast.net.hop_histogram != ref.net.hop_histogram) {
    return "net hop histogram diverged";
  }
  if (fast.net != ref.net) {
    return "net stats (per-link traffic or geometry) diverged";
  }
  if (fast.cycles.size() != ref.cycles.size()) {
    return diverged_count("cycle count", fast.cycles.size(),
                          ref.cycles.size());
  }
  for (std::size_t c = 0; c < fast.cycles.size(); ++c) {
    const CycleMetrics& a = fast.cycles[c];
    const CycleMetrics& b = ref.cycles[c];
    const std::string at = "cycle " + std::to_string(c) + " ";
    if (a.start != b.start) return diverged_time(at + "start", a.start, b.start);
    if (a.end != b.end) return diverged_time(at + "end", a.end, b.end);
    if (a.messages != b.messages) {
      return diverged_count(at + "messages", a.messages, b.messages);
    }
    if (a.procs.size() != b.procs.size()) {
      return diverged_count(at + "proc count", a.procs.size(),
                            b.procs.size());
    }
    for (std::size_t p = 0; p < a.procs.size(); ++p) {
      const ProcCycleMetrics& pa = a.procs[p];
      const ProcCycleMetrics& pb = b.procs[p];
      const std::string pat = at + "proc " + std::to_string(p) + " ";
      if (pa.busy != pb.busy) {
        return diverged_time(pat + "busy", pa.busy, pb.busy);
      }
      if (pa.activations != pb.activations) {
        return diverged_count(pat + "activations", pa.activations,
                              pb.activations);
      }
      if (pa.left_activations != pb.left_activations) {
        return diverged_count(pat + "left activations", pa.left_activations,
                              pb.left_activations);
      }
    }
  }
  return {};
}

}  // namespace mpps::sim
