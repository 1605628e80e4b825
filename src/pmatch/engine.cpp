#include "src/pmatch/engine.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "src/common/error.hpp"

namespace mpps::pmatch {

using rete::ActivationRecord;
using rete::AlphaNode;
using rete::AlphaSuccessor;
using rete::BetaNode;
using rete::Side;
using rete::Tag;

namespace {

std::uint32_t resolve_buckets(const ParallelOptions& options) {
  if (options.assignment.has_value()) {
    return options.assignment->num_buckets();
  }
  return options.num_buckets == 0 ? 256 : options.num_buckets;
}

sim::Assignment resolve_assignment(const ParallelOptions& options,
                                   std::uint32_t num_buckets) {
  if (options.assignment.has_value()) return *options.assignment;
  if (options.partition == ParallelOptions::Partition::Random) {
    return sim::Assignment::random(num_buckets, options.threads,
                                   options.seed);
  }
  return sim::Assignment::round_robin(num_buckets, options.threads);
}

std::uint64_t ns_between(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return to <= from ? 0
                    : static_cast<std::uint64_t>(
                          std::chrono::duration_cast<std::chrono::nanoseconds>(
                              to - from)
                              .count());
}

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (v & 0xFF)) * kFnvPrime;
    v >>= 8;
  }
  return h;
}

/// A controller-returned order must be a permutation of [0, n).
void require_permutation(std::span<const std::uint32_t> order, std::size_t n,
                         const char* hook) {
  if (order.size() != n) {
    throw RuntimeError(std::string("ParallelEngine: ") + hook +
                       " returned " + std::to_string(order.size()) +
                       " indices for " + std::to_string(n) + " operations");
  }
  std::vector<char> seen(n, 0);
  for (std::uint32_t idx : order) {
    if (idx >= n || seen[idx] != 0) {
      throw RuntimeError(std::string("ParallelEngine: ") + hook +
                         " returned an invalid permutation");
    }
    seen[idx] = 1;
  }
}

template <typename T>
void reorder_by(std::vector<T>& items,
                std::span<const std::uint32_t> order) {
  std::vector<T> tmp;
  tmp.reserve(items.size());
  for (std::uint32_t idx : order) tmp.push_back(std::move(items[idx]));
  items.swap(tmp);
}

}  // namespace

void ParallelOptions::validate() const {
  if (threads == 0) {
    throw UsageError("ParallelOptions: threads must be positive");
  }
  if (mailbox_capacity == 0) {
    throw UsageError("ParallelOptions: mailbox_capacity must be positive");
  }
  if (schedule != nullptr && profiler != nullptr) {
    throw UsageError(
        "ParallelOptions: schedule and profiler are exclusive (the "
        "schedule-controlled mode is single-threaded and cooperative, so "
        "the wall-clock profiler would attribute nothing meaningful)");
  }
  if (assignment.has_value()) {
    if (assignment->num_buckets() == 0) {
      throw UsageError("ParallelOptions: assignment has no buckets");
    }
    if (assignment->num_procs() != threads) {
      throw UsageError("ParallelOptions: assignment maps " +
                       std::to_string(assignment->num_procs()) +
                       " processors but threads is " +
                       std::to_string(threads));
    }
  }
}

ParallelEngine::ParallelEngine(const rete::Network& net,
                               ParallelOptions options)
    : net_(net),
      options_(validated(std::move(options))),
      threads_(options_.threads),
      num_buckets_(resolve_buckets(options_)),
      assignment_(resolve_assignment(options_, num_buckets_)),
      owner_map_(assignment_.map_for(0)),
      conflict_([&net](ProductionId pid) { return net.specificity(pid); }),
      wmes_(net.slot_attrs()),
      round_barrier_(static_cast<std::ptrdiff_t>(threads_),
                     RoundCompletion{this}),
      mirror_(options_.metrics) {
  workers_.reserve(threads_);
  for (std::uint32_t i = 0; i < threads_; ++i) {
    workers_.push_back(
        std::make_unique<Worker>(i, wmes_, num_buckets_, threads_));
  }
  if (options_.profiler != nullptr) {
    options_.profiler->attach(threads_, num_buckets_);
    for (std::uint32_t i = 0; i < threads_; ++i) {
      workers_[i]->lane = options_.profiler->lane(i);
    }
    control_lane_ = options_.profiler->control_lane();
  }
  flushed_workers_.resize(threads_);
  if (options_.metrics != nullptr) {
    obs::Registry& reg = *options_.metrics;
    instr_.messages = &reg.counter("pmatch.messages");
    instr_.local = &reg.counter("pmatch.local_deliveries");
    instr_.rounds = &reg.counter("pmatch.rounds");
    instr_.phases = &reg.counter("pmatch.phases");
    instr_.changes = &reg.counter("pmatch.changes");
    instr_.overflows = &reg.counter("pmatch.mailbox_overflows");
    instr_.mailbox_depth = &reg.histogram(
        "pmatch.mailbox_depth", obs::Histogram::exponential_bounds(1, 2.0, 12));
    instr_.busy.reserve(threads_);
    instr_.idle.reserve(threads_);
    for (std::uint32_t i = 0; i < threads_; ++i) {
      instr_.busy.push_back(&reg.counter("pmatch.worker_busy_ns",
                                         {{"worker", std::to_string(i)}}));
      instr_.idle.push_back(&reg.counter("pmatch.worker_idle_ns",
                                         {{"worker", std::to_string(i)}}));
    }
  }
  if (threaded()) {
    for (auto& worker : workers_) {
      Worker* w = worker.get();
      w->thread = std::thread([this, w] { worker_main(*w); });
    }
  }
}

ParallelEngine::~ParallelEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void ParallelEngine::worker_main(Worker& w) {
  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stop_ || phase_gen_ > seen; });
      if (stop_) return;
      seen = phase_gen_;
    }
    run_worker_phase(w);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++workers_done_;
    }
    done_cv_.notify_one();
  }
}

void ParallelEngine::run_worker_phase(Worker& w) {
  // Every clock reading ends one segment and starts the next, so the
  // profiler's category spans tile the phase wall (the unattributed
  // remainder is only loop glue).  Without a profiler the loop still
  // takes three readings per round: busy/idle need them.
  const auto phase_start = Clock::now();
  std::uint64_t idle_ns = 0;
  auto seg_start = phase_start;
  while (true) {
    const auto wait_start = match_step(w, seg_start);
    round_barrier_.arrive_and_wait();
    seg_start = Clock::now();
    idle_ns += ns_between(wait_start, seg_start);
    if (w.lane != nullptr) {
      w.lane->span(obs::ProfCategory::BarrierWait, w.round,
                   w.lane->stamp(wait_start), w.lane->stamp(seg_start));
    }
    seg_start = exchange_step(w, seg_start);
    if (phase_done_) break;
    std::swap(w.current, w.next);
    ++w.round;
  }
  end_worker_phase(w, phase_start, seg_start, idle_ns);
}

void ParallelEngine::run_cooperative_phase() {
  // Within a round the workers touch disjoint per-bucket state, so running
  // their steps one after another is one execution the threads could have
  // produced; the orderings that can change a result are the exchange
  // step's, which a controller picks when one is attached.  A worker is
  // busy during its own steps and idle during the others'.
  const auto phase_start = Clock::now();
  auto t = phase_start;
  const auto step_all = [&](auto step) {
    for (auto& wp : workers_) {
      const auto end = (this->*step)(*wp, t);
      wp->step_ns += ns_between(t, end);
      t = end;
    }
  };
  while (true) {
    step_all(&ParallelEngine::match_step);
    on_round_end();
    step_all(&ParallelEngine::exchange_step);
    if (phase_done_) break;
    for (auto& wp : workers_) {
      std::swap(wp->current, wp->next);
      ++wp->round;
    }
  }
  const std::uint64_t wall = ns_between(phase_start, t);
  for (auto& wp : workers_) {
    end_worker_phase(*wp, phase_start, t, wall - wp->step_ns);
  }
}

ParallelEngine::Clock::time_point ParallelEngine::match_step(
    Worker& w, Clock::time_point start) {
  w.routed = 0;
  w.prof_enqueue_ns = 0;
  if (w.error == nullptr) {
    try {
      for (const WorkItem& item : w.current) process_item(w, item);
    } catch (...) {
      w.error = std::current_exception();
    }
  }
  const auto end = Clock::now();
  if (w.lane != nullptr) {
    w.lane->span(obs::ProfCategory::Match, w.round, w.lane->stamp(start),
                 w.lane->stamp(end), w.prof_enqueue_ns);
  }
  return end;
}

ParallelEngine::Clock::time_point ParallelEngine::exchange_step(
    Worker& w, Clock::time_point start) {
  recycle_items(w, w.next);
  // Worker order is sender order, and each box is one sender's children
  // in emission order: `next` lists the round by (sender, emission).
  std::uint64_t received = 0;
  for (const auto& sender : workers_) {
    std::vector<WorkItem>& box = sender->outbox[w.round & 1][w.index];
    if (sender->index != w.index) received += box.size();
    for (WorkItem& item : box) w.next.push_back(std::move(item));
    box.clear();
  }
  w.received.push_back(received);
  w.wstats.max_mailbox_depth = std::max(w.wstats.max_mailbox_depth, received);
  if (received > options_.mailbox_capacity) {
    w.wstats.mailbox_overflows += received - options_.mailbox_capacity;
  }
  auto gather_end = start;
  if (w.lane != nullptr) {
    gather_end = Clock::now();
    w.lane->span(obs::ProfCategory::MailboxDequeue, w.round,
                 w.lane->stamp(start), w.lane->stamp(gather_end), received);
  }
  if (ScheduleControl* const sched = options_.schedule;
      sched != nullptr && !w.next.empty()) {
    std::vector<ScheduledOp> ops;
    ops.reserve(w.next.size());
    std::uint64_t seq = 0;  // position in the sender's stream
    for (std::size_t i = 0; i < w.next.size(); ++i) {
      const WorkItem& it = w.next[i];
      seq = i > 0 && w.next[i - 1].sender == it.sender ? seq + 1 : 0;
      ops.push_back(ScheduledOp{it.sender, seq, it.bucket, item_hash(it)});
    }
    std::vector<std::uint32_t> order;
    sched->order_round(w.index, w.round + 1, ops, order);
    require_permutation(order, w.next.size(), "order_round");
    reorder_by(w.next, order);
  }
  const auto end = Clock::now();
  if (w.lane != nullptr) {
    w.lane->span(obs::ProfCategory::RoundMerge, w.round,
                 w.lane->stamp(gather_end), w.lane->stamp(end), w.next.size());
  }
  return end;
}

void ParallelEngine::on_round_end() noexcept {
  std::uint64_t routed = 0;
  for (const auto& w : workers_) routed += w->routed;
  phase_done_ = routed == 0;
  ++rounds_executed_;
}

std::uint64_t ParallelEngine::item_hash(const WorkItem& item) {
  std::uint64_t h = kFnvOffset;
  h = fnv_mix(h, item.node.value());
  h = fnv_mix(h, static_cast<std::uint64_t>(item.side));
  h = fnv_mix(h, static_cast<std::uint64_t>(item.tag));
  h = fnv_mix(h, item.wme.value());
  for (WmeId w : item.token.wmes) h = fnv_mix(h, w.value());
  return h;
}

std::uint64_t ParallelEngine::delta_dependence_hash(const MergedDelta& d) {
  std::uint64_t h = kFnvOffset;
  h = fnv_mix(h, d.pid.value());
  for (WmeId w : d.token) h = fnv_mix(h, w.value());
  return h;
}

std::uint64_t ParallelEngine::delta_identity_hash(const MergedDelta& d) {
  return fnv_mix(delta_dependence_hash(d), static_cast<std::uint64_t>(d.tag));
}

void ParallelEngine::begin_worker_phase(Worker& w) {
  w.records.clear();
  w.deltas.clear();
  w.delta_wmes.clear();
  w.received.clear();
  recycle_items(w, w.current);
  recycle_items(w, w.next);
  w.pool_limit = std::max(w.pool_limit, w.taken);
  w.taken = 0;
  w.phase_activations = 0;
  w.round = 0;
  w.step_ns = 0;
}

void ParallelEngine::end_worker_phase(Worker& w, Clock::time_point start,
                                      Clock::time_point end,
                                      std::uint64_t idle_ns) {
  const std::uint64_t phase_ns = ns_between(start, end);
  w.wstats.idle_ns += idle_ns;
  w.wstats.busy_ns += phase_ns > idle_ns ? phase_ns - idle_ns : 0;
  if (w.lane != nullptr) {
    w.lane->phase_span(w.lane->stamp(start), w.lane->stamp(end));
  }
}

ParallelEngine::WorkItem ParallelEngine::take_item(Worker& w) {
  ++w.taken;
  if (w.pool.empty()) return WorkItem{};
  WorkItem item = std::move(w.pool.back());
  w.pool.pop_back();
  item.token.wmes.clear();
  item.operands.clear();
  item.parent = 0;
  item.wme = WmeId{};
  return item;
}

void ParallelEngine::recycle_items(Worker& w, std::vector<WorkItem>& items) {
  // A worker recycles the items it processed but takes items for what it
  // sends, so under one-sided cross-worker traffic the receiver retires
  // more items than it takes and the sender takes more than it retires.
  // A pool never needs more items than its worker has taken in one
  // phase; the rest wait in the surplus for rebalance_pools.
  const std::uint64_t limit = std::max(w.pool_limit, w.taken);
  for (WorkItem& item : items) {
    (w.pool.size() < limit ? w.pool : w.surplus).push_back(std::move(item));
  }
  items.clear();
}

void ParallelEngine::rebalance_pools() {
  auto donor = workers_.begin();
  for (auto& w : workers_) {
    while (w->pool.size() < w->pool_limit) {
      while (donor != workers_.end() && (*donor)->surplus.empty()) ++donor;
      if (donor == workers_.end()) break;
      w->pool.push_back(std::move((*donor)->surplus.back()));
      (*donor)->surplus.pop_back();
    }
  }
  for (auto& w : workers_) w->surplus.clear();
}

void ParallelEngine::seed_root(WmeId root, const AlphaSuccessor& succ,
                               Tag tag, std::vector<rete::Value>& operands) {
  const BetaNode& dest = net_.beta(succ.beta);
  const rete::JoinKernel& kernel = workers_.front()->join;
  if (succ.side == Side::Left) {
    kernel.left_operands(dest, {&root, 1}, operands);
  } else {
    kernel.right_operands(dest, root, operands);
  }
  const std::uint32_t bucket = kernel.bucket_of(dest, operands);
  Worker& owner = *workers_[owner_map_[bucket]];
  WorkItem item = take_item(owner);
  item.sender = owner.index;
  item.node = succ.beta;
  item.side = succ.side;
  item.tag = tag;
  if (succ.side == Side::Left) {
    item.token.wmes.assign(1, root);
  } else {
    item.wme = root;
  }
  std::swap(item.operands, operands);
  item.bucket = bucket;
  owner.current.push_back(std::move(item));
}

struct ParallelEngine::WorkerSink {
  ParallelEngine& engine;
  Worker& w;
  std::uint64_t parent;  // the activation's provisional id

  void successor(NodeId node, std::span<const WmeId> token, Tag tag) {
    WorkItem child = take_item(w);
    child.parent = parent;
    child.sender = w.index;
    child.node = node;
    child.side = Side::Left;
    child.tag = tag;
    // assign reuses the recycled item's capacity
    child.token.wmes.assign(token.begin(), token.end());
    const BetaNode& dest = engine.net_.beta(node);
    w.join.left_operands(dest, token, child.operands);
    child.bucket = w.join.bucket_of(dest, child.operands);
    engine.route(w, std::move(child));
  }
  void instantiation(ProductionId pid, std::span<const WmeId> token,
                     Tag tag) {
    w.deltas.push_back(ConflictDelta{pid, tag, w.round,
                                     static_cast<std::uint32_t>(token.size()),
                                     w.delta_wmes.size()});
    w.delta_wmes.insert(w.delta_wmes.end(), token.begin(), token.end());
  }
};

void ParallelEngine::process_item(Worker& w, const WorkItem& item) {
  ++w.wstats.activations;
  ++w.phase_activations;
  // Only a listener reads activation records, so only then does the
  // activation get a provisional id and a record (see merge_phase).
  const std::uint64_t provisional_id =
      listener_ == nullptr ? 0
                           : (static_cast<std::uint64_t>(w.index + 1) << 40) |
                                 w.phase_activations;
  // Per-bucket load accounting: tokens touched = opposite-memory
  // candidates compared (comparisons delta) plus the activation itself.
  const std::uint64_t before = w.join.stats().comparisons;
  WorkerSink sink{*this, w, provisional_id};
  const BetaNode& node = net_.beta(item.node);
  const rete::JoinEmitted emitted =
      item.side == Side::Left
          ? w.join.left_activation(node, item.tag, item.token.wmes,
                                   item.operands, item.bucket, sink)
          : w.join.right_activation(node, item.tag, item.wme, item.operands,
                                    item.bucket, sink);
  if (provisional_id != 0) {
    PendingRecord& pr = w.records.emplace_back();
    pr.provisional_id = provisional_id;
    pr.provisional_parent = item.parent;
    pr.round = w.round;
    pr.rec.node = item.node;
    pr.rec.side = item.side;
    pr.rec.tag = item.tag;
    pr.rec.bucket = item.bucket;
    pr.rec.successors = emitted.successors;
    pr.rec.instantiations = emitted.instantiations;
  }
  if (w.lane != nullptr) {
    w.lane->bucket_load(item.bucket, w.join.stats().comparisons - before + 1);
  }
}

void ParallelEngine::route(Worker& w, WorkItem item) {
  const std::uint32_t owner = owner_map_[item.bucket];
  std::vector<WorkItem>& box = w.outbox[w.round & 1][owner];
  ++w.routed;
  if (owner == w.index) {
    ++w.wstats.local_deliveries;
    box.push_back(std::move(item));
  } else {
    ++w.wstats.messages_sent;
    if (w.lane == nullptr) {
      box.push_back(std::move(item));
    } else {
      // Cross-worker pushes nest inside the match loop; the accumulated
      // time rides on the Match span's aux and reports re-attribute it
      // to MailboxEnqueue so the categories stay disjoint.
      const auto push_start = obs::ProfLane::now();
      box.push_back(std::move(item));
      w.prof_enqueue_ns += ns_between(push_start, obs::ProfLane::now());
    }
  }
}

void ParallelEngine::require_usable() const {
  if (failure_.has_value()) {
    throw RuntimeError("ParallelEngine: poisoned by a failed phase: " +
                       *failure_);
  }
}

void ParallelEngine::process_change(const ops5::WmeChange& change) {
  require_usable();
  if (batching_) {
    pending_batch_.push_back(change);
    return;
  }
  run_phase(&change, 1);
}

void ParallelEngine::process_change(ops5::WmeChange&& change) {
  require_usable();
  if (batching_) {
    pending_batch_.push_back(std::move(change));
    return;
  }
  run_phase(&change, 1);
}

void ParallelEngine::process_changes(std::span<const ops5::WmeChange> changes) {
  require_usable();
  if (batching_) {
    pending_batch_.insert(pending_batch_.end(), changes.begin(),
                          changes.end());
    return;
  }
  if (changes.empty()) return;
  // Compatibility shim: since the serving PR, begin_batch()/flush() is the
  // one way phases run — this routes each max_batch-sized chunk through an
  // implicit transaction (one fused phase per chunk, exactly the chunking
  // this function did directly before).
  const std::size_t chunk =
      options_.max_batch == 0 ? changes.size() : options_.max_batch;
  for (std::size_t i = 0; i < changes.size(); i += chunk) {
    const std::size_t n = std::min(chunk, changes.size() - i);
    begin_batch();
    for (std::size_t j = 0; j < n; ++j) process_change(changes[i + j]);
    flush();
  }
}

void ParallelEngine::begin_batch() {
  require_usable();
  if (batching_) {
    throw RuntimeError("ParallelEngine: a batch is already open");
  }
  batching_ = true;
}

void ParallelEngine::flush() {
  require_usable();
  if (!batching_) {
    throw RuntimeError("ParallelEngine: no open batch to flush");
  }
  batching_ = false;
  if (pending_batch_.empty()) return;
  run_phase(pending_batch_.data(), pending_batch_.size());
  pending_batch_.clear();
}

void ParallelEngine::run_phase(const ops5::WmeChange* changes,
                               std::size_t count) try {
  for (auto& w : workers_) begin_worker_phase(*w);
  rebalance_pools();
  // Per-change pre-work, in change order: the change is checked against
  // the wme table; the listener sees every change before any of the
  // batch's activations; adds enter the wme table so operands can be read
  // from them; single-positive-CE productions update the conflict set
  // directly (same scan order as the serial engine); and each alpha
  // successor's root has its operands read once and is handed to its
  // bucket's owner, so every owner's round 0 lists its roots in change
  // order.
  deleted_.clear();
  for (std::size_t c = 0; c < count; ++c) {
    const ops5::WmeChange& change = changes[c];
    wmes_.check(change);
    if (listener_ != nullptr) listener_->on_wme_change(change);
    const Tag tag =
        change.kind == ops5::WmeChange::Kind::Add ? Tag::Plus : Tag::Minus;
    const WmeId root = change.wme.id();
    if (tag == Tag::Plus) {
      wmes_.insert(change.wme);
    } else {
      deleted_.push_back(root);
    }
    for (const AlphaNode& alpha : net_.alphas()) {
      if (!alpha.matches(change.wme)) continue;
      for (ProductionId pid : alpha.direct_productions) {
        rete::update_conflict_set(conflict_, pid, {&root, 1}, tag);
      }
      for (const AlphaSuccessor& succ : alpha.successors) {
        seed_root(root, succ, tag, root_operands_);
      }
    }
  }
  // The table keeps a deleted wme until the phase ends, so `check` passes
  // a second delete of it in the same phase.
  std::sort(deleted_.begin(), deleted_.end());
  if (const auto twice = std::adjacent_find(deleted_.begin(), deleted_.end());
      twice != deleted_.end()) {
    throw RuntimeError("delete of wme id " + std::to_string(twice->value()) +
                       ", which is not live");
  }
  const std::uint64_t rounds_before = rounds_executed_;
  const auto phase_wall_start =
      control_lane_ == nullptr ? Clock::time_point{} : Clock::now();
  if (threaded()) {
    std::unique_lock<std::mutex> lock(mu_);
    ++phase_gen_;
    start_cv_.notify_all();
    done_cv_.wait(lock, [&] { return workers_done_ == threads_; });
    workers_done_ = 0;
  } else {
    if (options_.schedule != nullptr) options_.schedule->begin_phase(phases_);
    run_cooperative_phase();
  }
  for (const auto& w : workers_) {
    if (w->error != nullptr) std::rethrow_exception(w->error);
  }
  if (control_lane_ == nullptr) {
    merge_phase();
  } else {
    // Control-thread merge runs while the workers are parked, so it is
    // reported on its own lane, on top of (not inside) the worker walls.
    // The control lane's phase spans (handshake start → merge end) are
    // the engine-wall denominator percentage reports normalize the
    // conflict-update time against — which is why conflict_update_pct
    // can no longer exceed 100.
    std::uint64_t merged = 0;
    for (const auto& w : workers_) {
      merged += w->phase_activations + w->deltas.size();
    }
    const auto merge_start = obs::ProfLane::now();
    merge_phase();
    const auto merge_end = obs::ProfLane::now();
    control_lane_->span(obs::ProfCategory::ConflictUpdate,
                        static_cast<std::uint32_t>(rounds_before),
                        control_lane_->stamp(merge_start),
                        control_lane_->stamp(merge_end), merged);
    control_lane_->phase_span(control_lane_->stamp(phase_wall_start),
                              control_lane_->stamp(merge_end));
    options_.profiler->add_phase(rounds_executed_ - rounds_before, count);
  }
  for (WmeId id : deleted_) wmes_.erase(id);
  ++phases_;
  changes_ += count;
  collect_stats();
  flush_metrics();
} catch (const std::exception& e) {
  failure_ = e.what();
  pending_batch_.clear();
  throw;
} catch (...) {
  failure_ = "unknown exception";
  pending_batch_.clear();
  throw;
}

void ParallelEngine::merge_phase() {
  // Deterministic causal merge: round-major, worker-minor, per-worker
  // emission order.  Rounds are BFS levels, so a parent's record is always
  // assigned its final id before any of its children are remapped; at one
  // thread this order IS the serial engine's FIFO order.  A controller
  // may permute the order of one round's conflict deltas (worker-minor is
  // just one admissible linearization); records keep theirs, because
  // parents must be remapped before their children.
  ScheduleControl* const sched = options_.schedule;
  remap_.clear();
  for (auto& w : workers_) {
    w->merged_records = 0;
    w->merged_deltas = 0;
    if (listener_ == nullptr) {
      // No one sees records, so none were made: only the ids they would
      // take advance.
      next_activation_ += w->phase_activations;
    }
  }
  std::vector<ScheduledOp> ops;
  std::vector<std::uint32_t> order;
  auto all_merged = [&] {
    for (const auto& w : workers_) {
      if (w->merged_records < w->records.size()) return false;
      if (w->merged_deltas < w->deltas.size()) return false;
    }
    return true;
  };
  for (std::uint32_t round = 0; !all_merged(); ++round) {
    for (auto& w : workers_) {
      while (w->merged_records < w->records.size() &&
             w->records[w->merged_records].round == round) {
        PendingRecord& pr = w->records[w->merged_records++];
        ActivationRecord rec = pr.rec;
        rec.id = ActivationId{next_activation_++};
        remap_.emplace(pr.provisional_id, rec.id);
        rec.parent = pr.provisional_parent == 0
                         ? ActivationId::invalid()
                         : remap_.at(pr.provisional_parent);
        if (listener_ != nullptr) listener_->on_activation(rec);
      }
    }
    merge_group_.clear();
    ops.clear();
    for (auto& w : workers_) {
      for (std::uint64_t seq = 0; w->merged_deltas < w->deltas.size() &&
                                  w->deltas[w->merged_deltas].round == round;
           ++seq) {
        const ConflictDelta& d = w->deltas[w->merged_deltas++];
        const MergedDelta& m = merge_group_.emplace_back(MergedDelta{
            d.pid, {w->delta_wmes.data() + d.begin, d.size}, d.tag});
        if (sched != nullptr) {
          ops.push_back(ScheduledOp{
              w->index, seq,
              static_cast<std::uint32_t>(delta_dependence_hash(m)),
              delta_identity_hash(m)});
        }
      }
    }
    if (sched != nullptr && !merge_group_.empty()) {
      sched->order_merge(round, ops, order);
      require_permutation(order, merge_group_.size(), "order_merge");
      reorder_by(merge_group_, order);
    }
    for (const MergedDelta& d : merge_group_) {
      rete::update_conflict_set(conflict_, d.pid, d.token, d.tag);
    }
  }
}

void ParallelEngine::collect_stats() {
  stats_ = rete::EngineStats{};
  for (const auto& w : workers_) {
    const rete::EngineStats& s = w->join.stats();
    stats_.left_activations += s.left_activations;
    stats_.right_activations += s.right_activations;
    stats_.tokens_generated += s.tokens_generated;
    stats_.comparisons += s.comparisons;
    stats_.stale_deletes += s.stale_deletes;
  }
}

std::vector<WorkerStats> ParallelEngine::worker_stats() const {
  std::vector<WorkerStats> out;
  out.reserve(threads_);
  for (const auto& w : workers_) {
    WorkerStats s = w->wstats;
    s.pooled_items = w->pool.size();
    out.push_back(s);
  }
  return out;
}

void ParallelEngine::flush_metrics() {
  if (options_.metrics == nullptr) return;
  std::size_t live = 0;
  for (const auto& w : workers_) live += w->join.live_tokens();
  mirror_.flush(stats_, live);
  const std::vector<WorkerStats> current = worker_stats();
  std::uint64_t messages = 0;
  std::uint64_t local = 0;
  std::uint64_t overflows = 0;
  for (std::uint32_t i = 0; i < threads_; ++i) {
    messages += current[i].messages_sent - flushed_workers_[i].messages_sent;
    local +=
        current[i].local_deliveries - flushed_workers_[i].local_deliveries;
    overflows +=
        current[i].mailbox_overflows - flushed_workers_[i].mailbox_overflows;
    instr_.busy[i]->add(current[i].busy_ns - flushed_workers_[i].busy_ns);
    instr_.idle[i]->add(current[i].idle_ns - flushed_workers_[i].idle_ns);
  }
  instr_.messages->add(messages);
  instr_.local->add(local);
  instr_.overflows->add(overflows);
  instr_.rounds->add(rounds_executed_ - flushed_rounds_);
  instr_.phases->add(phases_ - flushed_phases_);
  instr_.changes->add(changes_ - flushed_changes_);
  for (const auto& w : workers_) {
    for (std::uint64_t depth : w->received) {
      instr_.mailbox_depth->observe(static_cast<std::int64_t>(depth));
    }
  }
  flushed_workers_ = current;
  flushed_rounds_ = rounds_executed_;
  flushed_phases_ = phases_;
  flushed_changes_ = changes_;
}

rete::MatchEngineFactory parallel_engine_factory(ParallelOptions options) {
  return [options](const rete::Network& net, const rete::EngineOptions& eopts)
             -> std::unique_ptr<rete::MatchEngine> {
    eopts.validate();
    ParallelOptions merged = options;
    if (merged.num_buckets == 0 && !merged.assignment.has_value()) {
      merged.num_buckets = eopts.num_buckets;
    }
    if (merged.metrics == nullptr) merged.metrics = eopts.metrics;
    return std::make_unique<ParallelEngine>(net, merged);
  };
}

sim::Assignment greedy_static(const trace::Trace& trace, std::uint32_t threads,
                              const sim::CostModel& costs) {
  std::vector<std::uint64_t> total(trace.num_buckets, 0);
  for (std::size_t c = 0; c < trace.cycles.size(); ++c) {
    const std::vector<std::uint64_t> cost = sim::bucket_costs(trace, c, costs);
    for (std::uint32_t b = 0; b < trace.num_buckets; ++b) total[b] += cost[b];
  }
  return sim::Assignment::fixed(sim::greedy_map(total, threads), threads);
}

}  // namespace mpps::pmatch
