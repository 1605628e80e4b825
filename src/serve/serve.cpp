#include "src/serve/serve.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace mpps::serve {

namespace {

constexpr char kSessionAttrText[] = "__mpps-session";

}  // namespace

Symbol session_attr() { return Symbol::intern(kSessionAttrText); }

void ServeOptions::validate() const {
  if (admission_batch == 0) {
    throw UsageError("ServeOptions: admission_batch must be positive");
  }
  if (queue_capacity == 0) {
    throw UsageError("ServeOptions: queue_capacity must be positive");
  }
  if (max_sessions == 0) {
    throw UsageError("ServeOptions: max_sessions must be positive");
  }
  if (match.schedule != nullptr) {
    throw UsageError(
        "ServeOptions: match.schedule must be null (serving drives real "
        "threads, not a model-checking controller)");
  }
  match.validate();
}

ServeEngine::ServeEngine(const ops5::Program& program, ServeOptions options)
    : options_(validated(std::move(options))),
      net_([&] {
        rete::CompileOptions copts = options_.compile;
        copts.partition_attr = session_attr();
        return rete::Network::compile(program, copts);
      }()),
      // 1us .. ~33.5s in powers of two: fine enough at the bottom for
      // in-memory matching, wide enough at the top for soak-length stalls.
      latency_hist_(obs::Histogram::exponential_bounds(1, 2.0, 26)) {
  // Phase boundaries are the admission batches; a max_batch chunk inside
  // one would split a transaction across phases.
  options_.match.max_batch = 0;
  if (options_.match.metrics == nullptr) {
    options_.match.metrics = options_.metrics;
  }
  engine_ =
      std::make_unique<pmatch::ParallelEngine>(net_, options_.match);
  engine_->conflict_set().set_delta_hook(
      [this](const rete::Instantiation& inst, bool added) {
        phase_deltas_.emplace_back(inst, added);
      });
  if (options_.metrics != nullptr) {
    obs::Registry& reg = *options_.metrics;
    latency_metric_ = &reg.histogram("serve.tx_latency_us",
                                     latency_hist_.bounds());
    queue_gauge_ = &reg.gauge("serve.queue_depth");
    sessions_gauge_ = &reg.gauge("serve.sessions_open");
    tx_metric_ = &reg.counter("serve.transactions");
    activation_metric_ = &reg.counter("serve.activations");
    retraction_metric_ = &reg.counter("serve.retractions");
    cross_metric_ = &reg.counter("serve.cross_session_deltas");
  }
  dispatcher_ = std::thread([this] { dispatcher_main(); });
}

ServeEngine::~ServeEngine() { shutdown(); }

void ServeEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

Session ServeEngine::open_session(SessionOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) throw RuntimeError("ServeEngine: engine is shut down");
  std::uint64_t open_count = 0;
  for (const SessionState& s : sessions_) {
    if (s.open) ++open_count;
  }
  if (open_count >= options_.max_sessions) {
    throw RuntimeError("ServeEngine: session limit reached (" +
                       std::to_string(options_.max_sessions) +
                       " open; close or evict one first)");
  }
  const auto ordinal = static_cast<std::uint32_t>(sessions_.size());
  if (ordinal >= (std::uint32_t{1} << 24)) {
    throw RuntimeError("ServeEngine: session ordinal space exhausted");
  }
  SessionState state;
  state.label = options.label.empty() ? "s" + std::to_string(ordinal)
                                      : std::move(options.label);
  state.max_live_wmes = options.max_live_wmes;
  if (options_.metrics != nullptr) {
    obs::Registry& reg = *options_.metrics;
    state.wm_gauge =
        &reg.gauge("serve.session_wm", {{"session", state.label}});
    state.tx_counter =
        &reg.counter("serve.session_tx", {{"session", state.label}});
  }
  sessions_.push_back(std::move(state));
  ++counters_.sessions_opened;
  if (sessions_gauge_ != nullptr) sessions_gauge_->add(1);
  return Session(this, ordinal);
}

std::future<TxResult> ServeEngine::enqueue(std::uint32_t ordinal,
                                           Transaction tx, bool close) {
  Pending p;
  p.ordinal = ordinal;
  p.close = close;
  p.tx = std::move(tx);
  p.enqueued = std::chrono::steady_clock::now();
  std::future<TxResult> future = p.promise.get_future();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (ordinal >= sessions_.size()) {
      throw RuntimeError("ServeEngine: unknown session " +
                         std::to_string(ordinal));
    }
    SessionState& s = sessions_[ordinal];
    if (stop_ || !s.open || (s.closing && !close)) {
      throw RuntimeError("ServeEngine: session " + std::to_string(ordinal) +
                         " is closed");
    }
    if (close) {
      if (s.closing) {
        throw RuntimeError("ServeEngine: session " + std::to_string(ordinal) +
                           " is already being closed");
      }
      s.closing = true;
    }
    space_cv_.wait(lock, [this] {
      return stop_ || queue_.size() < options_.queue_capacity;
    });
    if (stop_) {
      throw RuntimeError("ServeEngine: engine is shut down");
    }
    if (!saw_tx_) {
      saw_tx_ = true;
      first_enqueue_ = p.enqueued;
    }
    queue_.push_back(std::move(p));
    counters_.max_queue_depth =
        std::max(counters_.max_queue_depth,
                 static_cast<std::uint64_t>(queue_.size()));
    if (queue_gauge_ != nullptr) {
      queue_gauge_->set(static_cast<std::int64_t>(queue_.size()));
    }
  }
  work_cv_.notify_one();
  return future;
}

std::future<TxResult> ServeEngine::evict(std::uint32_t session_id) {
  return enqueue(session_id, Transaction{}, /*close=*/true);
}

void ServeEngine::resolve(SessionState& s, std::uint32_t ordinal, Pending& p,
                          std::vector<ops5::WmeChange>& changes,
                          Admitted& out) {
  const std::string who = "session " + std::to_string(ordinal);
  // Pass 1: validate against the session's live set with this
  // transaction's own effects applied — add-then-remove inside one
  // transaction is legal, remove-then-remove is not.
  std::unordered_set<std::uint64_t> live = s.live;
  std::unordered_set<std::uint64_t> removed_in_tx;
  std::uint64_t next_local = s.next_local;
  std::vector<std::uint64_t> locals;  // per Add op, the id it gets
  if (p.close) {
    // Eviction: retract everything live, smallest timetag first (a
    // deterministic order so replays compare).
    std::vector<std::uint64_t> doomed(s.live.begin(), s.live.end());
    std::sort(doomed.begin(), doomed.end());
    Transaction retraction;
    for (std::uint64_t local : doomed) retraction.remove(WmeId{local});
    p.tx = std::move(retraction);
  }
  for (const Transaction::Op& op : p.tx.ops_) {
    if (op.kind == Transaction::Op::Kind::Add) {
      std::uint64_t local = 0;
      if (op.wme.id().valid()) {
        local = op.wme.id().value();
        if (local == 0 || local > kLocalMask) {
          throw UsageError("ServeEngine: " + who + ": wme id " +
                           std::to_string(local) +
                           " outside the 40-bit session-local id space");
        }
        if (live.contains(local)) {
          throw UsageError("ServeEngine: " + who + ": wme id " +
                           std::to_string(local) + " is already live");
        }
        if (removed_in_tx.contains(local)) {
          // The engine's per-phase wme table cannot hold two lifetimes of
          // one timetag in a single fused phase; OPS5 modify semantics
          // use a fresh timetag anyway.
          throw UsageError("ServeEngine: " + who + ": wme id " +
                           std::to_string(local) +
                           " re-added after a remove in the same "
                           "transaction (use a fresh id)");
        }
        next_local = std::max(next_local, local + 1);
      } else {
        local = next_local++;
      }
      live.insert(local);
      if (s.max_live_wmes != 0 && live.size() > s.max_live_wmes) {
        throw UsageError("ServeEngine: " + who + ": transaction exceeds the "
                         "session's max_live_wmes bound (" +
                         std::to_string(s.max_live_wmes) + ")");
      }
      locals.push_back(local);
    } else {
      if (op.local == 0 || op.local > kLocalMask ||
          !live.erase(op.local)) {
        throw UsageError("ServeEngine: " + who + ": remove of unknown wme id " +
                         std::to_string(op.local));
      }
      removed_in_tx.insert(op.local);
    }
  }
  // Pass 2: build the stamped, namespaced engine changes and commit the
  // liveness updates.
  const std::uint64_t base = std::uint64_t{ordinal} << kSessionShift;
  out.first_change = changes.size();
  // Local id -> index (into `changes`) of this transaction's own add, so
  // an add+remove pair fused into one phase carries matching content.
  std::unordered_map<std::uint64_t, std::size_t> tx_adds;
  std::size_t add_index = 0;
  for (const Transaction::Op& op : p.tx.ops_) {
    ops5::WmeChange change;
    if (op.kind == Transaction::Op::Kind::Add) {
      const std::uint64_t local = locals[add_index++];
      change.kind = ops5::WmeChange::Kind::Add;
      change.wme = op.wme;
      change.wme.set(session_attr(),
                     ops5::Value{static_cast<long>(ordinal)});
      change.wme.rebind_id(WmeId{base | local});
      out.result.added.push_back(WmeId{local});
      tx_adds[local] = changes.size();
    } else {
      change.kind = ops5::WmeChange::Kind::Delete;
      const WmeId engine_id{base | op.local};
      // Deletes carry full content: from this transaction's own add if
      // the wme never reached the engine, else from the engine's table.
      if (auto it = tx_adds.find(op.local); it != tx_adds.end()) {
        change.wme = changes[it->second].wme;
        tx_adds.erase(it);
      } else {
        change.wme = engine_->wme(engine_id);
        change.wme.rebind_id(engine_id);
      }
    }
    changes.push_back(std::move(change));
  }
  out.change_count = changes.size() - out.first_change;
  s.live = std::move(live);
  s.next_local = next_local;
  if (p.close) {
    s.open = false;
    ++counters_.sessions_closed;
    if (sessions_gauge_ != nullptr) sessions_gauge_->add(-1);
  }
}

std::vector<ServeEngine::Admitted> ServeEngine::admit(
    std::vector<ops5::WmeChange>& changes) {
  std::vector<Admitted> batch;
  std::unordered_set<std::uint32_t> taken;
  for (auto it = queue_.begin();
       it != queue_.end() && batch.size() < options_.admission_batch;) {
    if (!taken.insert(it->ordinal).second) {
      ++it;  // one transaction per session per phase
      continue;
    }
    Admitted a;
    a.pending = std::move(*it);
    it = queue_.erase(it);
    SessionState& s = sessions_[a.pending.ordinal];
    try {
      resolve(s, a.pending.ordinal, a.pending, changes, a);
      batch.push_back(std::move(a));
    } catch (const UsageError&) {
      ++counters_.rejected;
      ++counters_.transactions;
      a.pending.promise.set_exception(std::current_exception());
    }
  }
  if (queue_gauge_ != nullptr) {
    queue_gauge_->set(static_cast<std::int64_t>(queue_.size()));
  }
  return batch;
}

void ServeEngine::dispatcher_main() {
  for (;;) {
    std::vector<ops5::WmeChange> changes;
    std::vector<Admitted> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and fully drained
      batch = admit(changes);
    }
    space_cv_.notify_all();
    if (batch.empty()) continue;

    // The fused BSP phase.  Only this thread drives the engine, so the
    // conflict-delta hook's appends to phase_deltas_ are unsynchronized
    // by design.
    phase_deltas_.clear();
    engine_->begin_batch();
    for (const ops5::WmeChange& change : changes) {
      engine_->process_change(change);
    }
    engine_->flush();

    {
      std::lock_guard<std::mutex> lock(mu_);
      complete(batch, changes.size());
    }
    const auto now = std::chrono::steady_clock::now();
    for (Admitted& a : batch) {
      a.result.latency_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - a.pending.enqueued)
              .count());
      latency_hist_.observe(
          static_cast<std::int64_t>(a.result.latency_ns / 1000));
      if (latency_metric_ != nullptr) {
        latency_metric_->observe(
            static_cast<std::int64_t>(a.result.latency_ns / 1000));
      }
      a.pending.promise.set_value(std::move(a.result));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      last_complete_ = now;
    }
  }
}

void ServeEngine::complete(std::vector<Admitted>& batch,
                           std::size_t change_count) {
  std::unordered_map<std::uint32_t, Admitted*> by_session;
  for (Admitted& a : batch) {
    by_session.emplace(a.pending.ordinal, &a);
    a.result.phase = engine_->phases();
    a.result.fused_transactions = static_cast<std::uint32_t>(batch.size());
  }
  for (auto& [inst, added] : phase_deltas_) {
    // Every wme of a token carries its session in the id's top bits; the
    // partition join test makes mixed tokens impossible, so any
    // disagreement (or a session outside this batch) is a leak.
    Admitted* owner = nullptr;
    bool leaked = inst.token.wmes.empty();
    for (std::size_t i = 0; i < inst.token.wmes.size(); ++i) {
      const std::uint32_t sid = session_of(inst.token.wmes[i]);
      if (i == 0) {
        auto it = by_session.find(sid);
        if (it == by_session.end()) {
          leaked = true;
          break;
        }
        owner = it->second;
      } else if (sid != session_of(inst.token.wmes[0])) {
        leaked = true;
        break;
      }
    }
    if (leaked || owner == nullptr) {
      ++counters_.cross_session_deltas;
      if (cross_metric_ != nullptr) cross_metric_->add(1);
      continue;
    }
    if (added) {
      owner->result.fired.push_back(inst);
      ++counters_.activations;
      sessions_[owner->pending.ordinal].activations += 1;
      if (activation_metric_ != nullptr) activation_metric_->add(1);
    } else {
      ++owner->result.retracted;
      ++counters_.retractions;
      if (retraction_metric_ != nullptr) retraction_metric_->add(1);
    }
  }
  phase_deltas_.clear();
  ++counters_.batches;
  counters_.changes += change_count;
  counters_.transactions += batch.size();
  counters_.max_fused =
      std::max(counters_.max_fused, static_cast<std::uint64_t>(batch.size()));
  if (tx_metric_ != nullptr) tx_metric_->add(batch.size());
  for (const Admitted& a : batch) {
    SessionState& s = sessions_[a.pending.ordinal];
    ++s.transactions;
    if (s.tx_counter != nullptr) s.tx_counter->add(1);
    if (s.wm_gauge != nullptr) {
      s.wm_gauge->set(static_cast<std::int64_t>(s.live.size()));
    }
  }
}

ServeStats ServeEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServeStats out = counters_;
  out.sessions.reserve(sessions_.size());
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    const SessionState& s = sessions_[i];
    ServeStats::SessionInfo info;
    info.id = static_cast<std::uint32_t>(i);
    info.label = s.label;
    info.open = s.open;
    info.live_wmes = s.live.size();
    info.transactions = s.transactions;
    info.activations = s.activations;
    out.sessions.push_back(std::move(info));
  }
  return out;
}

LatencyReport ServeEngine::latency_report() const {
  std::lock_guard<std::mutex> lock(mu_);
  LatencyReport r;
  r.transactions = counters_.transactions;
  r.changes = counters_.changes;
  r.activations = counters_.activations;
  if (latency_hist_.count() > 0) {
    r.p50_us = static_cast<double>(latency_hist_.quantile_bound(0.50));
    r.p95_us = static_cast<double>(latency_hist_.quantile_bound(0.95));
    r.p99_us = static_cast<double>(latency_hist_.quantile_bound(0.99));
    r.mean_us = latency_hist_.mean();
    r.max_us = static_cast<double>(latency_hist_.max());
  }
  if (saw_tx_ && last_complete_ > first_enqueue_) {
    r.wall_s = std::chrono::duration<double>(last_complete_ - first_enqueue_)
                   .count();
    r.tx_per_s = static_cast<double>(r.transactions) / r.wall_s;
    r.changes_per_s = static_cast<double>(r.changes) / r.wall_s;
    r.activations_per_s = static_cast<double>(r.activations) / r.wall_s;
  }
  return r;
}

std::vector<rete::Instantiation> ServeEngine::conflict_snapshot() const {
  return engine_->conflict_set().all();
}

std::future<TxResult> Session::submit(Transaction tx) {
  if (engine_ == nullptr) {
    throw RuntimeError("Session: handle is empty (moved-from or default)");
  }
  return engine_->enqueue(ordinal_, std::move(tx), /*close=*/false);
}

TxResult Session::transact(std::span<const ops5::WmeChange> changes) {
  Transaction tx;
  for (const ops5::WmeChange& change : changes) {
    if (change.kind == ops5::WmeChange::Kind::Add) {
      tx.add(change.wme);
    } else {
      tx.remove(change.wme.id());
    }
  }
  return transact(std::move(tx));
}

TxResult Session::close() {
  if (engine_ == nullptr) {
    throw RuntimeError("Session: handle is empty (moved-from or default)");
  }
  return engine_->evict(ordinal_).get();
}

}  // namespace mpps::serve
