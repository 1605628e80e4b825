#include "src/serve/serve.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace mpps::serve {

namespace {

constexpr char kSessionAttrText[] = "__mpps-session";

}  // namespace

Symbol session_attr() {
  static const Symbol attr = Symbol::intern(kSessionAttrText);
  return attr;
}

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
        const std::vector<WmeId>& token = inst.token.wmes;
        deltas_.push_back(PhaseDelta{inst.production, added, kNoSlot,
                                     static_cast<std::uint32_t>(token.size()),
                                     delta_wmes_.size()});
        delta_wmes_.insert(delta_wmes_.end(), token.begin(), token.end());
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

void ServeEngine::resolve(SessionState& s, Pending& p, TxResult& result) {
  const std::uint32_t ordinal = p.ordinal;
  if (p.close) {
    // Eviction: retract everything live, smallest timetag first (a
    // deterministic order so replays compare).
    std::vector<std::uint64_t> doomed;
    doomed.reserve(s.live.size());
    for (const auto& entry : s.live) doomed.push_back(entry.first);
    std::sort(doomed.begin(), doomed.end());
    Transaction retraction;
    for (std::uint64_t local : doomed) retraction.remove(WmeId{local});
    p.tx = std::move(retraction);
  }
  const auto reject = [ordinal](const std::string& what) {
    throw UsageError("ServeEngine: session " + std::to_string(ordinal) +
                     ": " + what);
  };
  // One pass validates each op against the live set with this
  // transaction's earlier ops applied (add-then-remove inside one
  // transaction is legal, remove-then-remove is not), applies it, and
  // appends its engine change.  touched_ lists every id whose mark the
  // transaction set, so committing or undoing it visits only those.
  const std::uint64_t base = std::uint64_t{ordinal} << kSessionShift;
  const std::size_t first_change = changes_.size();
  std::uint64_t next_local = s.next_local;
  std::size_t removed = 0;  // ids marked removed, still in s.live
  touched_.clear();
  try {
    for (Transaction::Op& op : p.tx.ops_) {
      if (op.kind == Transaction::Op::Kind::Add) {
        std::uint64_t local = 0;
        if (op.wme.id().valid()) {
          local = op.wme.id().value();
          if (local == 0 || local > kLocalMask) {
            reject("wme id " + std::to_string(local) +
                   " outside the 40-bit session-local id space");
          }
          next_local = std::max(next_local, local + 1);
        } else {
          local = next_local++;
        }
        const auto [it, fresh] = s.live.try_emplace(local);
        if (!fresh) {
          // The engine's per-phase wme table cannot hold two lifetimes of
          // one timetag in a single fused phase; OPS5 modify semantics
          // use a fresh timetag anyway.
          reject("wme id " + std::to_string(local) +
                 (it->second.removed
                      ? " re-added after a remove in the same transaction "
                        "(use a fresh id)"
                      : " is already live"));
        }
        touched_.push_back(local);
        it->second.add = static_cast<std::uint32_t>(changes_.size() + 1);
        if (s.max_live_wmes != 0 && s.live.size() - removed > s.max_live_wmes) {
          reject("transaction exceeds the session's max_live_wmes bound (" +
                 std::to_string(s.max_live_wmes) + ")");
        }
        result.added.push_back(WmeId{local});
        ops5::WmeChange& change = changes_.emplace_back();
        change.wme = std::move(op.wme);
        change.wme.set(session_attr(), ops5::Value{static_cast<long>(ordinal)});
        change.wme.rebind_id(WmeId{base | local});
      } else {
        const auto it = s.live.find(op.local);
        if (it == s.live.end() || it->second.removed) {
          reject("remove of unknown wme id " + std::to_string(op.local));
        }
        TxMark& mark = it->second;
        mark.removed = true;
        ++removed;
        if (mark.add == 0) touched_.push_back(op.local);
        ops5::WmeChange& change = changes_.emplace_back();
        change.kind = ops5::WmeChange::Kind::Delete;
        // Deletes carry full content: from this transaction's own add if
        // the wme never reached the engine, else from the engine's table.
        if (mark.add != 0) {
          change.wme = changes_[mark.add - 1].wme;
        } else {
          const WmeId engine_id{base | op.local};
          change.wme = engine_->wme(engine_id);
          change.wme.rebind_id(engine_id);
        }
      }
    }
  } catch (const UsageError&) {
    for (std::uint64_t local : touched_) {
      const auto it = s.live.find(local);
      if (it->second.add != 0) {
        s.live.erase(it);
      } else {
        it->second.removed = false;
      }
    }
    changes_.erase(changes_.begin() + static_cast<std::ptrdiff_t>(first_change),
                   changes_.end());
    throw;
  }
  for (std::uint64_t local : touched_) {
    const auto it = s.live.find(local);
    if (it->second.removed) {
      s.live.erase(it);
    } else {
      it->second = TxMark{};
    }
  }
  s.next_local = next_local;
  if (p.close) {
    s.open = false;
    ++counters_.sessions_closed;
    if (sessions_gauge_ != nullptr) sessions_gauge_->add(-1);
  }
}

void ServeEngine::admit() {
  ++admission_;
  for (auto it = queue_.begin();
       it != queue_.end() && batch_.size() < options_.admission_batch;) {
    SessionState& s = sessions_[it->ordinal];
    if (s.admission == admission_) {
      ++it;  // one transaction per session per phase
      continue;
    }
    s.admission = admission_;
    Admitted& a = batch_.emplace_back(std::move(*it));
    it = queue_.erase(it);
    try {
      resolve(s, a.pending, a.result);
      s.slot = static_cast<std::uint32_t>(batch_.size() - 1);
    } catch (const UsageError&) {
      ++counters_.rejected;
      ++counters_.transactions;
      s.slot = kNoSlot;
      a.pending.promise.set_exception(std::current_exception());
      batch_.pop_back();
    }
  }
  if (queue_gauge_ != nullptr) {
    queue_gauge_->set(static_cast<std::int64_t>(queue_.size()));
  }
}

void ServeEngine::dispatcher_main() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and fully drained
      admit();
    }
    space_cv_.notify_all();
    if (batch_.empty()) continue;

    // The fused BSP phase.  Only this thread drives the engine, so the
    // conflict-delta hook's appends to deltas_ are unsynchronized by
    // design.
    const std::size_t change_count = changes_.size();
    engine_->begin_batch();
    for (ops5::WmeChange& change : changes_) {
      engine_->process_change(std::move(change));
    }
    changes_.clear();
    engine_->flush();

    {
      std::lock_guard<std::mutex> lock(mu_);
      complete(change_count);
    }
    const auto now = std::chrono::steady_clock::now();
    for (Admitted& a : batch_) {
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
    batch_.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      last_complete_ = now;
    }
  }
}

std::uint32_t ServeEngine::owner_of(const PhaseDelta& d) const {
  // Every wme of a token carries its session in the id's top bits; the
  // partition join test makes mixed tokens impossible, so any
  // disagreement (or a session outside this batch) is a leak.
  const std::span<const WmeId> token(delta_wmes_.data() + d.begin, d.size);
  if (token.empty()) return kNoSlot;
  const std::uint32_t sid = session_of(token.front());
  for (WmeId w : token) {
    if (session_of(w) != sid) return kNoSlot;
  }
  if (sid >= sessions_.size() || sessions_[sid].admission != admission_) {
    return kNoSlot;
  }
  return sessions_[sid].slot;
}

void ServeEngine::complete(std::size_t change_count) {
  const std::uint64_t phase = engine_->phases();
  const auto fused = static_cast<std::uint32_t>(batch_.size());
  for (Admitted& a : batch_) {
    a.result.phase = phase;
    a.result.fused_transactions = fused;
  }
  // Two passes, so each transaction's `fired` is sized once.
  for (PhaseDelta& d : deltas_) {
    d.owner = owner_of(d);
    if (d.owner == kNoSlot) {
      ++counters_.cross_session_deltas;
      if (cross_metric_ != nullptr) cross_metric_->add(1);
    } else if (d.added) {
      ++batch_[d.owner].fired;
    }
  }
  for (Admitted& a : batch_) a.result.fired.reserve(a.fired);
  for (const PhaseDelta& d : deltas_) {
    if (d.owner == kNoSlot) continue;
    Admitted& owner = batch_[d.owner];
    if (d.added) {
      const WmeId* token = delta_wmes_.data() + d.begin;
      owner.result.fired.push_back(rete::Instantiation{
          d.production, rete::Token{{token, token + d.size}}});
      ++counters_.activations;
      sessions_[owner.pending.ordinal].activations += 1;
      if (activation_metric_ != nullptr) activation_metric_->add(1);
    } else {
      ++owner.result.retracted;
      ++counters_.retractions;
      if (retraction_metric_ != nullptr) retraction_metric_->add(1);
    }
  }
  deltas_.clear();
  delta_wmes_.clear();
  ++counters_.batches;
  counters_.changes += change_count;
  counters_.transactions += batch_.size();
  counters_.max_fused =
      std::max(counters_.max_fused, static_cast<std::uint64_t>(batch_.size()));
  if (tx_metric_ != nullptr) tx_metric_->add(batch_.size());
  for (const Admitted& a : batch_) {
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
