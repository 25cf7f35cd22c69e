#include "service/query_service.h"

#include <chrono>
#include <utility>

#include "kernel/exec_tracer.h"
#include "mil/analyzer.h"
#include "mil/ops.h"
#include "mil/parser.h"
#include "storage/checkpoint.h"

namespace moaflat::service {
namespace {

bool Terminal(QueryState s) {
  return s == QueryState::kDone || s == QueryState::kError ||
         s == QueryState::kVetoed || s == QueryState::kCancelled;
}

}  // namespace

QueryService::QueryService(ServiceConfig cfg) : cfg_(cfg) {
  if (cfg_.executors < 1) cfg_.executors = 1;
  executors_.reserve(static_cast<size_t>(cfg_.executors));
  for (int i = 0; i < cfg_.executors; ++i) {
    executors_.emplace_back([this] { ExecutorLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(false); }

void QueryService::Shutdown(bool drain) {
  {
    MutexLock lock(mu_);
    if (drain && !stopping_) {
      // Let the backlog finish: every queued query must reach a terminal
      // state and every session go idle before the executors stop.
      while (!Quiesced()) done_cv_.Wait(lock);
      if (wal_ != nullptr && !read_only_ && !stopping_) {
        // A drained shutdown leaves a clean store — a checkpoint equal to
        // the catalog and an empty log — so the next start replays nothing.
        storage::CheckpointOptions copts;
        copts.fault = durability_fault_;
        Status st = storage::CheckpointAndTruncate(data_dir_, catalog_,
                                                   wal_.get(), copts);
        if (!st.ok()) {
          read_only_ = true;
          read_only_reason_ = st.message();
        }
      }
    }
    if (!stopping_) {
      stopping_ = true;
      // Every queued query goes terminal deterministically, with a reason a
      // waiter can read — a destroyed service never strands a kQueued query.
      for (uint64_t id : admit_order_) {
        auto q = queries_.at(id);
        q->state = QueryState::kVetoed;
        q->admission.action = Admission::kVeto;
        q->admission.reason = "service shutting down";
        q->status = Status::Cancelled("service shutting down");
        ++counters_.vetoed;
        auto sit = sessions_.find(q->session);
        if (sit != sessions_.end()) sit->second.pending--;
      }
      admit_order_.clear();
      // Running queries stop cooperatively at their next block boundary.
      for (auto& [id, q] : queries_) {
        if (q->state == QueryState::kRunning) {
          q->token.CancelWith(StatusCode::kCancelled, "service shutting down");
        }
      }
    }
  }
  work_cv_.NotifyAll();
  done_cv_.NotifyAll();
  for (std::thread& t : executors_) {
    if (t.joinable()) t.join();
  }
}

bool QueryService::Quiesced() const {
  if (!admit_order_.empty()) return false;
  for (const auto& [id, s] : sessions_) {
    if (s.busy) return false;
  }
  return true;
}

void QueryService::SetCatalog(mil::MilEnv catalog) {
  MutexLock lock(mu_);
  catalog_ = std::move(catalog);
}

Status QueryService::EnableDurability(const std::string& dir,
                                      FaultInjector* fault) {
  MutexLock lock(mu_);
  if (wal_ != nullptr) return Status::Invalid("durability already enabled");
  if (!sessions_.empty()) {
    return Status::Invalid(
        "EnableDurability must be called before any session opens");
  }
  storage::WalOptions wopts;
  wopts.fault = fault;
  MF_ASSIGN_OR_RETURN(storage::RecoveredStore store,
                      storage::RecoverStore(dir, wopts));
  catalog_ = std::move(store.env);
  wal_ = std::move(store.wal);
  data_dir_ = dir;
  durability_fault_ = fault;
  return Status::OK();
}

Status QueryService::Sync() {
  MutexLock lock(mu_);
  if (wal_ == nullptr) return Status::Invalid("durability not enabled");
  if (read_only_) {
    return Status::IoError("service is read-only (" + read_only_reason_ +
                           ")");
  }
  storage::CheckpointOptions copts;
  copts.fault = durability_fault_;
  Status st =
      storage::CheckpointAndTruncate(data_dir_, catalog_, wal_.get(), copts);
  if (!st.ok()) {
    read_only_ = true;
    read_only_reason_ = st.message();
  }
  return st;
}

bool QueryService::read_only() const {
  MutexLock lock(mu_);
  return read_only_;
}

std::string QueryService::read_only_reason() const {
  MutexLock lock(mu_);
  return read_only_reason_;
}

bool QueryService::ProgramMutates(const mil::MilProgram& program) const {
  for (const mil::MilStmt& s : program.stmts) {
    const mil::OpDecl* op = mil::ResolveOp(s.op).decl;
    if (op != nullptr && op->mutates) return true;
    if (catalog_.Has(s.var)) return true;  // rebinds a catalog name
  }
  return false;
}

Result<uint64_t> QueryService::OpenSession(SessionOptions opts) {
  MutexLock lock(mu_);
  if (sessions_.size() >= cfg_.max_sessions) {
    return Status::ResourceExhausted(
        "session limit reached (" + std::to_string(cfg_.max_sessions) + ")");
  }
  if (opts.durable && wal_ == nullptr) {
    return Status::Invalid(
        "durable session requires EnableDurability on the service");
  }
  Session s;
  s.id = next_session_++;
  s.opts = opts;
  s.env = catalog_;
  const uint64_t id = s.id;
  sessions_.emplace(id, std::move(s));
  return id;
}

Status QueryService::CloseSession(uint64_t session_id) {
  MutexLock lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::KeyError("unknown session " + std::to_string(session_id));
  }
  Session& s = it->second;
  s.closing = true;
  // Veto everything still waiting; cancel the running query cooperatively.
  for (auto wait_it = admit_order_.begin(); wait_it != admit_order_.end();) {
    auto q = queries_.at(*wait_it);
    if (q->session == session_id) {
      q->state = QueryState::kVetoed;
      q->admission.action = Admission::kVeto;
      q->admission.reason = "session closed";
      ++counters_.vetoed;
      s.pending--;
      wait_it = admit_order_.erase(wait_it);
    } else {
      ++wait_it;
    }
  }
  for (auto& [id, q] : queries_) {
    if (q->session == session_id && q->state == QueryState::kRunning) {
      q->token.CancelWith(StatusCode::kCancelled, "session closed");
    }
  }
  if (!s.busy) sessions_.erase(it);
  done_cv_.NotifyAll();
  return Status::OK();
}

Result<uint64_t> QueryService::Submit(uint64_t session_id,
                                      const std::string& mil_text) {
  MF_ASSIGN_OR_RETURN(mil::MilProgram program, mil::ParseMil(mil_text));

  MutexLock lock(mu_);
  if (stopping_) {
    return Status::Cancelled("service shutting down");
  }
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second.closing) {
    return Status::KeyError("unknown or closed session " +
                            std::to_string(session_id));
  }
  Session& s = it->second;

  // Analyze and price before anything executes: the static analyzer sees
  // the session's current bindings (including results of its earlier
  // queries). An ill-formed program is vetoed with its diagnostics — no
  // statement runs, no budget is charged.
  PlanPrice price;
  mil::AnalysisReport report = AnalyzeAndPrice(program, s.env, &price);

  auto q = std::make_shared<Query>();
  q->id = next_query_++;
  q->session = session_id;
  q->program = std::move(program);
  q->admission.diagnostics = report.diagnostics;
  q->mutating = ProgramMutates(q->program);
  q->durable = s.opts.durable && wal_ != nullptr;
  ++counters_.submitted;

  if (!report.ok()) {
    q->state = QueryState::kVetoed;
    q->admission.action = Admission::kVeto;
    q->admission.reason = "rejected by static analysis: " + report.FirstError();
    ++counters_.vetoed;
    queries_.emplace(q->id, q);
    done_cv_.NotifyAll();
    return q->id;
  }
  q->admission.predicted_cost = price.faults;

  // --- the admission decision, in veto-first order --------------------
  const double session_cap = s.opts.max_query_cost;
  const double service_cap = cfg_.max_query_cost;
  const size_t session_queue =
      s.opts.max_queued > 0 ? s.opts.max_queued : cfg_.session_queue_limit;
  std::string veto;
  if (wal_ != nullptr && read_only_ && q->mutating) {
    // Graceful degradation after a durability IO error: every mutating
    // statement is refused with the same latched reason, reads keep
    // serving. Deterministic — no mutation can slip through half-durable.
    veto = "service is read-only (" + read_only_reason_ +
           "): mutating statements are refused";
  } else if (session_cap > 0 && price.faults > session_cap) {
    veto = "predicted cost " + std::to_string(price.faults) +
           " exceeds session max_query_cost " + std::to_string(session_cap);
  } else if (service_cap > 0 && price.faults > service_cap) {
    veto = "predicted cost " + std::to_string(price.faults) +
           " exceeds service max_query_cost " + std::to_string(service_cap);
  } else if (s.pending >= session_queue) {
    veto = "session admission queue full (" + std::to_string(session_queue) +
           ")";
  } else if (admit_order_.size() >= cfg_.queue_limit) {
    veto = "service admission queue full (" +
           std::to_string(cfg_.queue_limit) + ")";
  }
  if (!veto.empty()) {
    q->state = QueryState::kVetoed;
    q->admission.action = Admission::kVeto;
    q->admission.reason = std::move(veto);
    ++counters_.vetoed;
    queries_.emplace(q->id, q);
    done_cv_.NotifyAll();
    return q->id;
  }

  // kAdmit means "starts immediately": the session is idle, nothing is
  // waiting ahead of it, and the predicted cost fits the capacity that is
  // actually reserved right now. Anything else waits its FIFO turn.
  const bool capacity_ok =
      cfg_.admit_capacity <= 0 ||
      inflight_cost_ + price.faults <= cfg_.admit_capacity;
  if (s.busy || !capacity_ok || !admit_order_.empty()) {
    q->admission.action = Admission::kQueue;
    q->admission.reason = s.busy          ? "session busy"
                          : !capacity_ok  ? "service at capacity"
                                          : "behind earlier submissions";
  } else {
    q->admission.action = Admission::kAdmit;
  }
  q->state = QueryState::kQueued;
  q->token = CancelToken::Make();  // cancellable from this moment on
  s.pending++;
  const uint64_t id = q->id;
  queries_.emplace(id, q);
  admit_order_.push_back(id);
  lock.Unlock();
  work_cv_.NotifyOne();
  return id;
}

Status QueryService::Cancel(uint64_t query_id, const std::string& reason) {
  MutexLock lock(mu_);
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::KeyError("unknown query " + std::to_string(query_id));
  }
  std::shared_ptr<Query> q = it->second;
  if (Terminal(q->state)) return Status::OK();  // idempotent
  if (q->state == QueryState::kQueued) {
    // Never started: go terminal right here, release the queue slot.
    for (auto wit = admit_order_.begin(); wit != admit_order_.end(); ++wit) {
      if (*wit == query_id) {
        admit_order_.erase(wit);
        break;
      }
    }
    q->state = QueryState::kCancelled;
    q->status = Status::Cancelled(reason);
    ++counters_.cancelled;
    auto sit = sessions_.find(q->session);
    if (sit != sessions_.end()) {
      Session& s = sit->second;
      s.pending--;
      if (s.closing && !s.busy && s.pending == 0) sessions_.erase(sit);
    }
    done_cv_.NotifyAll();
    work_cv_.NotifyAll();  // the queue head may have changed
    return Status::OK();
  }
  // Running: the shared token stops it at the next block boundary; the
  // executor marks it kCancelled when the interpreter unwinds.
  q->token.CancelWith(StatusCode::kCancelled, reason);
  return Status::OK();
}

Result<PlanPrice> QueryService::Price(uint64_t session_id,
                                      const std::string& mil_text) const {
  MF_ASSIGN_OR_RETURN(mil::MilProgram program, mil::ParseMil(mil_text));
  MutexLock lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::KeyError("unknown session " + std::to_string(session_id));
  }
  return PriceProgram(program, it->second.env);
}

Result<mil::AnalysisReport> QueryService::Check(
    uint64_t session_id, const std::string& mil_text) const {
  MF_ASSIGN_OR_RETURN(mil::MilProgram program, mil::ParseMil(mil_text));
  MutexLock lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::KeyError("unknown session " + std::to_string(session_id));
  }
  return mil::AnalyzeProgram(program, it->second.env);
}

QueryResult QueryService::Snapshot(const Query& q) const {
  QueryResult r;
  r.id = q.id;
  r.session = q.session;
  r.state = q.state;
  r.status = q.status;
  r.admission = q.admission;
  r.results = q.results;
  r.traces = q.traces;
  r.faults = q.faults;
  r.memory_charged = q.memory_charged;
  r.elapsed_us = q.elapsed_us;
  return r;
}

Result<QueryResult> QueryService::Poll(uint64_t query_id) const {
  MutexLock lock(mu_);
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::KeyError("unknown query " + std::to_string(query_id));
  }
  return Snapshot(*it->second);
}

Result<QueryResult> QueryService::Wait(uint64_t query_id) {
  MutexLock lock(mu_);
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::KeyError("unknown query " + std::to_string(query_id));
  }
  std::shared_ptr<Query> q = it->second;
  while (!Terminal(q->state)) done_cv_.Wait(lock);
  return Snapshot(*q);
}

QueryService::Stats QueryService::stats() const {
  MutexLock lock(mu_);
  Stats s = counters_;
  s.sessions_open = sessions_.size();
  s.inflight_cost = inflight_cost_;
  s.queued = admit_order_.size();
  return s;
}

std::shared_ptr<QueryService::Query> QueryService::PickRunnable() {
  for (auto it = admit_order_.begin(); it != admit_order_.end(); ++it) {
    auto q = queries_.at(*it);
    Session& s = sessions_.at(q->session);
    if (s.busy) continue;  // one query per session; later sessions may run
    if (cfg_.admit_capacity > 0 &&
        inflight_cost_ + q->admission.predicted_cost > cfg_.admit_capacity) {
      // Strict FIFO under the capacity bound: a large query at the head is
      // not overtaken by cheaper later ones, so it cannot starve.
      break;
    }
    admit_order_.erase(it);
    s.busy = true;
    inflight_cost_ += q->admission.predicted_cost;
    q->state = QueryState::kRunning;
    return q;
  }
  return nullptr;
}

void QueryService::ExecutorLoop() {
  MutexLock lock(mu_);
  for (;;) {
    while (!stopping_ && admit_order_.empty()) work_cv_.Wait(lock);
    if (stopping_) return;
    std::shared_ptr<Query> q = PickRunnable();
    if (q == nullptr) {
      // Head blocked on capacity or every waiting session busy: sleep until
      // a completion or submission changes the picture.
      work_cv_.Wait(lock);
      continue;
    }
    lock.Unlock();
    RunQuery(q);
    lock.Lock();
  }
}

void QueryService::RunQuery(const std::shared_ptr<Query>& q) {
  // Snapshot the session configuration and environment under the lock; the
  // run itself touches neither the service state nor other sessions. The
  // environment copy is cheap (columns are shared) and gives failed or
  // cancelled queries transactional behavior: bindings commit only on
  // success.
  SessionOptions opts;
  mil::MilEnv env;
  {
    MutexLock lock(mu_);
    Session& s = sessions_.at(q->session);
    opts = s.opts;
    env = s.env;
  }

  // The per-query ExecContext: own fault accountant, tracer and memory
  // charge counter (so budgets cap one query and sessions stay reusable),
  // the session's degree, and the session id as fair-share group on the
  // shared TaskPool.
  storage::IoStats io;
  kernel::ExecTracer tracer;
  kernel::ExecContext ctx;
  ctx.WithIo(&io)
      .WithTracer(&tracer)
      .WithMemoryBudget(opts.memory_budget)
      .WithParallelDegree(opts.parallel_degree)
      .WithSchedule(q->session, opts.weight)
      .WithCancelToken(q->token)
      .WithFaultInjector(opts.fault_injector);
  if (opts.default_timeout_ms > 0) ctx.WithTimeout(opts.default_timeout_ms);

  mil::MilInterpreter interp(&env, &ctx);

  const auto start = std::chrono::steady_clock::now();
  Status run = interp.Run(q->program);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  MutexLock lock(mu_);
  q->traces = interp.traces();
  q->faults = io.faults();
  q->elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();

  // --- durable commit, step 1: the log record (write-ahead) -------------
  // Under mu_ so records hit the WAL in commit order; the fsync happens
  // outside the lock below (group commit: one fsync covers every record
  // appended before it). kDone is withheld until that fsync returns.
  uint64_t commit_lsn = 0;
  bool pending_sync = false;
  storage::Wal* wal = wal_.get();  // for the out-of-lock fsync below
  if (run.ok() && q->durable && q->mutating && wal_ != nullptr) {
    if (read_only_) {
      run = Status::IoError("commit refused: service is read-only (" +
                            read_only_reason_ + ")");
    } else {
      // Physical redo images: exactly the bindings this program (re)bound,
      // as they stand after the run — replay applies them byte-for-byte,
      // no re-execution.
      std::map<std::string, mil::MilEnv::Binding> delta;
      for (const mil::MilStmt& st : q->program.stmts) {
        auto bit = env.bindings().find(st.var);
        if (bit != env.bindings().end()) delta.emplace(st.var, bit->second);
      }
      const std::string body = storage::SerializeBindings(delta);
      Result<uint64_t> lsn = wal_->Append(storage::kWalTxnCommit, body);
      if (!lsn.ok()) {
        // Nothing was applied: the catalog, the session env and the store
        // all still read as if the query never ran. Latch read-only.
        read_only_ = true;
        read_only_reason_ = lsn.status().message();
        run = lsn.status();
      } else {
        commit_lsn = *lsn;
        pending_sync = true;
        for (const auto& [name, b] : delta) catalog_.Bind(name, b);
      }
    }
  }

  if (!run.ok()) {
    // Nothing commits on failure or cancellation — the env copy and every
    // partial result are discarded (a refused durable commit included) —
    // so release the committed statements' charges too: the query's final
    // balance reads exactly zero instead of "bytes held by discarded
    // bindings".
    const uint64_t residue = ctx.memory_charged();
    if (residue > 0) ctx.ReleaseMemory(residue);
  }
  q->memory_charged = ctx.memory_charged();

  if (run.ok()) {
    // Expose the declared result names; a program without a result clause
    // (the common case for wire submissions) exposes every statement var.
    std::vector<std::string> names = q->program.results;
    if (names.empty()) {
      for (const mil::MilStmt& s : q->program.stmts) names.push_back(s.var);
    }
    for (const std::string& name : names) {
      auto it = env.bindings().find(name);
      if (it != env.bindings().end()) q->results.emplace(name, it->second);
    }
    if (!pending_sync) {
      q->state = QueryState::kDone;
      ++counters_.completed;
    }
    // pending_sync: still kRunning; kDone lands only after the fsync.
  } else if (run.IsInterruption()) {
    // kCancelled / kDeadlineExceeded: a deliberate stop, not a failure.
    // Partial accounting (faults, elapsed, traces) is reported as-is.
    q->state = QueryState::kCancelled;
    q->status = run;
    ++counters_.cancelled;
  } else {
    q->state = QueryState::kError;
    q->status = run;
    ++counters_.failed;
  }

  auto sit = sessions_.find(q->session);
  if (sit != sessions_.end()) {
    Session& s = sit->second;
    s.busy = false;
    s.pending--;
    if (run.ok() && !s.closing) s.env = std::move(env);  // commit bindings
    if (s.closing && s.pending == 0) sessions_.erase(sit);
  }
  inflight_cost_ -= q->admission.predicted_cost;
  work_cv_.NotifyAll();  // capacity freed; the session is idle again
  done_cv_.NotifyAll();
  if (!pending_sync) return;

  // --- durable commit, step 2: fsync, then acknowledge ------------------
  // Outside mu_: concurrent commits pile onto one fsync (Wal::Sync group
  // leader), and readers are never blocked behind the disk. The commit is
  // already visible in memory; a crash before the fsync returns may or may
  // not preserve it — which is exactly why kDone waits here.
  lock.Unlock();
  const Status sync = wal->Sync(commit_lsn);
  lock.Lock();
  if (sync.ok()) {
    q->state = QueryState::kDone;
    ++counters_.completed;
    ++counters_.durable_commits;
  } else {
    if (!read_only_) {
      read_only_ = true;
      read_only_reason_ = sync.message();
    }
    // The commit stays applied in memory but is not guaranteed on disk:
    // the client is told so, and every further mutation is refused.
    q->state = QueryState::kError;
    q->status = Status::IoError("commit not durable: " + sync.message());
    ++counters_.failed;
  }
  done_cv_.NotifyAll();
}

}  // namespace moaflat::service
