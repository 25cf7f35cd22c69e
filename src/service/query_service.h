#ifndef MOAFLAT_SERVICE_QUERY_SERVICE_H_
#define MOAFLAT_SERVICE_QUERY_SERVICE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "kernel/exec_context.h"
#include "mil/interpreter.h"
#include "mil/program.h"
#include "service/pricer.h"
#include "storage/page_accountant.h"
#include "storage/wal.h"

/// The embedded query service: a multi-session front end over the MIL
/// interpreter. Each session wraps an ExecContext of its own — memory
/// budget, parallelism degree, fair-share weight on the shared TaskPool —
/// and queries are priced by the Section 5.2.2 cost model *before*
/// execution: admission control admits, queues, or vetoes each statement
/// plan from its predicted fault volume, so one runaway analytic query is
/// refused at the door instead of thrashing every session's working set.
namespace moaflat::service {

/// Per-session knobs, fixed at OpenSession.
struct SessionOptions {
  /// Cap on cumulative materialized bytes per query (0 = unlimited). Each
  /// query runs under a fresh charge counter, so a vetoed or failed query
  /// leaves the session reusable.
  uint64_t memory_budget = 0;
  /// Parallel degree of the session's ExecContext (0 = process default).
  int parallel_degree = 0;
  /// Fair-share weight of the session's TaskPool group. A weight-2 session
  /// advances its stride pass half as fast, i.e. receives twice the morsel
  /// share of a weight-1 session under contention.
  uint32_t weight = 1;
  /// Veto any query whose predicted fault volume exceeds this (0 = defer
  /// to the service-wide limit).
  double max_query_cost = 0;
  /// Queued (admitted but not yet running) queries allowed on this session
  /// (0 = service default).
  size_t max_queued = 0;
  /// Deadline armed on every query of this session at the moment it starts
  /// running (0 = none). A query that outlives it stops at the next block
  /// boundary with kDeadlineExceeded; the session stays reusable.
  int64_t default_timeout_ms = 0;
  /// Opt-in: the FaultInjector this session's queries run under (not
  /// owned; must outlive them; null = none). Pass FaultInjector::FromEnv()
  /// for the process-wide environment-configured one (MOAFLAT_FAULT_SEED),
  /// or a private injector to pin a stall or a single fault to one session.
  /// Null by default so an armed environment never perturbs sessions that
  /// expect exact results.
  FaultInjector* fault_injector = nullptr;
  /// Opt-in durability: a successful mutating query of this session commits
  /// its bindings to the shared catalog through the write-ahead log, and is
  /// acknowledged kDone only after the log record is fsynced. Requires
  /// EnableDurability before OpenSession; opening fails otherwise.
  bool durable = false;
};

/// Service-wide configuration.
struct ServiceConfig {
  size_t max_sessions = 64;
  /// Executor threads draining admitted queries. Each runs one query at a
  /// time; morsel-level fairness inside a query is the TaskPool's job.
  int executors = 2;
  /// Total predicted fault volume allowed in flight at once (0 =
  /// unlimited). Admission queues queries that would exceed it.
  double admit_capacity = 0;
  /// Service-wide per-query veto threshold on predicted faults (0 =
  /// unlimited).
  double max_query_cost = 0;
  /// Bounded FIFO admission queue: queries waiting across all sessions.
  size_t queue_limit = 64;
  /// Default per-session pending-query bound.
  size_t session_queue_limit = 8;
};

enum class Admission { kAdmit, kQueue, kVeto };

/// The deterministic admission verdict reported for every submission.
struct AdmissionDecision {
  Admission action = Admission::kAdmit;
  /// Predicted cold page faults of the whole plan — the analyzer's upper
  /// bound (PlanPrice::faults), so a veto is sound.
  double predicted_cost = 0;
  std::string reason;  // set on kQueue / kVeto
  /// Static-analyzer findings: the errors behind an analysis veto, plus
  /// hygiene warnings riding along with accepted plans.
  std::vector<mil::Diagnostic> diagnostics;
};

enum class QueryState {
  kQueued,
  kRunning,
  kDone,
  kError,
  kVetoed,
  kCancelled,  // client cancel, session close, deadline, or shutdown
};

/// Snapshot of one submitted query, returned by Poll/Wait. Terminal states:
/// kDone (results bound), kError (status holds the failure), kVetoed
/// (admission refused it; predicted cost in `admission`), kCancelled
/// (status says whether it was a client cancel or a deadline expiry; any
/// partial fault/charge accounting up to the stop point is reported).
struct QueryResult {
  uint64_t id = 0;
  uint64_t session = 0;
  QueryState state = QueryState::kQueued;
  Status status = Status::OK();
  AdmissionDecision admission;
  /// Result bindings (the program's result names) after a kDone run.
  std::map<std::string, mil::MilEnv::Binding> results;
  /// Per-statement Fig. 10 traces of the run.
  std::vector<mil::StmtTrace> traces;
  uint64_t faults = 0;          // simulated cold faults of the run
  uint64_t memory_charged = 0;  // bytes still charged at completion
  int64_t elapsed_us = 0;
};

/// The query service. Thread-safe: sessions may be opened, submitted to and
/// polled from any thread; `executors` internal threads drain the admitted
/// queue. Bit-identical to direct execution — the service only adds
/// admission and scheduling, never changes an answer.
class QueryService {
 public:
  explicit QueryService(ServiceConfig cfg = {});
  /// Equivalent to Shutdown(false): queued queries are vetoed with reason
  /// "service shutting down", the running ones cancelled cooperatively —
  /// nothing is ever silently dropped in a non-terminal state.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Catalog every new session starts from (BAT bindings are cheap
  /// copy-on-write column references, not data copies).
  void SetCatalog(mil::MilEnv catalog);

  /// Turns on durable commits: recovers the catalog from `dir` (the last
  /// checkpoint plus a checksum-verified WAL replay, discarding any torn
  /// tail) and keeps the log open for appending. Must precede every
  /// OpenSession. `fault` optionally arms seeded error/crash injection at
  /// the WAL and checkpoint sites; it must outlive the service.
  Status EnableDurability(const std::string& dir,
                          FaultInjector* fault = nullptr);

  /// Atomically checkpoints the current catalog and truncates the log
  /// (write-temp, fsync, rename, fsync-dir). Blocks submissions for the
  /// duration. Fails — and latches read-only mode — on an IO error.
  Status Sync();

  /// True once a WAL or checkpoint IO error has latched the service
  /// read-only: mutating submissions are vetoed deterministically with the
  /// latched reason, reads keep serving, and no further log writes are
  /// attempted for the life of the process.
  bool read_only() const;
  std::string read_only_reason() const;

  Result<uint64_t> OpenSession(SessionOptions opts = {});

  /// Marks the session closing: the running query (if any) is cancelled
  /// cooperatively between statements, pending queries are vetoed, and no
  /// new submissions are accepted.
  Status CloseSession(uint64_t session_id);

  /// Parses, analyzes, prices and admits `mil_text` on the session. Returns
  /// a query id usable with Poll/Wait in every admission outcome — a vetoed
  /// query is a first-class result carrying its predicted cost, and a
  /// program the static analyzer rejects is vetoed with its line-anchored
  /// diagnostics attached (nothing executes). Fails only on parse errors or
  /// an unknown session.
  Result<uint64_t> Submit(uint64_t session_id, const std::string& mil_text);

  /// Dry run of admission pricing: what would this program cost on this
  /// session right now? Executes nothing; an ill-formed program fails with
  /// the analyzer's diagnostics.
  Result<PlanPrice> Price(uint64_t session_id,
                          const std::string& mil_text) const;

  /// Static analysis only: the full analyzer report of `mil_text` against
  /// the session's current bindings — diagnostics, per-statement fault
  /// intervals and the inferred result schema. Executes nothing.
  Result<mil::AnalysisReport> Check(uint64_t session_id,
                                    const std::string& mil_text) const;

  /// Cancels a query: a queued one goes terminal (kCancelled) immediately;
  /// a running one is stopped cooperatively at its next block boundary or
  /// charge chunk. Idempotent; cancelling a terminal query is a no-op.
  Status Cancel(uint64_t query_id,
                const std::string& reason = "cancelled by client");

  /// Stops the service deterministically. With `drain` the call first waits
  /// for every queued and running query to reach a terminal state; without
  /// it, queued queries are vetoed (reason "service shutting down") and
  /// running ones cancelled cooperatively. Safe to call more than once;
  /// the destructor calls Shutdown(false).
  void Shutdown(bool drain = false);

  /// Non-blocking snapshot of a query.
  Result<QueryResult> Poll(uint64_t query_id) const;

  /// Blocks until the query reaches a terminal state, then returns it.
  Result<QueryResult> Wait(uint64_t query_id);

  struct Stats {
    size_t sessions_open = 0;
    uint64_t submitted = 0;
    uint64_t vetoed = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t cancelled = 0;
    uint64_t durable_commits = 0;  // WAL commit records fsynced and acked
    double inflight_cost = 0;      // predicted faults currently running
    size_t queued = 0;
  };
  Stats stats() const;

 private:
  struct Session {
    uint64_t id = 0;
    SessionOptions opts;
    mil::MilEnv env;
    bool busy = false;     // a query of this session is running
    bool closing = false;
    size_t pending = 0;    // queries admitted/queued but not yet terminal
  };

  struct Query {
    uint64_t id = 0;
    uint64_t session = 0;
    mil::MilProgram program;
    AdmissionDecision admission;
    QueryState state = QueryState::kQueued;
    Status status = Status::OK();
    std::map<std::string, mil::MilEnv::Binding> results;
    std::vector<mil::StmtTrace> traces;
    uint64_t faults = 0;
    uint64_t memory_charged = 0;
    int64_t elapsed_us = 0;
    /// Made at admission; shared with the running ExecContext so Cancel,
    /// CloseSession, Shutdown and the session deadline all stop the same
    /// query through the same token.
    CancelToken token;
    /// Classified at submission: the program inserts BUNs or rebinds a
    /// catalog name. Only mutating queries of durable sessions go through
    /// the WAL commit protocol.
    bool mutating = false;
    bool durable = false;
  };

  void ExecutorLoop() MOAFLAT_EXCLUDES(mu_);
  /// Drain predicate: no query queued, no session busy.
  bool Quiesced() const MOAFLAT_REQUIRES(mu_);
  /// Picks the next runnable query: earliest submission whose session is
  /// idle, honoring the capacity bound strictly in FIFO order.
  std::shared_ptr<Query> PickRunnable() MOAFLAT_REQUIRES(mu_);
  void RunQuery(const std::shared_ptr<Query>& q) MOAFLAT_EXCLUDES(mu_);
  /// Query fields are mutated only under mu_, so snapshots require it too.
  QueryResult Snapshot(const Query& q) const MOAFLAT_REQUIRES(mu_);
  /// Mutation classifier: inserts BUNs or rebinds a catalog name.
  bool ProgramMutates(const mil::MilProgram& program) const
      MOAFLAT_REQUIRES(mu_);

  ServiceConfig cfg_;
  mutable Mutex mu_{LockRank::kSession, "query_service"};
  CondVar work_cv_;   // executors: new runnable work
  CondVar done_cv_;   // waiters: a query reached terminal
  mil::MilEnv catalog_ MOAFLAT_GUARDED_BY(mu_);
  std::map<uint64_t, Session> sessions_ MOAFLAT_GUARDED_BY(mu_);
  std::map<uint64_t, std::shared_ptr<Query>> queries_ MOAFLAT_GUARDED_BY(mu_);
  /// Submitted, waiting to run (FIFO).
  std::deque<uint64_t> admit_order_ MOAFLAT_GUARDED_BY(mu_);
  double inflight_cost_ MOAFLAT_GUARDED_BY(mu_) = 0;
  /// TaskPool group 0 is the shared group.
  uint64_t next_session_ MOAFLAT_GUARDED_BY(mu_) = 1;
  uint64_t next_query_ MOAFLAT_GUARDED_BY(mu_) = 1;
  Stats counters_ MOAFLAT_GUARDED_BY(mu_);
  bool stopping_ MOAFLAT_GUARDED_BY(mu_) = false;
  // --- durability (guarded by mu_; the Wal has its own internal lock, one
  // rank above kSession, so holding mu_ across an Append is in order) ---
  std::string data_dir_ MOAFLAT_GUARDED_BY(mu_);
  std::unique_ptr<storage::Wal> wal_ MOAFLAT_GUARDED_BY(mu_);
  FaultInjector* durability_fault_ MOAFLAT_GUARDED_BY(mu_) = nullptr;
  bool read_only_ MOAFLAT_GUARDED_BY(mu_) = false;
  std::string read_only_reason_ MOAFLAT_GUARDED_BY(mu_);
  // Written only by the constructor, joined by Shutdown after every
  // executor has observed stopping_; never mutated concurrently.
  std::vector<std::thread> executors_;
};

}  // namespace moaflat::service

#endif  // MOAFLAT_SERVICE_QUERY_SERVICE_H_
