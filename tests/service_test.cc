// Tests for the query service: the stride-scheduling fair-share policy in
// isolation, cost-model-priced admission control (admit / queue / veto),
// session isolation (traces, IO, budgets) across concurrent TPC-D queries,
// bit-identity of service execution vs direct interpretation, and the
// line-protocol wire front end.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bat/bat.h"
#include "common/fault_injector.h"
#include "common/parallel.h"
#include "common/stride_scheduler.h"
#include "kernel/exec_context.h"
#include "mil/interpreter.h"
#include "mil/parser.h"
#include "service/pricer.h"
#include "service/query_service.h"
#include "service/wire.h"
#include "tpcd/loader.h"

namespace moaflat {
namespace {

using bat::Bat;
using bat::Column;
using service::Admission;
using service::QueryService;
using service::QueryState;
using service::ServiceConfig;
using service::SessionOptions;

// ------------------------------------------------------------- scheduler

TEST(StrideSchedulerTest, WeightIsProportionalShare) {
  StrideScheduler s;
  s.Enqueue(1, /*group=*/1, /*weight=*/1);
  s.Enqueue(2, /*group=*/2, /*weight=*/2);
  int picks1 = 0, picks2 = 0;
  for (int i = 0; i < 300; ++i) {
    auto id = s.Pick();
    ASSERT_TRUE(id.has_value());
    (*id == 1 ? picks1 : picks2)++;
  }
  // Stride scheduling is deterministic: the weight-2 group advances its
  // pass half as fast, so it receives twice the picks (±1 for phase).
  EXPECT_NEAR(picks2, 200, 1);
  EXPECT_NEAR(picks1, 100, 1);
}

TEST(StrideSchedulerTest, RoundRobinWithinGroup) {
  StrideScheduler s;
  s.Enqueue(10, 1, 1);
  s.Enqueue(11, 1, 1);
  s.Enqueue(12, 1, 1);
  std::vector<uint64_t> order;
  for (int i = 0; i < 6; ++i) order.push_back(*s.Pick());
  EXPECT_EQ(order, (std::vector<uint64_t>{10, 11, 12, 10, 11, 12}));
}

TEST(StrideSchedulerTest, LateJoinerGetsNoBackCredit) {
  StrideScheduler s;
  s.Enqueue(1, 1, 1);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(*s.Pick(), 1u);
  // A group joining after 100 picks starts at the current minimum pass:
  // it must share from now on, not burst to "catch up" 100 picks.
  s.Enqueue(2, 2, 1);
  int picks2 = 0;
  for (int i = 0; i < 10; ++i) picks2 += *s.Pick() == 2 ? 1 : 0;
  EXPECT_EQ(picks2, 5);
}

TEST(StrideSchedulerTest, RemoveIsIdempotentAndEmptiesCleanly) {
  StrideScheduler s;
  EXPECT_FALSE(s.Pick().has_value());
  s.Enqueue(1, 1, 1);
  s.Remove(99);  // unknown ids are ignored
  s.Remove(1);
  s.Remove(1);
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.Pick().has_value());
}

// -------------------------------------------------------------- helpers

std::string Q13Mil(const std::string& clerk) {
  return "orders := select(Order_clerk, \"" + clerk +
         "\")\n"
         "items := join(Item_order, orders)\n"
         "returns := semijoin(Item_returnflag, items)\n"
         "ritems := select(returns, 'R')\n"
         "critems := semijoin(Item_order, ritems)\n"
         "prices := semijoin(Item_extendedprice, critems)\n"
         "disc := semijoin(Item_discount, critems)\n"
         "gross := [*](prices, disc)\n"
         "LOSS := {sum}(gross)\n";
}

const std::string kHistogramMil = "flags := histogram(Item_returnflag)\n";

struct DirectRun {
  std::vector<std::string> impls;
  uint64_t faults = 0;
  std::map<std::string, std::string> result_dumps;
};

/// Runs `mil_text` directly through the interpreter — the reference the
/// service must be bit-identical to.
DirectRun RunDirect(const mil::MilEnv& catalog, const std::string& mil_text,
                    const std::vector<std::string>& dump_vars) {
  DirectRun out;
  mil::MilProgram prog = mil::ParseMil(mil_text).ValueOrDie();
  mil::MilEnv env = catalog;
  storage::IoStats io;
  kernel::ExecTracer tracer;
  kernel::ExecContext ctx;
  ctx.WithIo(&io).WithTracer(&tracer);
  mil::MilInterpreter interp(&env, &ctx);
  Status run = interp.Run(prog);
  EXPECT_TRUE(run.ok()) << run.ToString();
  for (const mil::StmtTrace& t : interp.traces()) out.impls.push_back(t.impl);
  out.faults = io.faults();
  for (const std::string& v : dump_vars) {
    out.result_dumps[v] =
        env.GetBat(v).ValueOrDie().DebugString(/*max_rows=*/1000000);
  }
  return out;
}

std::vector<std::string> ImplsOf(const service::QueryResult& r) {
  std::vector<std::string> impls;
  for (const mil::StmtTrace& t : r.traces) impls.push_back(t.impl);
  return impls;
}

// ------------------------------------------------------------- admission

TEST(QueryServiceTest, PricesPlansWithoutExecuting) {
  auto inst = tpcd::MakeInstance(0.004).ValueOrDie();
  QueryService svc;
  svc.SetCatalog(inst->db.env());
  uint64_t sid = svc.OpenSession().ValueOrDie();

  auto price = svc.Price(sid, Q13Mil(inst->probe_clerk));
  ASSERT_TRUE(price.ok()) << price.status().ToString();
  EXPECT_EQ(price->stmts.size(), 9u);
  EXPECT_GT(price->faults, 0.0);
  // The pricer is a pure estimator: nothing ran, so nothing was traced and
  // no query exists.
  EXPECT_EQ(svc.stats().submitted, 0u);
  EXPECT_FALSE(price->ToString().empty());
}

TEST(QueryServiceTest, VetoReportsPredictedCostAndSessionStaysUsable) {
  auto inst = tpcd::MakeInstance(0.004).ValueOrDie();
  QueryService svc;
  svc.SetCatalog(inst->db.env());

  SessionOptions opts;
  opts.max_query_cost = 0.01;  // below any real plan
  uint64_t sid = svc.OpenSession(opts).ValueOrDie();

  uint64_t vetoed = svc.Submit(sid, Q13Mil(inst->probe_clerk)).ValueOrDie();
  service::QueryResult vr = svc.Wait(vetoed).ValueOrDie();
  EXPECT_EQ(vr.state, QueryState::kVetoed);
  EXPECT_EQ(vr.admission.action, Admission::kVeto);
  EXPECT_GT(vr.admission.predicted_cost, 0.01);
  EXPECT_NE(vr.admission.reason.find("max_query_cost"), std::string::npos);

  // The vetoed query never ran: no faults, no traces, and the session
  // accepts further work. `mirror` is priced at zero cost, under any cap.
  EXPECT_EQ(vr.faults, 0u);
  EXPECT_TRUE(vr.traces.empty());
  uint64_t ok_q = svc.Submit(sid, "m := mirror(Item_order)\n").ValueOrDie();
  service::QueryResult ok_r = svc.Wait(ok_q).ValueOrDie();
  EXPECT_EQ(ok_r.state, QueryState::kDone);

  auto stats = svc.stats();
  EXPECT_EQ(stats.vetoed, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(QueryServiceTest, ProgramsThatOnceCrashedTheExecutorAreVetoed) {
  // Each of these passed the analyzer and then threw inside a kernel on an
  // executor thread, which terminated the whole process.
  mil::MilEnv catalog;
  catalog.BindBat("names", Bat(Column::MakeOid({1, 2, 3}),
                               Column::MakeStr({"a", "b", "a"})));
  catalog.BindBat("vals", Bat(Column::MakeOid({1, 2, 3}),
                              Column::MakeInt({10, 20, 30})));
  QueryService svc;
  svc.SetCatalog(catalog);
  const uint64_t sid = svc.OpenSession().ValueOrDie();
  const char* programs[] = {
      "r := group(names, vals)\n",
      "r := [concat](extent(names), \"x\")\n",
      "r := [and](extent(vals), true)\n",
      "r := [not](extent(vals))\n",
      "r := [ifthen](extent(vals), 1, 2)\n",
  };
  for (const char* mil : programs) {
    const uint64_t qid = svc.Submit(sid, mil).ValueOrDie();
    const service::QueryResult r = svc.Wait(qid).ValueOrDie();
    EXPECT_EQ(r.state, QueryState::kVetoed) << mil;
    EXPECT_NE(r.admission.reason.find("line 1"), std::string::npos)
        << mil << ": " << r.admission.reason;
  }
  const uint64_t ok = svc.Submit(sid, "g := group(names)\n").ValueOrDie();
  EXPECT_EQ(svc.Wait(ok).ValueOrDie().state, QueryState::kDone);
  EXPECT_EQ(svc.stats().vetoed, 5u);
}

TEST(QueryServiceTest, CapacityQueuesAndDrainsFifo) {
  // A service whose in-flight predicted-fault capacity fits one scan
  // program at a time: while the first runs (a multi-scan of a 4M-row
  // BAT, far slower than the submission path), the second submission must
  // be QUEUEd — not vetoed, not run concurrently — and still complete
  // once the first finishes and releases its reserved cost.
  constexpr size_t kRows = 4000000;
  std::vector<int32_t> tail(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    tail[i] = static_cast<int32_t>(i * 2654435761u % 1000003);
  }
  mil::MilEnv catalog;
  catalog.BindBat("big", Bat(Column::MakeVoid(Oid{1} << 40, kRows),
                             Column::MakeInt(std::move(tail))));
  std::ostringstream scans;
  for (int i = 1; i <= 6; ++i) scans << "b" << i << " := select.<(big, -1)\n";
  const std::string scan_mil = scans.str();

  QueryService probe;
  probe.SetCatalog(catalog);
  const double cost =
      probe.Price(probe.OpenSession().ValueOrDie(), scan_mil)
          .ValueOrDie()
          .faults;
  ASSERT_GT(cost, 0.0);

  ServiceConfig cfg;
  cfg.admit_capacity = cost * 1.5;  // one in flight, never two
  QueryService tight(cfg);
  tight.SetCatalog(catalog);
  uint64_t s1 = tight.OpenSession().ValueOrDie();
  uint64_t s2 = tight.OpenSession().ValueOrDie();
  uint64_t q1 = tight.Submit(s1, scan_mil).ValueOrDie();
  uint64_t q2 = tight.Submit(s2, scan_mil).ValueOrDie();
  service::QueryResult r1 = tight.Wait(q1).ValueOrDie();
  service::QueryResult r2 = tight.Wait(q2).ValueOrDie();
  EXPECT_EQ(r1.state, QueryState::kDone);
  EXPECT_EQ(r2.state, QueryState::kDone);
  // The second submission arrived while the first held (or was about to
  // hold) the capacity, so it could not start immediately.
  EXPECT_EQ(r2.admission.action, Admission::kQueue);
  EXPECT_FALSE(r2.admission.reason.empty());
  EXPECT_EQ(tight.stats().inflight_cost, 0.0);
}

// ------------------------------------------------- isolation + identity

TEST(QueryServiceTest, FourConcurrentSessionsBitIdenticalToDirectRuns) {
  auto inst = tpcd::MakeInstance(0.004).ValueOrDie();
  const mil::MilEnv catalog = inst->db.env();
  const std::string q13 = Q13Mil(inst->probe_clerk);

  // Warm the shared accelerators (hash indexes, datavector LOOKUP caches)
  // once, so reference and service runs see identical accelerator state.
  (void)RunDirect(catalog, q13, {});
  (void)RunDirect(catalog, kHistogramMil, {});

  DirectRun ref13 = RunDirect(catalog, q13, {"LOSS"});
  DirectRun ref_h = RunDirect(catalog, kHistogramMil, {"flags"});

  QueryService svc;
  svc.SetCatalog(catalog);

  // Four sessions with distinct budgets, degrees and weights.
  struct Plan {
    SessionOptions opts;
    const std::string* mil;
    const DirectRun* ref;
    const char* result_var;
  };
  SessionOptions a, b, c, d;
  a.parallel_degree = 1;
  a.memory_budget = 64u << 20;
  b.parallel_degree = 4;
  b.weight = 2;
  c.parallel_degree = 2;
  c.memory_budget = 32u << 20;
  d.parallel_degree = 3;
  d.weight = 3;
  std::vector<Plan> plans = {{a, &q13, &ref13, "LOSS"},
                             {b, &q13, &ref13, "LOSS"},
                             {c, &kHistogramMil, &ref_h, "flags"},
                             {d, &kHistogramMil, &ref_h, "flags"}};

  std::vector<uint64_t> qids(plans.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < plans.size(); ++i) {
    threads.emplace_back([&, i] {
      uint64_t sid = svc.OpenSession(plans[i].opts).ValueOrDie();
      qids[i] = svc.Submit(sid, *plans[i].mil).ValueOrDie();
    });
  }
  for (auto& t : threads) t.join();

  for (size_t i = 0; i < plans.size(); ++i) {
    service::QueryResult r = svc.Wait(qids[i]).ValueOrDie();
    ASSERT_EQ(r.state, QueryState::kDone) << r.status.ToString();
    // Zero crosstalk and bit-identity: each session's per-statement
    // implementation choices, fault counts, and result rows equal the
    // direct single-threaded run — at any parallel degree.
    EXPECT_EQ(ImplsOf(r), plans[i].ref->impls) << "session " << i;
    EXPECT_EQ(r.faults, plans[i].ref->faults) << "session " << i;
    const auto it = r.results.find(plans[i].result_var);
    ASSERT_NE(it, r.results.end());
    const Bat& out = std::get<Bat>(it->second);
    EXPECT_EQ(out.DebugString(1000000),
              plans[i].ref->result_dumps.at(plans[i].result_var))
        << "session " << i;
  }
}

TEST(QueryServiceTest, BudgetsAreSessionPrivate) {
  auto inst = tpcd::MakeInstance(0.004).ValueOrDie();
  QueryService svc;
  svc.SetCatalog(inst->db.env());

  SessionOptions tight;
  tight.memory_budget = 2048;  // vastly below Q13's intermediates
  SessionOptions roomy;
  roomy.memory_budget = 256u << 20;
  uint64_t st = svc.OpenSession(tight).ValueOrDie();
  uint64_t sr = svc.OpenSession(roomy).ValueOrDie();

  const std::string q13 = Q13Mil(inst->probe_clerk);
  uint64_t qt = svc.Submit(st, q13).ValueOrDie();
  uint64_t qr = svc.Submit(sr, q13).ValueOrDie();
  service::QueryResult rt = svc.Wait(qt).ValueOrDie();
  service::QueryResult rr = svc.Wait(qr).ValueOrDie();

  // The tight session's query fails on its own budget; the roomy session,
  // running concurrently against the same catalog, is untouched.
  EXPECT_EQ(rt.state, QueryState::kError);
  EXPECT_EQ(rt.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rr.state, QueryState::kDone) << rr.status.ToString();

  // A failed query commits nothing: the tight session does not see the
  // partial bindings, and stays usable.
  uint64_t q2 = svc.Submit(st, "m := mirror(Order_clerk)\n").ValueOrDie();
  EXPECT_EQ(svc.Wait(q2).ValueOrDie().state, QueryState::kDone);
}

// ------------------------------------------------------------ fair share

TEST(QueryServiceTest, SmallQueryCompletesWhileLargeScanIsInFlight) {
  // A 10M-row scan session saturating the TaskPool must not starve a
  // small interactive query: per-session stride scheduling bounds the
  // small query's completion to "while the scan is still running".
  constexpr size_t kBigRows = 10000000;
  std::vector<int32_t> big_tail(kBigRows);
  for (size_t i = 0; i < kBigRows; ++i) {
    big_tail[i] = static_cast<int32_t>(i * 2654435761u % 1000003);
  }
  std::vector<int32_t> small_tail(20000);
  for (size_t i = 0; i < small_tail.size(); ++i) {
    small_tail[i] = static_cast<int32_t>(i * 31 % 997);
  }
  mil::MilEnv catalog;
  catalog.BindBat("big", Bat(Column::MakeVoid(Oid{1} << 40, kBigRows),
                             Column::MakeInt(std::move(big_tail))));
  catalog.BindBat("small", Bat(Column::MakeVoid(Oid{2} << 40, 20000),
                               Column::MakeInt(std::move(small_tail))));

  QueryService svc;
  svc.SetCatalog(catalog);
  SessionOptions heavy;
  heavy.parallel_degree = 8;  // fan the scan out across the pool
  SessionOptions light;
  light.parallel_degree = 2;
  uint64_t sh = svc.OpenSession(heavy).ValueOrDie();
  uint64_t sl = svc.OpenSession(light).ValueOrDie();

  // Twelve full scans of the 10M-row BAT (each selects nothing, so the
  // work is pure scan), vs one scan of the 20k-row BAT.
  std::ostringstream big_mil;
  for (int i = 1; i <= 12; ++i) {
    big_mil << "b" << i << " := select.<(big, -1)\n";
  }
  uint64_t big_q = svc.Submit(sh, big_mil.str()).ValueOrDie();
  uint64_t small_q = svc.Submit(sl, "s := select.<(small, 100)\n").ValueOrDie();

  service::QueryResult small_r = svc.Wait(small_q).ValueOrDie();
  ASSERT_EQ(small_r.state, QueryState::kDone) << small_r.status.ToString();
  // The moment the small query is done, the big scan must still be going.
  service::QueryResult big_now = svc.Poll(big_q).ValueOrDie();
  EXPECT_NE(big_now.state, QueryState::kDone)
      << "10M-row scan finished before the 20k-row query";

  service::QueryResult big_r = svc.Wait(big_q).ValueOrDie();
  EXPECT_EQ(big_r.state, QueryState::kDone) << big_r.status.ToString();
}

// ----------------------------------------------------------------- wire

TEST(WireProtocolTest, OpenSubmitWaitResultOverSocket) {
  std::vector<int32_t> tail(1000);
  for (size_t i = 0; i < tail.size(); ++i) {
    tail[i] = static_cast<int32_t>(i % 83);
  }
  mil::MilEnv catalog;
  catalog.BindBat("nums", Bat(Column::MakeVoid(Oid{1} << 40, tail.size()),
                              Column::MakeInt(std::move(tail))));
  QueryService svc;
  svc.SetCatalog(catalog);
  service::WireServer server(svc, /*port=*/0);
  Status started = server.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket: " << started.ToString();
  }

  service::WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_EQ(client.Call("PING").ValueOrDie(), "OK moaflat");

  std::string open = client.Call("OPEN degree=2 budget=1048576").ValueOrDie();
  ASSERT_EQ(open.rfind("OK ", 0), 0u) << open;
  const std::string sid = open.substr(3);

  std::string submitted =
      client.Call("SUBMIT " + sid + " t := select(nums, 7)").ValueOrDie();
  ASSERT_EQ(submitted.rfind("OK ", 0), 0u) << submitted;
  std::istringstream is(submitted.substr(3));
  std::string qid, action;
  is >> qid >> action;
  EXPECT_TRUE(action == "ADMIT" || action == "QUEUE") << submitted;

  std::string waited = client.Call("WAIT " + qid).ValueOrDie();
  EXPECT_EQ(waited.rfind("OK DONE", 0), 0u) << waited;

  std::string result = client.Call("RESULT " + qid + " t 100").ValueOrDie();
  ASSERT_EQ(result.rfind("OK ", 0), 0u) << result;
  std::vector<std::string> rows = client.ReadBody().ValueOrDie();
  EXPECT_FALSE(rows.empty());

  // Unpriceable or malformed input is a structured error, not a hangup.
  EXPECT_EQ(client.Call("SUBMIT 999 x := mirror(nums)").ValueOrDie().rfind(
                "ERR ", 0),
            0u);
  EXPECT_EQ(client.Call("NONSENSE").ValueOrDie().rfind("ERR ", 0), 0u);
  // No operator samples, so sessions take no seed.
  EXPECT_EQ(client.Call("OPEN seed=1").ValueOrDie(),
            "ERR unknown option 'seed'");

  EXPECT_EQ(client.Call("CLOSE " + sid).ValueOrDie(), "OK");
  EXPECT_EQ(client.Call("BYE").ValueOrDie(), "OK bye");
  server.Stop();
}

TEST(WireProtocolTest, StaticAnalysisVetoAndCheckOverSocket) {
  mil::MilEnv catalog;
  catalog.BindBat("nums", Bat(Column::MakeVoid(Oid{1} << 40, 100),
                              Column::MakeInt(std::vector<int32_t>(100, 7))));
  catalog.BindBat("tags",
                  Bat(Column::MakeVoid(Oid{1} << 40, 100),
                      Column::MakeStr(std::vector<std::string>(100, "t"))));
  QueryService svc;
  svc.SetCatalog(catalog);
  service::WireServer server(svc, /*port=*/0);
  Status started = server.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket: " << started.ToString();
  }
  service::WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::string open = client.Call("OPEN").ValueOrDie();
  ASSERT_EQ(open.rfind("OK ", 0), 0u) << open;
  const std::string sid = open.substr(3);

  // An ill-typed program is vetoed by the analyzer at SUBMIT: a first-class
  // query in VETO state whose one-line reason carries the diagnostic — and
  // nothing executed (zero faults at WAIT).
  std::string submitted =
      client.Call("SUBMIT " + sid + " x := select(nums, \"zap\")")
          .ValueOrDie();
  ASSERT_EQ(submitted.rfind("OK ", 0), 0u) << submitted;
  EXPECT_NE(submitted.find(" VETO "), std::string::npos) << submitted;
  EXPECT_NE(submitted.find("rejected by static analysis"), std::string::npos)
      << submitted;
  EXPECT_NE(submitted.find("no row can match"), std::string::npos)
      << submitted;
  std::istringstream is(submitted.substr(3));
  std::string qid;
  is >> qid;
  std::string waited = client.Call("WAIT " + qid).ValueOrDie();
  EXPECT_EQ(waited.rfind("OK VETOED", 0), 0u) << waited;
  EXPECT_NE(waited.find("faults=0"), std::string::npos) << waited;

  // PRICE on a malformed program is a structured single-line error with
  // the line-anchored diagnostic, executing nothing.
  std::string priced =
      client.Call("PRICE " + sid + " y := join(nosuch, nums)").ValueOrDie();
  EXPECT_EQ(priced.rfind("ERR ", 0), 0u) << priced;
  EXPECT_NE(priced.find("unknown MIL variable 'nosuch'"), std::string::npos)
      << priced;

  // CHECK returns the verdict plus the full diagnostics and the inferred
  // schema as a dot-terminated body. ';' separates wire statements, so the
  // diagnostic for the second statement anchors to line 2.
  std::string checked =
      client
          .Call("CHECK " + sid + " a := mirror(nums); b := join(tags, nums)")
          .ValueOrDie();
  ASSERT_EQ(checked.rfind("OK rejected errors=1", 0), 0u) << checked;
  std::vector<std::string> body = client.ReadBody().ValueOrDie();
  ASSERT_FALSE(body.empty());
  bool anchored = false;
  for (const std::string& line : body) {
    if (line.find("line 2: error: 'join' matches a str column") !=
        std::string::npos) {
      anchored = true;
    }
  }
  EXPECT_TRUE(anchored) << checked;

  // A well-formed program CHECKs ok and reports its inferred schema.
  std::string good =
      client.Call("CHECK " + sid + " m := mirror(nums)").ValueOrDie();
  ASSERT_EQ(good.rfind("OK ok errors=0", 0), 0u) << good;
  body = client.ReadBody().ValueOrDie();
  bool schema = false;
  for (const std::string& line : body) {
    if (line.find("m :") != std::string::npos &&
        line.find("[int,void]") != std::string::npos) {
      schema = true;
    }
  }
  EXPECT_TRUE(schema) << good;

  EXPECT_EQ(client.Call("BYE").ValueOrDie(), "OK bye");
  server.Stop();
}

// ---------------------------------------------------- cancellation & faults

namespace {

/// A 10M-row attribute whose values spread over [0, 9973).
mil::MilEnv BigCatalog(size_t rows = 10'000'000) {
  std::vector<int32_t> tail(rows);
  for (size_t i = 0; i < rows; ++i) {
    tail[i] = static_cast<int32_t>(i * 2654435761u % 9973);
  }
  mil::MilEnv catalog;
  catalog.BindBat("big", Bat(Column::MakeVoid(Oid{1} << 40, rows),
                             Column::MakeInt(std::move(tail))));
  catalog.BindBat("tiny", Bat(Column::MakeVoid(Oid{1} << 40, 100),
                              Column::MakeInt(std::vector<int32_t>(100, 7))));
  return catalog;
}

/// Eight selective full scans of `big`: long enough that a cancel issued
/// right after the query is observed RUNNING always lands mid-flight.
std::string SlowScanMil(char sep = '\n') {
  std::string mil;
  for (int i = 0; i < 8; ++i) {
    mil += "s" + std::to_string(i) + " := select.>=(big, 9900)";
    mil += sep;
  }
  return mil;
}

}  // namespace

TEST(CancellationTest, WireCancelStopsRunningScanAndSessionStaysUsable) {
  mil::MilEnv catalog = BigCatalog();
  QueryService svc;
  svc.SetCatalog(catalog);
  service::WireServer server(svc, /*port=*/0);
  Status started = server.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket: " << started.ToString();
  }
  service::WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  std::string open = client.Call("OPEN degree=8").ValueOrDie();
  ASSERT_EQ(open.rfind("OK ", 0), 0u) << open;
  const std::string sid = open.substr(3);

  std::string submitted =
      client.Call("SUBMIT " + sid + " " + SlowScanMil(';')).ValueOrDie();
  ASSERT_EQ(submitted.rfind("OK ", 0), 0u) << submitted;
  std::istringstream is(submitted.substr(3));
  std::string qid, action;
  is >> qid >> action;
  ASSERT_EQ(action, "ADMIT") << submitted;

  // Wait for the scan to be mid-flight, then pull the plug.
  std::string polled;
  for (int spin = 0; spin < 10000; ++spin) {
    polled = client.Call("POLL " + qid).ValueOrDie();
    if (polled.rfind("OK RUNNING", 0) == 0) break;
    ASSERT_EQ(polled.rfind("OK QUEUED", 0), 0u)
        << "query went terminal before it could be cancelled: " << polled;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(polled.rfind("OK RUNNING", 0), 0u) << polled;
  // Give the interpreter a moment to be genuinely mid-scan (the program
  // takes hundreds of milliseconds; 10 ms is deep inside statement one).
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(client.Call("CANCEL " + qid).ValueOrDie(), "OK");

  std::string waited = client.Call("WAIT " + qid).ValueOrDie();
  EXPECT_EQ(waited.rfind("OK CANCELLED", 0), 0u) << waited;
  EXPECT_NE(waited.find("cancel"), std::string::npos) << waited;

  // Partial fault accounting is reported; the balance reads exactly zero
  // (every discarded partial result was refunded).
  service::QueryResult r =
      svc.Poll(std::stoull(qid)).ValueOrDie();
  EXPECT_EQ(r.state, QueryState::kCancelled);
  EXPECT_GT(r.faults, 0u);  // it really was mid-flight
  EXPECT_EQ(r.memory_charged, 0u);

  // The session is untouched: the next query on it runs bit-identically
  // to a direct interpretation of the same program.
  const std::string small = "chk := select.>=(big, 9900)\n";
  DirectRun ref = RunDirect(catalog, small, {"chk"});
  std::string ok2 = client.Call("SUBMIT " + sid + " " + small).ValueOrDie();
  ASSERT_EQ(ok2.rfind("OK ", 0), 0u) << ok2;
  std::istringstream is2(ok2.substr(3));
  std::string qid2;
  is2 >> qid2;
  EXPECT_EQ(client.Call("WAIT " + qid2).ValueOrDie().rfind("OK DONE", 0), 0u);
  service::QueryResult done = svc.Poll(std::stoull(qid2)).ValueOrDie();
  EXPECT_EQ(std::get<Bat>(done.results.at("chk")).DebugString(1000000),
            ref.result_dumps.at("chk"));

  EXPECT_EQ(client.Call("BYE").ValueOrDie(), "OK bye");
  server.Stop();
}

TEST(CancellationTest, SessionDeadlineOverWireStopsTheScan) {
  mil::MilEnv catalog = BigCatalog();
  QueryService svc;
  svc.SetCatalog(catalog);
  service::WireServer server(svc, /*port=*/0);
  Status started = server.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket: " << started.ToString();
  }
  service::WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Every query of this session gets a 20 ms deadline armed at run start;
  // the eight-scan program takes orders of magnitude longer.
  std::string open = client.Call("OPEN timeout=20").ValueOrDie();
  ASSERT_EQ(open.rfind("OK ", 0), 0u) << open;
  const std::string sid = open.substr(3);

  std::string submitted =
      client.Call("SUBMIT " + sid + " " + SlowScanMil(';')).ValueOrDie();
  ASSERT_EQ(submitted.rfind("OK ", 0), 0u) << submitted;
  std::istringstream is(submitted.substr(3));
  std::string qid;
  is >> qid;

  std::string waited = client.Call("WAIT " + qid).ValueOrDie();
  EXPECT_EQ(waited.rfind("OK CANCELLED", 0), 0u) << waited;
  EXPECT_NE(waited.find("deadline"), std::string::npos) << waited;
  EXPECT_EQ(svc.Poll(std::stoull(qid)).ValueOrDie().memory_charged, 0u);

  // The deadline is per query, not per session: a cheap query on the same
  // session finishes well inside 20 ms of execution.
  std::string ok2 =
      client.Call("SUBMIT " + sid + " one := select.>=(tiny, 0)")
          .ValueOrDie();
  ASSERT_EQ(ok2.rfind("OK ", 0), 0u) << ok2;
  std::istringstream is2(ok2.substr(3));
  std::string qid2;
  is2 >> qid2;
  EXPECT_EQ(client.Call("WAIT " + qid2).ValueOrDie().rfind("OK DONE", 0), 0u);

  server.Stop();
}

TEST(CancellationTest, QueuedQueryCancelsImmediatelyAndIdempotently) {
  mil::MilEnv catalog = BigCatalog(2'000'000);
  ServiceConfig cfg;
  cfg.executors = 1;  // one executor: the second query must queue
  QueryService svc(cfg);
  svc.SetCatalog(catalog);
  uint64_t sa = svc.OpenSession().ValueOrDie();
  uint64_t sb = svc.OpenSession().ValueOrDie();

  uint64_t slow = svc.Submit(sa, SlowScanMil()).ValueOrDie();
  uint64_t queued = svc.Submit(sb, "x := select.>=(big, 9900)\n").ValueOrDie();
  EXPECT_EQ(svc.Poll(queued).ValueOrDie().state, QueryState::kQueued);

  // A queued query goes terminal synchronously, with the caller's reason.
  ASSERT_TRUE(svc.Cancel(queued, "changed my mind").ok());
  service::QueryResult r = svc.Poll(queued).ValueOrDie();
  EXPECT_EQ(r.state, QueryState::kCancelled);
  EXPECT_NE(r.status.message().find("changed my mind"), std::string::npos);
  // Idempotent on terminal queries; structured error on unknown ids.
  EXPECT_TRUE(svc.Cancel(queued).ok());
  EXPECT_EQ(svc.Cancel(999999).code(), StatusCode::kKeyError);

  ASSERT_TRUE(svc.Cancel(slow).ok());
  EXPECT_EQ(svc.Wait(slow).ValueOrDie().state, QueryState::kCancelled);
  EXPECT_GE(svc.stats().cancelled, 2u);
}

TEST(CancellationTest, ShutdownVetoesQueuedQueriesAndWakesEveryWaiter) {
  mil::MilEnv catalog = BigCatalog(2'000'000);
  ServiceConfig cfg;
  cfg.executors = 1;
  QueryService svc(cfg);
  svc.SetCatalog(catalog);

  // Hold the running scan mid-flight deterministically: block 1 of its
  // first parallel select stalls until the query is cancelled (or a minute
  // passes), so Shutdown finds it running however fast the machine is.
  SetParallelBlockCap(kMaxParallelDegree);  // multi-block plans on any host
  struct RestoreCap {
    ~RestoreCap() { SetParallelBlockCap(0); }
  } restore_cap;
  FaultInjector stall(/*seed=*/1, /*rate=*/0.0);
  stall.StallBlock(1, 60'000);
  SessionOptions held;
  held.parallel_degree = 4;
  held.fault_injector = &stall;
  uint64_t running_sid = svc.OpenSession(held).ValueOrDie();
  uint64_t running_qid = svc.Submit(running_sid, SlowScanMil()).ValueOrDie();
  // Running, not queued: Shutdown must cancel it rather than veto it.
  for (int spin = 0; spin < 10000; ++spin) {
    if (svc.Poll(running_qid).ValueOrDie().state == QueryState::kRunning) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(svc.Poll(running_qid).ValueOrDie().state, QueryState::kRunning);
  // Fill the admit queue behind the running scan.
  std::vector<uint64_t> queued;
  for (int i = 0; i < 4; ++i) {
    uint64_t sid = svc.OpenSession().ValueOrDie();
    queued.push_back(svc.Submit(sid, "y := select.>=(big, 9900)\n").ValueOrDie());
  }
  // Park a waiter on every query, racing Shutdown against the full queue.
  std::vector<service::QueryResult> results(queued.size() + 1);
  std::vector<std::thread> waiters;
  waiters.emplace_back(
      [&] { results[0] = svc.Wait(running_qid).ValueOrDie(); });
  for (size_t i = 0; i < queued.size(); ++i) {
    waiters.emplace_back(
        [&, i] { results[i + 1] = svc.Wait(queued[i]).ValueOrDie(); });
  }

  svc.Shutdown(/*drain=*/false);

  // Shutdown returned only after everything went terminal, so every waiter
  // unblocks; nothing is silently dropped in a non-terminal state.
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(results[0].state, QueryState::kCancelled) << "the running scan";
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].state, QueryState::kVetoed) << "queued #" << i;
    EXPECT_EQ(results[i].admission.reason, "service shutting down");
  }
  // New submissions are refused; Shutdown is idempotent (and the destructor
  // will call it once more).
  EXPECT_EQ(svc.Submit(running_sid, "z := mirror(big)\n").status().code(),
            StatusCode::kCancelled);
  svc.Shutdown(false);
}

// ------------------------------------------------------------ wire hardening

TEST(WireHardeningTest, AbruptDisconnectClosesSessionsWithoutKillingServer) {
  mil::MilEnv catalog = BigCatalog(2'000'000);
  QueryService svc;
  svc.SetCatalog(catalog);
  service::WireServer server(svc, /*port=*/0);
  Status started = server.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket: " << started.ToString();
  }

  {
    service::WireClient doomed;
    ASSERT_TRUE(doomed.Connect("127.0.0.1", server.port()).ok());
    std::string open = doomed.Call("OPEN").ValueOrDie();
    ASSERT_EQ(open.rfind("OK ", 0), 0u) << open;
    const std::string sid = open.substr(3);
    ASSERT_EQ(svc.stats().sessions_open, 1u);
    // Leave a query running, then vanish without CLOSE or BYE.
    std::string submitted =
        doomed.Call("SUBMIT " + sid + " " + SlowScanMil(';')).ValueOrDie();
    ASSERT_EQ(submitted.rfind("OK ", 0), 0u) << submitted;
    doomed.Close();
  }

  // The server notices the hangup, closes the orphaned session and cancels
  // its running query — the session drains away instead of leaking.
  bool drained = false;
  for (int spin = 0; spin < 10000; ++spin) {
    if (svc.stats().sessions_open == 0) {
      drained = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(drained) << "orphaned session leaked: "
                       << svc.stats().sessions_open << " still open";
  EXPECT_GE(svc.stats().cancelled, 1u);

  // And the accept loop is unharmed: the next client is served normally.
  service::WireClient next;
  ASSERT_TRUE(next.Connect("127.0.0.1", server.port()).ok());
  EXPECT_EQ(next.Call("PING").ValueOrDie(), "OK moaflat");
  server.Stop();
}

TEST(WireHardeningTest, OversizedLineIsRefusedAndTheNextClientIsServed) {
  QueryService svc;
  service::WireServer server(svc, /*port=*/0);
  Status started = server.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "cannot bind a loopback socket: " << started.ToString();
  }

  service::WireClient abuser;
  ASSERT_TRUE(abuser.Connect("127.0.0.1", server.port()).ok());
  // A 2 MiB request line: the server's buffer crosses the 1 MiB cap long
  // before the newline arrives, so it answers with a structured error and
  // cuts the connection instead of buffering without bound. The reply (or,
  // if the cut lands first, the send error) must come back — never a hang.
  std::string huge(size_t{2} << 20, 'x');
  auto reply = abuser.Call("SUBMIT 1 " + huge);
  if (reply.ok()) {
    EXPECT_EQ(*reply, "ERR line too long");
  }
  // Either way the accept loop survives and serves the next client.
  service::WireClient next;
  ASSERT_TRUE(next.Connect("127.0.0.1", server.port()).ok());
  EXPECT_EQ(next.Call("PING").ValueOrDie(), "OK moaflat");
  server.Stop();
}

TEST(WireHardeningTest, CallTimeoutTripsOnASilentServer) {
  // A raw listening socket that accepts and then says nothing: the client's
  // per-call timeout must convert the silence into kDeadlineExceeded.
  int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(lfd, 1) != 0) {
    ::close(lfd);
    GTEST_SKIP() << "cannot bind a loopback socket";
  }
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  service::WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", ntohs(addr.sin_port)).ok());
  client.SetCallTimeout(100);
  auto reply = client.Call("PING");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  ::close(lfd);
}

TEST(WireHardeningTest, ConnectRetryIsBoundedOnARefusingPort) {
  // Find a port that refuses connections: bind an ephemeral one, note it,
  // close it again.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(probe);
    GTEST_SKIP() << "cannot bind a loopback socket";
  }
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(probe);

  service::WireClient client;
  Status s = client.Connect("127.0.0.1", ntohs(addr.sin_port),
                            /*max_retries=*/2);
  // Three attempts with bounded backoff, then a structured failure — the
  // retry loop must not spin forever.
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(client.connected());
}

}  // namespace
}  // namespace moaflat
