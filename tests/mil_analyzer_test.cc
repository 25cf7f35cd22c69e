// Tests for the MIL static analyzer: the golden bad-program corpus (every
// recurring mistake class rejected with an exact line-anchored diagnostic,
// before anything executes), hygiene warnings, inferred result schemas,
// the zero-execution guarantee of rejected programs through both the
// interpreter gate and the query service, and the soundness of the
// abstract cardinality/fault intervals on real TPC-D plans: the measured
// cold-run fault count must land inside the admitted [lo, hi] bound.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bat/bat.h"
#include "kernel/exec_context.h"
#include "mil/analyzer.h"
#include "mil/interpreter.h"
#include "mil/parser.h"
#include "service/query_service.h"
#include "storage/page_accountant.h"
#include "tpcd/loader.h"

namespace moaflat::mil {
namespace {

using bat::Bat;
using bat::Column;

class MilAnalyzerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_.BindBat("names",
                 Bat(Column::MakeOid({1, 2, 3, 4}),
                     Column::MakeStr({"a", "b", "a", "c"})));
    // Declared (and verified) sorted/key properties, as catalog BATs carry:
    // they are what arms the analyzer's two-probe selectivity narrowing.
    bat::Properties p;
    p.hkey = true;
    p.hsorted = true;
    p.tsorted = true;
    env_.BindBat("vals", Bat(Column::MakeOid({1, 2, 3, 4}),
                             Column::MakeInt({10, 20, 30, 40}))
                             .WithProps(p)
                             .ValueOrDie());
  }

  AnalysisReport Analyze(const std::string& mil) {
    auto program = ParseMil(mil);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    return AnalyzeProgram(*program, env_);
  }

  MilEnv env_;
};

/// True when the report carries a diagnostic with exactly this severity
/// and line whose message contains `substr`.
bool HasDiag(const AnalysisReport& r, Severity sev, int line,
             const std::string& substr) {
  for (const Diagnostic& d : r.diagnostics) {
    if (d.severity == sev && d.line == line &&
        d.message.find(substr) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------- semantic errors

TEST_F(MilAnalyzerTest, CleanProgramPasses) {
  AnalysisReport r = Analyze("r := select(vals, 15, 35)\n");
  EXPECT_TRUE(r.ok()) << r.DiagnosticsString();
  EXPECT_EQ(r.errors, 0);
  EXPECT_EQ(r.warnings, 0);
}

TEST_F(MilAnalyzerTest, GoldenBadProgramCorpus) {
  // The corpus: one program per recurring mistake class, with the exact
  // line and message fragment the analyzer must anchor its error to.
  struct Case {
    const char* name;
    std::string mil;
    int line;
    std::string message;
  };
  const std::vector<Case> corpus = {
      {"unknown-variable", "r := mirror(nosuch)\n", 1,
       "unknown MIL variable 'nosuch'"},
      {"use-before-def", "a := mirror(b)\nb := mirror(vals)\n", 1,
       "variable 'b' used before its definition (line 2)"},
      {"arity", "r := mirror(vals, vals)\n", 1,
       "operator 'mirror' expects 1 argument, got 2"},
      {"unknown-operator", "r := frobnicate(vals)\n", 1,
       "unknown MIL operator 'frobnicate'"},
      {"str-vs-int-select", "r := select(names, 42)\n", 1,
       "'select' compares a str tail with a int value; no row can match"},
      {"join-key-class-mismatch", "r := join(names, vals)\n", 1,
       "'join' matches a str column against a oid column"},
      {"multiplex-arity", "r := [+](vals)\n", 1, "multiplex [+] expects 2"},
      {"scalar-where-bat", "n := count(vals)\nr := mirror(n)\n", 2,
       "'mirror'"},
      {"error-on-line-3",
       "a := select(vals, 15, 35)\nb := mirror(a)\nr := join(b, zilch)\n", 3,
       "unknown MIL variable 'zilch'"},
      // Programs the analyzer once admitted and the kernel then crashed on:
      // a refinement of a str tail, scalar functions over a void tail.
      {"group-refines-str", "r := group(names, vals)\n", 1,
       "group refinement needs an oid (or void) tail on argument 1"},
      {"concat-over-void", "r := [concat](extent(names), \"x\")\n", 1,
       "'concat' needs str operands, argument 1 is oid"},
      {"and-over-void", "r := [and](extent(vals), true)\n", 1,
       "'and' needs bit operands, argument 1 is oid"},
      {"not-over-void", "r := [not](extent(vals))\n", 1,
       "'not' needs bit operands, argument 1 is oid"},
      {"ifthen-over-void", "r := [ifthen](extent(vals), 1, 2)\n", 1,
       "'ifthen' needs bit operands, argument 1 is oid"},
      {"year-over-void", "r := [year](extent(vals))\n", 1,
       "'year' needs date operands, argument 1 is oid"},
      // A negative count or bound wraps when the kernel takes it as size_t.
      {"negative-topn", "r := topn_max(vals, -1)\n", 1,
       "topn count must not be negative, got -1"},
      {"negative-slice", "r := slice(vals, -1, 2)\n", 1,
       "slice bounds must not be negative, got -1"},
  };
  for (const Case& c : corpus) {
    AnalysisReport r = Analyze(c.mil);
    EXPECT_FALSE(r.ok()) << c.name << " was not rejected";
    EXPECT_TRUE(HasDiag(r, Severity::kError, c.line, c.message))
        << c.name << ": wanted line " << c.line << " error containing \""
        << c.message << "\", got:\n"
        << r.DiagnosticsString();
  }
}

TEST_F(MilAnalyzerTest, UnknownPropagationSuppressesCascades) {
  // One unknown name must produce one error, not an avalanche from every
  // downstream use of the poisoned binding.
  AnalysisReport r = Analyze(
      "a := mirror(nosuch)\n"
      "b := mirror(a)\n"
      "c := join(b, vals)\n");
  EXPECT_EQ(r.errors, 1) << r.DiagnosticsString();
  EXPECT_TRUE(HasDiag(r, Severity::kError, 1, "unknown MIL variable"));
}

// ------------------------------------------------------ hygiene warnings

TEST_F(MilAnalyzerTest, DeadBindingWarns) {
  AnalysisReport r = Analyze(
      "a := mirror(vals)\n"
      "b := mirror(names)\n");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(
      HasDiag(r, Severity::kWarning, 1,
              "binding 'a' is never read and not a result"))
      << r.DiagnosticsString();
  // The final statement is the observable result: never flagged.
  EXPECT_FALSE(HasDiag(r, Severity::kWarning, 2, "never read"));
}

TEST_F(MilAnalyzerTest, ShadowedRebindWarns) {
  AnalysisReport r = Analyze(
      "a := mirror(vals)\n"
      "a := mirror(names)\n");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(HasDiag(r, Severity::kWarning, 2,
                      "rebinds 'a' before the definition on line 1"))
      << r.DiagnosticsString();
}

TEST_F(MilAnalyzerTest, StaticallyEmptyResultWarns) {
  // vals' tail is sorted, so the two-probe estimate proves no row can be
  // below -5: the result interval collapses to [0, 0].
  AnalysisReport r = Analyze("r := select.<(vals, -5)\n");
  EXPECT_TRUE(r.ok()) << r.DiagnosticsString();
  ASSERT_TRUE(r.bindings.count("r"));
  EXPECT_EQ(r.bindings.at("r").card.hi, 0.0);
  EXPECT_TRUE(HasDiag(r, Severity::kWarning, 1, "statically empty"))
      << r.DiagnosticsString();
}

// ------------------------------------------------------ schema inference

TEST_F(MilAnalyzerTest, InfersTypesAndCardinalities) {
  AnalysisReport r = Analyze(
      "r := select(vals, 15, 35)\n"
      "m := mirror(r)\n"
      "j := join(m, vals)\n"
      "total := sum(j)\n");
  EXPECT_TRUE(r.ok()) << r.DiagnosticsString();

  const AbstractBinding& sel = r.bindings.at("r");
  EXPECT_EQ(sel.kind, AbstractBinding::Kind::kBat);
  EXPECT_EQ(sel.head, MonetType::kOidT);
  EXPECT_EQ(sel.tail, MonetType::kInt);
  EXPECT_LE(sel.card.hi, 4.0);
  EXPECT_GE(sel.card.hi, sel.card.lo);

  // vals' head is a key, so the equi-join bound stays linear in the left
  // operand instead of going quadratic.
  const AbstractBinding& j = r.bindings.at("j");
  EXPECT_EQ(j.kind, AbstractBinding::Kind::kBat);
  EXPECT_EQ(j.tail, MonetType::kInt);
  EXPECT_LE(j.card.hi, 4.0);

  const AbstractBinding& total = r.bindings.at("total");
  EXPECT_EQ(total.kind, AbstractBinding::Kind::kScalar);
}

TEST_F(MilAnalyzerTest, TwoProbeNarrowingIsExactOnSortedTails) {
  kernel::ExecContext ctx;
  // A point select on a sorted catalog tail narrows to the true count:
  // the interval contains exactly the runtime cardinality.
  AnalysisReport r = Analyze("r := select(vals, 20)\n");
  EXPECT_TRUE(r.ok()) << r.DiagnosticsString();
  const CardInterval c = r.bindings.at("r").card;

  MilEnv env = env_;
  MilInterpreter interp(&env, &ctx);
  ASSERT_TRUE(interp.Run(*ParseMil("r := select(vals, 20)\n")).ok());
  const double measured =
      static_cast<double>(env.GetBat("r").ValueOrDie().size());
  EXPECT_LE(c.lo, measured);
  EXPECT_GE(c.hi, measured);
  EXPECT_LE(c.hi - c.lo, 1.0);  // two-probe on a sorted tail is tight
}

// ------------------------------------------------------- zero execution

TEST_F(MilAnalyzerTest, InterpreterGateRejectsWithoutExecuting) {
  kernel::ExecContext ctx;
  MilEnv env = env_;
  MilInterpreter interp(&env, &ctx);
  // Statement 1 is valid; statement 2 is not. Nothing may run — the gate
  // must reject the whole program before the first statement executes.
  Status run = interp.Run(*ParseMil(
      "good := mirror(vals)\n"
      "bad := join(good, nosuch)\n"));
  EXPECT_FALSE(run.ok());
  EXPECT_NE(run.message().find("rejected by static analysis"),
            std::string::npos)
      << run.ToString();
  EXPECT_NE(run.message().find("unknown MIL variable 'nosuch'"),
            std::string::npos)
      << run.ToString();
  EXPECT_TRUE(interp.traces().empty());
  EXPECT_FALSE(env.Has("good"));  // statement 1 never materialized
}

TEST_F(MilAnalyzerTest, ServiceVetoCarriesDiagnosticsAndRunsNothing) {
  service::QueryService svc;
  svc.SetCatalog(env_);
  uint64_t sid = svc.OpenSession().ValueOrDie();

  // Price: the malformed program is a structured analysis error, with the
  // line-anchored diagnostics in the message, and nothing was traced.
  auto price = svc.Price(sid, "r := select(names, 42)\n");
  EXPECT_FALSE(price.ok());
  EXPECT_NE(price.status().message().find("rejected by static analysis"),
            std::string::npos)
      << price.status().ToString();
  EXPECT_NE(price.status().message().find("line 1"), std::string::npos);

  // Submit: a first-class vetoed query carrying the diagnostics.
  uint64_t qid = svc.Submit(sid, "r := select(names, 42)\n").ValueOrDie();
  service::QueryResult qr = svc.Wait(qid).ValueOrDie();
  EXPECT_EQ(qr.state, service::QueryState::kVetoed);
  EXPECT_NE(qr.admission.reason.find("rejected by static analysis"),
            std::string::npos)
      << qr.admission.reason;
  ASSERT_FALSE(qr.admission.diagnostics.empty());
  EXPECT_EQ(qr.admission.diagnostics[0].line, 1);
  EXPECT_EQ(qr.admission.diagnostics[0].severity, Severity::kError);
  EXPECT_EQ(qr.faults, 0u);
  EXPECT_TRUE(qr.traces.empty());
  EXPECT_EQ(svc.stats().vetoed, 1u);
  EXPECT_EQ(svc.stats().completed, 0u);

  // The session survives the veto.
  uint64_t ok_q = svc.Submit(sid, "m := mirror(vals)\n").ValueOrDie();
  EXPECT_EQ(svc.Wait(ok_q).ValueOrDie().state, service::QueryState::kDone);

  // Check: the non-executing analysis endpoint reports the same verdict.
  auto report = svc.Check(sid, "r := select(names, 42)\n").ValueOrDie();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasDiag(report, Severity::kError, 1, "no row can match"));
}

// --------------------------------------------- interval soundness (TPC-D)

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

// A Q1-shaped pricing summary: group lineitems by (returnflag, linestatus)
// and aggregate quantity and price per class.
const char kQ1Mil[] =
    "flags := group(Item_returnflag)\n"
    "class := group(flags, Item_linestatus)\n"
    "gm := mirror(class)\n"
    "qty := join(gm, Item_quantity)\n"
    "sum_qty := {sum}(qty)\n"
    "price := join(gm, Item_extendedprice)\n"
    "sum_price := {sum}(price)\n";

/// Analyzes `mil` against the instance catalog and cold-runs it on a fresh
/// environment copy, returning (faults_lo, faults_hi, measured).
struct IntervalProbe {
  double lo = 0;
  double hi = 0;
  double measured = 0;
};

IntervalProbe ProbeInterval(const tpcd::TpcdInstance& inst,
                            const std::string& mil) {
  IntervalProbe p;
  MilProgram program = ParseMil(mil).ValueOrDie();
  AnalysisReport report = AnalyzeProgram(program, inst.db.env());
  EXPECT_TRUE(report.ok()) << report.DiagnosticsString();
  for (const StmtInfo& s : report.stmts) {
    p.lo += s.faults_lo;
    p.hi += s.faults_hi;
  }

  MilEnv env = inst.db.env();
  storage::IoStats io;
  kernel::ExecContext ctx;
  ctx.WithIo(&io);
  MilInterpreter interp(&env, &ctx);
  Status run = interp.Run(program);
  EXPECT_TRUE(run.ok()) << run.ToString();
  p.measured = static_cast<double>(io.faults());
  return p;
}

TEST(MilAnalyzerIntervalTest, AdmittedBoundCoversMeasuredFaults) {
  // The admission veto compares against the hi bound: it is only sound if
  // no execution can cost more. Cold-run Q1 and Q13 on fresh instances and
  // require measured faults at or under the admitted bound for each. The
  // lo end is an optimistic per-statement cold estimate, not a run floor
  // (statements sharing pages are charged once at run time), so the only
  // invariant it owes is lo <= hi.
  auto inst = tpcd::MakeInstance(0.004).ValueOrDie();

  const IntervalProbe q13 = ProbeInterval(*inst, Q13Mil(inst->probe_clerk));
  EXPECT_GT(q13.measured, 0.0);
  EXPECT_LE(q13.lo, q13.hi);
  EXPECT_GE(q13.hi, q13.measured)
      << "Q13 hi bound " << q13.hi << " below measured " << q13.measured;

  auto inst2 = tpcd::MakeInstance(0.004).ValueOrDie();
  const IntervalProbe q1 = ProbeInterval(*inst2, kQ1Mil);
  EXPECT_GT(q1.measured, 0.0);
  EXPECT_LE(q1.lo, q1.hi);
  EXPECT_GE(q1.hi, q1.measured)
      << "Q1 hi bound " << q1.hi << " below measured " << q1.measured;
}

TEST(MilAnalyzerIntervalTest, CatalogSeedsAreExact) {
  auto inst = tpcd::MakeInstance(0.002).ValueOrDie();
  const MilEnv& env = inst->db.env();
  AnalysisReport r =
      AnalyzeProgram(ParseMil("m := mirror(Item_order)\n").ValueOrDie(), env);
  ASSERT_TRUE(r.ok()) << r.DiagnosticsString();
  const double n =
      static_cast<double>(env.GetBat("Item_order").ValueOrDie().size());
  EXPECT_EQ(r.bindings.at("m").card.lo, n);
  EXPECT_EQ(r.bindings.at("m").card.hi, n);
}

}  // namespace
}  // namespace moaflat::mil
