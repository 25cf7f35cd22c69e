// The query service under a mixed load: two read sessions loop over the MIL
// of the MOA-translated Fig. 9 queries (Q1, Q3, Q6, Q10, Q13) and one
// durable session loops over a fixed-size write, each a closed loop of
// Submit then Wait. Every read answer is fingerprinted for run.py to compare
// with the same program run directly through the MilInterpreter.

#include <algorithm>
#include <cstdio>
#include <set>
#include <thread>

#include "common.h"
#include "mil/analyzer.h"
#include "mil/parser.h"
#include "moa/rewriter.h"
#include "storage/memory_tracker.h"
#include "storage/page_accountant.h"
#include "tpcd/queries.h"

namespace perfbench {

using moaflat::kernel::ExecContext;
using moaflat::service::QueryService;
using moaflat::storage::IoStats;
using moaflat::storage::MemoryTracker;

namespace {

constexpr int kReadQueries[] = {1, 3, 6, 10, 13};
constexpr int kPrograms = 5;
constexpr int kReaders = 2;

struct Control {
  int q = 0;
  double ms = 0;
  moaflat::Result<moaflat::tpcd::EngineRun> row;
};

struct Program {
  int q = 0;
  std::string mil;   // the rendered translation
  std::string text;  // what the service runs: `mil` plus the release block
  std::vector<std::string> results;
  moaflat::mil::MilProgram parsed;
};

void WriteEngine(Json* j, const char* key, double ms,
                 const moaflat::Result<moaflat::tpcd::EngineRun>& r) {
  j->Key(key).BeginObject();
  j->Field("ms", ms);
  j->FieldInt("rows", r.ok() ? static_cast<int64_t>(r->rows) : 0);
  j->Field("check", r.ok() ? r->check : 0.0);
  j->FieldStr("error", r.ok() ? "" : r.status().ToString());
  j->EndObject();
}

// The read programs: translated, rendered as text, and parsed back. The
// round trip must reproduce every statement; `info` records it per program.
int BuildPrograms(const moaflat::tpcd::TpcdInstance& inst,
                  const moaflat::tpcd::QuerySuite& suite,
                  std::vector<Program>* progs, Json* info) {
  progs->clear();
  info->BeginArray("programs");
  for (int q : kReadQueries) {
    Program p;
    p.q = q;
    moaflat::moa::Rewriter rw(&inst.db);
    auto tr = rw.TranslateText(suite.MoaText(q));
    if (!tr.ok()) {
      std::fprintf(stderr, "translate Q%d: %s\n", q,
                   tr.status().ToString().c_str());
      return 1;
    }
    p.mil = RenderMil(tr->program);
    p.results = tr->program.results;
    auto parsed = moaflat::mil::ParseMil(p.mil);
    bool same = parsed.ok() &&
                parsed->stmts.size() == tr->program.stmts.size();
    for (size_t k = 0; same && k < parsed->stmts.size(); ++k) {
      same = parsed->stmts[k].ToString() == tr->program.stmts[k].ToString();
    }
    if (parsed.ok()) p.parsed = *parsed;
    // The service keeps every finished query's bindings, and a program
    // without a result clause exposes all of its statements. The release
    // block rebinds each intermediate BAT to an empty slice so a long run
    // does not hold every read's intermediates in memory.
    p.text = p.mil;
    const moaflat::mil::AnalysisReport rep =
        moaflat::mil::AnalyzeProgram(p.parsed, inst.db.env());
    std::set<std::string> released;
    for (const moaflat::mil::MilStmt& st : p.parsed.stmts) {
      auto b = rep.bindings.find(st.var);
      if (b == rep.bindings.end() ||
          b->second.kind != moaflat::mil::AbstractBinding::Kind::kBat ||
          std::count(p.results.begin(), p.results.end(), st.var) > 0 ||
          !released.insert(st.var).second) {
        continue;
      }
      p.text += st.var + " := slice(" + st.var + ", 0, 0)\n";
    }
    info->BeginObject();
    info->FieldInt("q", q);
    info->FieldBool("round_trip", same);
    info->FieldInt("stmts", static_cast<int64_t>(tr->program.stmts.size()));
    info->FieldInt("released", static_cast<int64_t>(released.size()));
    info->FieldStr("analyze_error", rep.ok() ? "" : rep.FirstError());
    info->EndObject();
    progs->push_back(std::move(p));
  }
  info->EndArray();
  return 0;
}

// The timed phase of one segment: two readers, the durable writer and the
// row-store control, each a closed loop until `seconds` have passed.
void TimedLoop(const Options& o, double seconds, QueryService* svc,
               const uint64_t (&readers)[kReaders],
               const std::vector<Program>& progs, DurableWriter* writer,
               moaflat::tpcd::QuerySuite* suite, Json* out,
               SpanLog* spans, int64_t* qid) {
  MemoryTracker& mem = MemoryTracker::Global();
  const uint64_t live = mem.current();
  mem.MarkEpoch();
  const uint64_t wal_before = writer->WalBytes();
  const uint64_t commits_before = svc->stats().durable_commits;
  std::vector<Request> reads[kReaders];
  std::vector<Request> writes;
  std::vector<Control> control;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  const double cpu_before = CpuSeconds();
  {
    std::vector<std::thread> clients;
    for (int r = 0; r < kReaders; ++r) {
      clients.emplace_back([&, r] {
        // Reader r starts at a different program so the two sessions do
        // not run the same query in lock step.
        for (int k = 0; Clock::now() < deadline; ++k) {
          const int i = (k + r * 2) % kPrograms;
          // In the traced run every other pass of five reads is observed.
          const bool observe = o.trace && (k / kPrograms) % 2 == 0;
          Request req = RunRequest(svc, readers[r], progs[i].text,
                                   progs[i].results, observe);
          req.prog = i;
          reads[r].push_back(std::move(req));
        }
      });
    }
    clients.emplace_back([&] {
      for (int k = 0; Clock::now() < deadline; ++k) {
        writes.push_back(writer->Write(o.trace && k % 2 == 0));
      }
    });
    // The row-store control runs the same five queries beside the service,
    // so its times see the same machine state the reads do.
    clients.emplace_back([&] {
      for (int k = 0; Clock::now() < deadline; ++k) {
        const int q = kReadQueries[k % kPrograms];
        IoStats io;
        ExecContext ctx;
        ctx.WithIo(&io).WithParallelDegree(1);
        const Clock::time_point t0 = Clock::now();
        auto row = suite->RunBaseline(q, ctx);
        control.push_back({q, Ms(t0, Clock::now()), std::move(row)});
      }
    });
    for (std::thread& t : clients) t.join();
  }
  out->Field("timed_wall_s", Ms(start, Clock::now()) / 1000);
  out->Field("timed_cpu_s", CpuSeconds() - cpu_before);
  out->Field("mem_peak_mb", (mem.peak() - live) / 1e6);
  out->Field("alloc_mb", mem.allocated_total() / 1e6);
  out->BeginArray("readers");
  for (const std::vector<Request>& rs : reads) {
    out->BeginArray();
    for (const Request& r : rs) WriteRequest(out, r);
    out->EndArray();
  }
  out->EndArray();
  out->BeginArray("writes");
  for (const Request& w : writes) WriteRequest(out, w);
  out->EndArray();
  if (o.trace) {
    for (const std::vector<Request>& rs : reads) {
      for (const Request& r : rs) {
        AddRequestSpans(spans, r, "service.read", (*qid)++);
      }
    }
    for (const Request& w : writes) {
      AddRequestSpans(spans, w, "service.write", (*qid)++);
    }
  }
  out->BeginArray("control");
  for (const Control& c : control) {
    out->BeginObject();
    out->FieldInt("q", c.q);
    WriteEngine(out, "row", c.ms, c.row);
    out->EndObject();
  }
  out->EndArray();

  // Durability: stop the service without a final checkpoint, so recovery
  // replays the log, and check the recovered BAT against the last
  // acknowledged write.
  const uint64_t wal_after = writer->WalBytes();
  const uint64_t commits = svc->stats().durable_commits - commits_before;
  svc->Shutdown(false);
  std::string rec_error;
  const std::string rec_fp = writer->RecoveredFingerprint(&rec_error);
  out->Key("durability").BeginObject();
  out->FieldInt("wal_bytes", static_cast<int64_t>(wal_after - wal_before));
  out->FieldInt("commits", static_cast<int64_t>(commits));
  out->FieldInt("last_ack", writer->last_ack());
  out->FieldStr("last_ack_fp", writer->last_ack_fp());
  out->FieldStr("recovered_fp", rec_fp);
  out->FieldStr("error", rec_error);
  out->EndObject();
}

// Reference answers: the same programs run directly through the interpreter
// on the loaded catalog.
void RunReference(const moaflat::tpcd::TpcdInstance& inst,
                  const std::vector<Program>& progs, Json* out) {
  out->BeginArray("reference");
  for (const Program& p : progs) {
    moaflat::mil::MilEnv env = inst.db.env();
    IoStats io;
    ExecContext ctx;
    ctx.WithIo(&io).WithParallelDegree(1);
    moaflat::mil::MilInterpreter interp(&env, &ctx);
    const moaflat::Status st = interp.Run(p.parsed);
    moaflat::Result<std::string> fp =
        st.ok() ? Fingerprint(env.bindings(), p.results)
                : moaflat::Result<std::string>(st);
    out->BeginObject();
    out->FieldStr("fp", fp.ok() ? *fp : "");
    out->FieldInt("faults", static_cast<int64_t>(io.faults()));
    out->FieldStr("error", fp.ok() ? "" : fp.status().ToString());
    out->EndObject();
  }
  out->EndArray();
}

// Front-end layers timed from outside on the service texts, and the engine
// cross-check of the five queries, Monet against the row store.
void RunFrontendAndCrosscheck(const Options& o,
                              const moaflat::tpcd::TpcdInstance& inst,
                              moaflat::tpcd::QuerySuite* suite,
                              const std::vector<Program>& progs, Json* out) {
  out->BeginArray("frontend");
  for (const Program& p : progs) {
    std::vector<double> translate_ms, parse_ms, analyze_ms;
    for (int k = 0; k < (o.trace ? 21 : 1); ++k) {
      moaflat::moa::Rewriter rw(&inst.db);
      Clock::time_point t0 = Clock::now();
      auto tr = rw.TranslateText(suite->MoaText(p.q));
      translate_ms.push_back(Ms(t0, Clock::now()));
      if (!tr.ok()) break;
      t0 = Clock::now();
      auto parsed = moaflat::mil::ParseMil(p.mil);
      parse_ms.push_back(Ms(t0, Clock::now()));
      if (!parsed.ok()) break;
      t0 = Clock::now();
      moaflat::mil::AnalysisReport rep =
          moaflat::mil::AnalyzeProgram(*parsed, inst.db.env());
      analyze_ms.push_back(Ms(t0, Clock::now()));
      if (!rep.ok()) break;
    }
    out->BeginObject();
    out->Array("translate_ms", translate_ms);
    out->Array("parse_ms", parse_ms);
    out->Array("analyze_ms", analyze_ms);
    out->EndObject();
  }
  out->EndArray();

  out->BeginArray("crosscheck");
  for (int q : kReadQueries) {
    out->BeginObject();
    out->FieldInt("q", q);
    for (const bool monet : {true, false}) {
      IoStats io;
      ExecContext ctx;
      ctx.WithIo(&io).WithParallelDegree(1);
      const Clock::time_point t0 = Clock::now();
      auto r = monet ? suite->RunMonet(q, ctx) : suite->RunBaseline(q, ctx);
      WriteEngine(out, monet ? "monet" : "row", Ms(t0, Clock::now()), r);
    }
    out->EndObject();
  }
  out->EndArray();
}

}  // namespace

int RunService(const Options& o, Json* out, SpanLog* spans) {
  // The run is cut into one segment per set-up: each starts a service from
  // nothing (generate, load, service, durability recovery, sessions), makes
  // the first pass of the five programs where the lazy accelerators are
  // built, and then runs the mixed load for its share of --seconds.
  // Spreading the set-ups over the run samples the host's speed at several
  // points instead of once.
  int64_t qid = 1;
  out->BeginArray("setups");
  for (int seg = 0; seg < o.setups; ++seg) {
    const Loaded loaded = GenerateAndLoad(o.sf, o.seed);
    if (loaded.inst == nullptr) return 1;
    const moaflat::tpcd::TpcdInstance& inst = *loaded.inst;
    const Clock::time_point t2 = Clock::now();
    QueryService svc;
    DurableWriter writer(&svc, o.workdir + "/wal-" + std::to_string(seg));
    const std::string err = writer.Setup(inst.db.env());
    if (!err.empty()) {
      std::fprintf(stderr, "service setup failed: %s\n", err.c_str());
      return 1;
    }
    uint64_t readers[kReaders] = {};
    for (uint64_t& sid : readers) {
      auto s = svc.OpenSession({});
      if (!s.ok()) {
        std::fprintf(stderr, "open session: %s\n",
                     s.status().ToString().c_str());
        return 1;
      }
      sid = *s;
    }
    const Clock::time_point t3 = Clock::now();
    out->BeginObject();
    const double service_s = Ms(t2, t3) / 1000;
    out->Field("generate_s", loaded.generate_s);
    out->Field("load_s", loaded.load_s);
    out->Field("service_s", service_s);
    out->Field("total_s", loaded.generate_s + loaded.load_s + service_s);

    moaflat::tpcd::QuerySuite suite(loaded.inst);
    std::vector<Program> progs;
    if (BuildPrograms(inst, suite, &progs, out) != 0) return 1;
    out->BeginArray("first_pass");
    const Clock::time_point f0 = Clock::now();
    for (int k = 0; k < kPrograms; ++k) {
      Request r = RunRequest(&svc, readers[0], progs[k].text,
                             progs[k].results, false);
      r.prog = k;
      WriteRequest(out, r);
    }
    out->EndArray();
    out->Field("first_round_s", Ms(f0, Clock::now()) / 1000);
    // Every segment loads the same data, so one reference serves all.
    if (seg == 0) RunReference(inst, progs, out);

    TimedLoop(o, o.seconds / o.setups, &svc, readers, progs, &writer, &suite,
              out, spans, &qid);
    if (seg + 1 == o.setups) {
      RunFrontendAndCrosscheck(o, inst, &suite, progs, out);
    }
    out->EndObject();
    RemoveTree(writer.dir());
  }
  out->EndArray();
  return 0;
}

}  // namespace perfbench
