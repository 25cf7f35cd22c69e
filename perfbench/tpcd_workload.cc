// The Fig. 9 query loop: generate and load TPC-D at the workload's scale
// factor, run Q1-Q15 once as the warm-up (first) round, then timed rounds in
// which each query runs on the Monet engine and on the row store back to
// back. Every answer is recorded for run.py to cross-check.

#include <algorithm>
#include <cstdio>

#include "common.h"
#include "mil/analyzer.h"
#include "mil/parser.h"
#include "moa/rewriter.h"
#include "storage/memory_tracker.h"
#include "storage/page_accountant.h"
#include "tpcd/queries.h"

namespace perfbench {

using moaflat::kernel::ExecContext;
using moaflat::kernel::ExecTracer;
using moaflat::storage::IoStats;
using moaflat::storage::MemoryTracker;
using moaflat::tpcd::EngineRun;
using moaflat::tpcd::QuerySuite;

namespace {

constexpr int kQueries = QuerySuite::kNumQueries;
constexpr int kMoaQueries[] = {1, 3, 6, 10, 13};
// Timed rounds run at least this often, whatever --seconds says: a tail needs
// more than 10 samples (see stats.py).
constexpr int kMinRounds = 11;

struct Exec {
  double ms = 0;
  EngineRun run;
  uint64_t faults = 0;
  std::string error;
};

Exec RunOne(QuerySuite* suite, int q, bool monet, int degree,
            ExecTracer* tracer) {
  IoStats io;
  ExecContext ctx;
  ctx.WithIo(&io).WithParallelDegree(degree).WithTracer(tracer);
  Exec e;
  const Clock::time_point t0 = Clock::now();
  moaflat::Result<EngineRun> r =
      monet ? suite->RunMonet(q, ctx) : suite->RunBaseline(q, ctx);
  e.ms = Ms(t0, Clock::now());
  e.faults = io.faults();
  if (r.ok()) {
    e.run = std::move(r).Value();
  } else {
    e.error = r.status().ToString();
  }
  return e;
}

void WriteExec(Json* j, const char* key, const Exec& e) {
  j->Key(key).BeginObject();
  j->Field("ms", e.ms);
  j->FieldInt("rows", static_cast<int64_t>(e.run.rows));
  j->Field("check", e.run.check);
  j->FieldInt("faults", static_cast<int64_t>(e.faults));
  j->FieldStr("error", e.error);
  j->EndObject();
}

// One timed round: every query on the Monet engine, then on the row store.
// A traced round also records spans and times the front end from outside.
void RunRound(const Options& o, QuerySuite* suite,
              const moaflat::tpcd::TpcdInstance& inst, int round, bool traced,
              Json* out, SpanLog* spans) {
  MemoryTracker& mem = MemoryTracker::Global();
  out->BeginObject();
  out->FieldInt("round", round);
  out->FieldBool("traced", traced);
  double peak_mb = 0, alloc_mb = 0;
  out->BeginArray("queries");
  for (int q = 1; q <= kQueries; ++q) {
    ExecTracer tracer;
    const uint64_t live = mem.current();
    mem.MarkEpoch();
    const double m_at = NowMs();
    Exec m = RunOne(suite, q, true, o.degree, traced ? &tracer : nullptr);
    peak_mb = std::max(peak_mb, (mem.peak() - live) / 1e6);
    alloc_mb += mem.allocated_total() / 1e6;
    const double r_at = NowMs();
    Exec r = RunOne(suite, q, false, o.degree, nullptr);
    out->BeginObject();
    out->FieldInt("q", q);
    WriteExec(out, "monet", m);
    WriteExec(out, "row", r);
    if (traced) {
      out->FieldInt("stmts", static_cast<int64_t>(m.run.traces.size()));
      // qid = round * 100 + q for the Monet run, + 50 for the row store.
      Span qs;
      qs.name = "tpcd.q" + std::to_string(q);
      qs.start = m_at;
      qs.end = m_at + m.ms;
      qs.qid = round * 100 + q;
      AddEngineSpans(spans, spans->Add(qs), m.run.traces, tracer.records);
      Span rs;
      rs.name = "relational.q" + std::to_string(q);
      rs.start = r_at;
      rs.end = r_at + r.ms;
      rs.qid = round * 100 + 50 + q;
      spans->Add(rs);
    }
    out->EndObject();
  }
  out->EndArray();
  out->Field("mem_peak_mb", peak_mb);
  out->Field("alloc_mb", alloc_mb);

  if (traced) {
    // Front-end layers timed from outside: MOA rewrite, MIL parse and static
    // analysis of the MOA-translated queries.
    double translate_ms = 0, parse_ms = 0, analyze_ms = 0;
    for (int q : kMoaQueries) {
      moaflat::moa::Rewriter rw(&inst.db);
      Clock::time_point t0 = Clock::now();
      auto tr = rw.TranslateText(suite->MoaText(q));
      translate_ms += Ms(t0, Clock::now());
      if (!tr.ok()) {
        out->FieldStr("analyze_error", tr.status().ToString());
        continue;
      }
      const std::string text = RenderMil(tr->program);
      t0 = Clock::now();
      auto parsed = moaflat::mil::ParseMil(text);
      parse_ms += Ms(t0, Clock::now());
      if (!parsed.ok()) {
        out->FieldStr("analyze_error", parsed.status().ToString());
        continue;
      }
      t0 = Clock::now();
      moaflat::mil::AnalysisReport rep =
          moaflat::mil::AnalyzeProgram(*parsed, inst.db.env());
      analyze_ms += Ms(t0, Clock::now());
      if (!rep.ok()) out->FieldStr("analyze_error", rep.FirstError());
    }
    out->Field("translate_ms", translate_ms);
    out->Field("parse_ms", parse_ms);
    out->Field("analyze_ms", analyze_ms);
  }
  out->EndObject();
}

}  // namespace

int RunTpcd(const Options& o, Json* out, SpanLog* spans) {
  // The run is cut into one segment per set-up: each starts from nothing
  // (generate, load), makes the first Monet pass over Q1-Q15 where the lazy
  // accelerators are built, and then runs warm rounds for its share of
  // --seconds. Spreading the set-ups over the run samples the host's speed
  // at several points instead of once.
  const int per_segment = (kMinRounds + o.setups - 1) / o.setups;
  int round = 0;
  out->BeginArray("setups");
  for (int seg = 0; seg < o.setups; ++seg) {
    const Loaded loaded = GenerateAndLoad(o.sf, o.seed);
    if (loaded.inst == nullptr) return 1;
    const moaflat::tpcd::TpcdInstance& inst = *loaded.inst;
    QuerySuite suite(loaded.inst);
    out->BeginObject();
    out->Field("generate_s", loaded.generate_s);
    out->Field("load_s", loaded.load_s);
    out->Field("total_s", loaded.generate_s + loaded.load_s);

    std::vector<Exec> monet;
    double first_round_ms = 0;
    for (int q = 1; q <= kQueries; ++q) {
      monet.push_back(RunOne(&suite, q, true, o.degree, nullptr));
      first_round_ms += monet.back().ms;
    }
    out->Field("first_round_s", first_round_ms / 1000);
    // The row store's answers, run after the pass, for the cross-check.
    out->BeginArray("first_round");
    for (int q = 1; q <= kQueries; ++q) {
      Exec r = RunOne(&suite, q, false, o.degree, nullptr);
      out->BeginObject();
      out->FieldInt("q", q);
      WriteExec(out, "monet", monet[q - 1]);
      WriteExec(out, "row", r);
      out->EndObject();
    }
    out->EndArray();

    const Clock::time_point start = Clock::now();
    const double cpu_before = CpuSeconds();
    out->BeginArray("rounds");
    for (int k = 0; k < per_segment ||
                    Ms(start, Clock::now()) < o.seconds * 1000.0 / o.setups;
         ++k, ++round) {
      // In the traced run every other round is traced, so the same run also
      // measures the untraced times the tracing overhead is taken against.
      RunRound(o, &suite, inst, round, o.trace && round % 2 == 0, out, spans);
    }
    out->EndArray();
    out->Field("timed_wall_s", Ms(start, Clock::now()) / 1000);
    out->Field("timed_cpu_s", CpuSeconds() - cpu_before);
    out->EndObject();
  }
  out->EndArray();
  return 0;
}

}  // namespace perfbench
