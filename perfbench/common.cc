#include "common.h"

#include <sys/resource.h>

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>

#include "bat/column.h"
#include "common/parallel.h"
#include "storage/checkpoint.h"
#include "tpcd/generator.h"

namespace perfbench {

using moaflat::Value;
using moaflat::mil::MilEnv;
using moaflat::mil::MilProgram;
using moaflat::service::QueryService;
using moaflat::service::QueryState;

namespace {
const Clock::time_point kEpoch = Clock::now();
}  // namespace

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double NowMs() { return Ms(kEpoch, Clock::now()); }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// ------------------------------------------------------------------ spans

namespace {

std::vector<std::string> SplitImpls(const std::string& impl) {
  std::vector<std::string> out;
  if (impl.empty()) return out;
  size_t pos = 0;
  while (true) {
    const size_t plus = impl.find('+', pos);
    out.push_back(impl.substr(pos, plus - pos));
    if (plus == std::string::npos) break;
    pos = plus + 1;
  }
  return out;
}

}  // namespace

void AddEngineSpans(SpanLog* log, int query_span,
                    const std::vector<moaflat::mil::StmtTrace>& stmts,
                    const std::vector<moaflat::kernel::TraceRecord>& records) {
  const Span parent = log->spans()[query_span];
  double cursor = parent.start;
  auto add = [&](const std::string& name, int64_t elapsed_us, int under,
                 double at, int64_t rows = -1) {
    Span s;
    s.name = name;
    s.rows = rows;
    s.start = at;
    s.end = at + static_cast<double>(elapsed_us) / 1000.0;
    s.parent = under;
    s.qid = parent.qid;
    s.nominal = true;
    return log->Add(std::move(s));
  };
  size_t r = 0;
  for (const moaflat::mil::StmtTrace& st : stmts) {
    const std::vector<std::string> impls = SplitImpls(st.impl);
    // Records before this statement's own run are direct kernel calls.
    while (r < records.size()) {
      bool starts_here = !impls.empty() && records[r].impl == impls[0] &&
                         r + impls.size() <= records.size();
      for (size_t k = 1; starts_here && k < impls.size(); ++k) {
        starts_here = records[r + k].impl == impls[k];
      }
      if (starts_here || impls.empty()) break;
      cursor = log->spans()[add("kernel." + records[r].impl,
                                records[r].elapsed_us, query_span, cursor,
                                records[r].out_size)]
                   .end;
      ++r;
    }
    const int stmt_span = add("mil.stmt", st.elapsed_us, query_span, cursor);
    double inner = cursor;
    for (size_t k = 0; k < impls.size() && r < records.size(); ++k, ++r) {
      inner = log->spans()[add("kernel." + records[r].impl,
                               records[r].elapsed_us, stmt_span, inner,
                               records[r].out_size)]
                  .end;
    }
    cursor = log->spans()[stmt_span].end;
  }
  for (; r < records.size(); ++r) {
    cursor = log->spans()[add("kernel." + records[r].impl,
                              records[r].elapsed_us, query_span, cursor,
                              records[r].out_size)]
                 .end;
  }
}

void AddRequestSpans(SpanLog* log, const Request& r, const std::string& root,
                     int64_t qid) {
  Span s;
  s.name = root;
  s.start = r.submit_at;
  s.end = r.submit_at + r.latency_ms;
  s.qid = qid;
  const int parent = log->Add(s);
  auto child = [&](const char* name, double start, double ms, bool nominal) {
    Span c;
    c.name = name;
    c.start = start;
    c.end = start + ms;
    c.parent = parent;
    c.qid = qid;
    c.nominal = nominal;
    log->Add(std::move(c));
    return start + ms;
  };
  double at = child("service.submit", r.submit_at, r.submit_ms, false);
  if (r.queue_ms < 0) return;
  at = child("service.queue", at, r.queue_ms, false);
  at = child("service.run", at, r.run_ms, true);
  if (root == "service.write") child("wal.commit", at, r.commit_ms, false);
}

bool SpanLog::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start\":%.6f,\"end\":%.6f,\"parent\":%d,"
                 "\"qid\":%" PRId64 ",\"nominal\":%s,\"rows\":%" PRId64 "}%s\n",
                 s.name.c_str(), s.start, s.end, s.parent, s.qid,
                 s.nominal ? "true" : "false", s.rows,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------------- json

void Json::Sep() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

Json& Json::BeginObject() {
  Sep();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

Json& Json::EndObject() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

Json& Json::BeginArray(const char* key) {
  if (key != nullptr) Key(key);
  Sep();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

Json& Json::EndArray() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

Json& Json::Key(const char* key) {
  Sep();
  out_ += '"';
  out_ += key;
  out_ += "\":";
  after_key_ = true;
  return *this;
}

Json& Json::Num(double v) {
  Sep();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

Json& Json::Int(int64_t v) {
  Sep();
  out_ += std::to_string(v);
  return *this;
}

Json& Json::Bool(bool v) {
  Sep();
  out_ += v ? "true" : "false";
  return *this;
}

Json& Json::Str(const std::string& v) {
  Sep();
  out_ += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out_ += ' ';
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

Json& Json::Array(const char* key, const std::vector<double>& v) {
  BeginArray(key);
  for (double x : v) Num(x);
  return EndArray();
}

// ------------------------------------------------------------- MIL text

namespace {

std::string RenderLit(const Value& v) {
  switch (v.type()) {
    case moaflat::MonetType::kDate:
      return "\"" + v.AsDate().ToString() + "\"";
    case moaflat::MonetType::kDbl:
    case moaflat::MonetType::kFlt: {
      const double d = v.type() == moaflat::MonetType::kDbl
                           ? v.AsDbl()
                           : static_cast<double>(v.AsFlt());
      char buf[128];
      auto res = std::to_chars(buf, buf + sizeof(buf), d,
                               std::chars_format::fixed);
      std::string s(buf, res.ptr);
      if (s.find('.') == std::string::npos) s += ".0";
      return s;
    }
    default:
      return v.ToString();
  }
}

}  // namespace

std::string RenderMil(const MilProgram& program) {
  std::ostringstream os;
  for (const moaflat::mil::MilStmt& s : program.stmts) {
    os << s.var << " := " << s.op << "(";
    for (size_t i = 0; i < s.args.size(); ++i) {
      if (i > 0) os << ", ";
      const moaflat::mil::MilArg& a = s.args[i];
      os << (a.kind == moaflat::mil::MilArg::Kind::kVar ? a.var
                                                         : RenderLit(a.lit));
    }
    os << ")\n";
  }
  return os.str();
}

moaflat::Result<std::string> Fingerprint(
    const std::map<std::string, MilEnv::Binding>& bindings,
    const std::vector<std::string>& names) {
  MilEnv subset;
  for (const std::string& n : names) {
    auto it = bindings.find(n);
    if (it == bindings.end()) {
      return moaflat::Status::KeyError("result " + n + " is not bound");
    }
    subset.Bind(n, it->second);
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64,
                moaflat::storage::EnvFingerprint(subset));
  return std::string(buf);
}

// ---------------------------------------------------------------- writes

namespace {

// The written BAT: `w0` is a fixed image of kWriteRows BUNs and `w` the BAT
// each write rebinds.
constexpr int kWriteRows = 64;

MilEnv WriteCatalog() {
  std::vector<int32_t> heads(kWriteRows), tails(kWriteRows);
  for (int i = 0; i < kWriteRows; ++i) {
    heads[i] = i;
    tails[i] = 1000 + i;
  }
  MilEnv env;
  moaflat::bat::Bat w0(moaflat::bat::Column::MakeInt(heads),
                       moaflat::bat::Column::MakeInt(tails));
  env.BindBat("w0", w0);
  env.BindBat("w", w0);
  return env;
}

// MIL text of the `i`-th write: `w := insert(w0, ...)`, so the written BAT
// keeps a fixed size and every commit logs the same number of bytes. The key
// stays fixed and the value carries the write's ordinal, so the image of the
// last acknowledged write is unique.
std::string WriteText(int64_t i) {
  return "w := insert(w0, " + std::to_string(kWriteRows) + ", " +
         std::to_string(i % 1000000000) + ")";
}

}  // namespace

Request RunRequest(QueryService* svc, uint64_t session,
                   const std::string& text,
                   const std::vector<std::string>& result_names,
                   bool observe) {
  Request req;
  req.submit_at = NowMs();
  const Clock::time_point t0 = Clock::now();
  moaflat::Result<uint64_t> qid = svc->Submit(session, text);
  const Clock::time_point t1 = Clock::now();
  req.submit_ms = Ms(t0, t1);
  if (!qid.ok()) {
    req.error = "submit: " + qid.status().ToString();
    req.latency_ms = req.submit_ms;
    return req;
  }
  double started_ms = -1;
  if (observe) {
    // Poll until the query has left the queue; the executor flips it to
    // kRunning before the interpreter starts.
    while (true) {
      moaflat::Result<moaflat::service::QueryResult> p = svc->Poll(*qid);
      if (!p.ok() || p->state != QueryState::kQueued) {
        started_ms = Ms(t1, Clock::now());
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  moaflat::Result<moaflat::service::QueryResult> r = svc->Wait(*qid);
  const Clock::time_point t2 = Clock::now();
  req.latency_ms = Ms(t0, t2);
  if (!r.ok()) {
    req.error = "wait: " + r.status().ToString();
    return req;
  }
  req.run_ms = static_cast<double>(r->elapsed_us) / 1000.0;
  req.faults = r->faults;
  if (observe) {
    req.queue_ms = started_ms;
    req.commit_ms = std::max(0.0, Ms(t1, t2) - started_ms - req.run_ms);
  }
  if (r->state != QueryState::kDone) {
    static const char* kNames[] = {"queued", "running", "done",
                                   "error",  "vetoed",  "cancelled"};
    req.error = std::string(kNames[static_cast<int>(r->state)]) + ": " +
                r->status.ToString() + " " + r->admission.reason;
    return req;
  }
  moaflat::Result<std::string> fp = Fingerprint(r->results, result_names);
  if (!fp.ok()) {
    req.error = fp.status().ToString();
    return req;
  }
  req.ok = true;
  req.fp = *fp;
  return req;
}

void WriteRequest(Json* j, const Request& r) {
  j->BeginObject();
  j->FieldInt("prog", r.prog);
  j->Field("submit_at", r.submit_at);
  j->Field("submit_ms", r.submit_ms);
  j->Field("latency_ms", r.latency_ms);
  j->Field("run_ms", r.run_ms);
  j->Field("queue_ms", r.queue_ms);
  j->Field("commit_ms", r.commit_ms);
  j->FieldInt("faults", static_cast<int64_t>(r.faults));
  j->FieldBool("ok", r.ok);
  j->FieldStr("error", r.error);
  j->FieldStr("fp", r.fp);
  j->EndObject();
}

std::string DurableWriter::Setup(const MilEnv& catalog) {
  RemoveTree(dir_);
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return "cannot create " + dir_ + ": " + ec.message();
  moaflat::Status st =
      moaflat::storage::WriteCheckpoint(dir_, WriteCatalog(), 0);
  if (!st.ok()) return "checkpoint: " + st.ToString();
  st = svc_->EnableDurability(dir_);
  if (!st.ok()) return "durability: " + st.ToString();
  // EnableDurability installs the recovered store as the catalog; the
  // read-only TPC-D catalog is attached in memory beside it, so reads keep
  // the load-time datavectors a checkpoint does not carry.
  MilEnv merged = WriteCatalog();
  for (const auto& [name, b] : catalog.bindings()) merged.Bind(name, b);
  svc_->SetCatalog(std::move(merged));
  moaflat::service::SessionOptions opts;
  opts.durable = true;
  moaflat::Result<uint64_t> sid = svc_->OpenSession(opts);
  if (!sid.ok()) return "open: " + sid.status().ToString();
  session_ = *sid;
  return "";
}

Request DurableWriter::Write(bool observe) {
  const int64_t i = next_++;
  Request req = RunRequest(svc_, session_, WriteText(i), {"w"}, observe);
  if (req.ok) {
    last_ack_ = i;
    last_ack_fp_ = req.fp;
  }
  return req;
}

uint64_t DurableWriter::WalBytes() const {
  std::error_code ec;
  const auto n = std::filesystem::file_size(moaflat::storage::WalPath(dir_), ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

std::string DurableWriter::RecoveredFingerprint(std::string* error) const {
  auto store = moaflat::storage::RecoverStore(dir_);
  if (!store.ok()) {
    *error = "recover: " + store.status().ToString();
    return "";
  }
  moaflat::Result<std::string> fp = Fingerprint(store->env.bindings(), {"w"});
  if (!fp.ok()) {
    *error = "recover: " + fp.status().ToString();
    return "";
  }
  return *fp;
}

Loaded GenerateAndLoad(double sf, uint64_t seed) {
  Loaded out;
  const Clock::time_point t0 = Clock::now();
  // The generated rows are dropped as soon as they are loaded.
  moaflat::tpcd::TpcdData data = moaflat::tpcd::Generate(sf, seed);
  const Clock::time_point t1 = Clock::now();
  auto loaded = moaflat::tpcd::Load(data, sf);
  const Clock::time_point t2 = Clock::now();
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return out;
  }
  out.inst = *loaded;
  out.generate_s = Ms(t0, t1) / 1000;
  out.load_s = Ms(t1, t2) / 1000;
  return out;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

void WriteContext(Json* j, const Options& o) {
  j->Key("context").BeginObject();
  j->FieldStr("workload", o.workload);
  j->FieldInt("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  j->FieldInt("block_cap", moaflat::ParallelBlockCap());
  j->FieldInt("degree", o.degree);
  j->Field("scale_factor", o.sf);
  j->FieldInt("seed", static_cast<int64_t>(o.seed));
  j->Field("seconds", o.seconds);
  j->FieldBool("trace", o.trace);
  j->FieldStr("build_type", PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  j->FieldBool("ndebug", true);
#else
  j->FieldBool("ndebug", false);
#endif
  j->EndObject();
}

}  // namespace perfbench
