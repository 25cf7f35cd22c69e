#ifndef MOAFLAT_PERFBENCH_COMMON_H_
#define MOAFLAT_PERFBENCH_COMMON_H_

// Shared pieces of the benchmark program: the options a workload runs with,
// the in-memory span log of the traced run, the raw-sample JSON writer, the
// MIL renderer used for the service texts, and the service clients.
//
// The program only measures and records. Medians, tails, geometric means,
// self times and every correctness comparison are computed by run.py from
// the raw samples this code writes, so that arithmetic is unit-tested in one
// place (test_bench.py).

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mil/interpreter.h"
#include "mil/program.h"
#include "service/query_service.h"
#include "tpcd/loader.h"

namespace perfbench {

struct Options {
  std::string workload;  // "tpcd" or "service"
  double sf = 0.01;
  int degree = 1;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int setups = 3;        // set-up repetitions; setup_s is their median
  std::string workdir;   // where the WAL directories live
  std::string spans_path;
};

using Clock = std::chrono::steady_clock;

/// Milliseconds between two time points.
double Ms(Clock::time_point a, Clock::time_point b);

/// Milliseconds since the process-wide benchmark epoch (for spans and
/// per-sample timestamps).
double NowMs();

/// User plus system CPU seconds of the whole process (getrusage).
double CpuSeconds();

/// One traced interval. Spans of one query share `qid`; `parent` indexes the
/// span log (-1 for a root). `nominal` marks a span whose length is a
/// duration the engine measured itself (StmtTrace / TraceRecord) and whose
/// position inside its parent is reconstructed, not observed.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  int64_t qid = 0;
  bool nominal = false;
  int64_t rows = -1;  // kernel spans: the TraceRecord's out_size
};

class SpanLog {
 public:
  int Add(Span s) {
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes the log as JSON. Returns false if the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Adds the engine-measured children of one Monet query span: one span per
/// StmtTrace and one per kernel TraceRecord, laid back to back from the
/// parent's start in execution order. A kernel record belongs to the
/// statement whose `impl` list it matches in order; records outside every
/// statement (kernel calls made directly by the query code) hang off the
/// query span itself.
void AddEngineSpans(SpanLog* log, int query_span,
                    const std::vector<moaflat::mil::StmtTrace>& stmts,
                    const std::vector<moaflat::kernel::TraceRecord>& records);

/// Minimal JSON emitter for the raw-sample document.
class Json {
 public:
  Json& BeginObject();
  Json& EndObject();
  Json& BeginArray(const char* key = nullptr);
  Json& EndArray();
  Json& Key(const char* key);
  Json& Num(double v);
  Json& Int(int64_t v);
  Json& Bool(bool v);
  Json& Str(const std::string& v);
  Json& Field(const char* key, double v) { return Key(key).Num(v); }
  Json& FieldInt(const char* key, int64_t v) { return Key(key).Int(v); }
  Json& FieldBool(const char* key, bool v) { return Key(key).Bool(v); }
  Json& FieldStr(const char* key, const std::string& v) {
    return Key(key).Str(v);
  }
  Json& Array(const char* key, const std::vector<double>& v);
  const std::string& str() const { return out_; }

 private:
  void Sep();
  std::string out_;
  std::vector<bool> first_;  // per open container: no element written yet
  bool after_key_ = false;
};

/// Renders a program as MIL text that ParseMil reads back statement for
/// statement: string, char and date literals are quoted (MilProgram's own
/// ToString prints dates bare, which the parser splits at the dashes) and
/// doubles keep a decimal point and all their digits.
std::string RenderMil(const moaflat::mil::MilProgram& program);

/// Hex `storage::EnvFingerprint` of the bindings of `names`; a name that
/// `bindings` lacks is an error.
moaflat::Result<std::string> Fingerprint(
    const std::map<std::string, moaflat::mil::MilEnv::Binding>& bindings,
    const std::vector<std::string>& names);

/// One service request as seen by its client.
struct Request {
  int prog = -1;           // read program index, -1 for a write
  double submit_at = 0;    // NowMs() before Submit
  double submit_ms = 0;    // duration of the Submit call
  double latency_ms = 0;   // Submit call to Wait return
  double run_ms = 0;       // the service's elapsed_us
  double queue_ms = -1;    // observed only: Submit return to run start
  double commit_ms = -1;   // observed only: run end to Wait return
  uint64_t faults = 0;
  bool ok = false;
  std::string error;
  std::string fp;          // fingerprint of the result bindings
};

/// Submits `text` on `session`, waits for it and fills a Request. With
/// `observe` the client polls until the query leaves the queue, which splits
/// the latency into queue, run and commit time at the cost of a busy client.
Request RunRequest(moaflat::service::QueryService* svc, uint64_t session,
                   const std::string& text,
                   const std::vector<std::string>& result_names, bool observe);

/// Appends one Request as a JSON object.
void WriteRequest(Json* j, const Request& r);

/// Adds the spans of one service request: the client-observed `root`
/// ("service.read" or "service.write") with its Submit call and, when the
/// request was observed, its queue wait, run time and (writes) commit wait.
void AddRequestSpans(SpanLog* log, const Request& r, const std::string& root,
                     int64_t qid);

/// A durable write session on a QueryService whose store holds the written
/// BAT. Set-up writes the store's first checkpoint, enables durability
/// (recovery), attaches `catalog` beside the recovered store in memory and
/// opens the session.
class DurableWriter {
 public:
  DurableWriter(moaflat::service::QueryService* svc, std::string dir)
      : svc_(svc), dir_(std::move(dir)) {}

  /// Returns an error text, empty on success.
  std::string Setup(const moaflat::mil::MilEnv& catalog);

  /// One write; remembers the image of the last acknowledged one.
  Request Write(bool observe);

  uint64_t WalBytes() const;
  const std::string& dir() const { return dir_; }
  /// Fingerprint of `w` as the last acknowledged write left it.
  const std::string& last_ack_fp() const { return last_ack_fp_; }
  int64_t last_ack() const { return last_ack_; }

  /// After the service has shut down: recovers the store with
  /// storage::RecoverStore and fingerprints the recovered `w`.
  std::string RecoveredFingerprint(std::string* error) const;

 private:
  moaflat::service::QueryService* svc_;
  std::string dir_;
  uint64_t session_ = 0;
  int64_t next_ = 0;
  int64_t last_ack_ = -1;
  std::string last_ack_fp_;
};

/// A freshly generated and loaded TPC-D instance with the two phase times;
/// `inst` is null (and the error printed) when loading failed.
struct Loaded {
  std::shared_ptr<moaflat::tpcd::TpcdInstance> inst;
  double generate_s = 0;
  double load_s = 0;
};
Loaded GenerateAndLoad(double sf, uint64_t seed);

/// Removes a directory tree, ignoring errors.
void RemoveTree(const std::string& dir);

/// Writes the context every result records: nproc, block cap, degree, scale
/// factor, seed, build type and whether NDEBUG was set.
void WriteContext(Json* j, const Options& o);

int RunTpcd(const Options& o, Json* out, SpanLog* spans);
int RunService(const Options& o, Json* out, SpanLog* spans);

}  // namespace perfbench

#endif  // MOAFLAT_PERFBENCH_COMMON_H_
