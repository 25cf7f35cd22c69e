// perfbench: runs one workload and writes its raw samples as JSON.
//
//   perfbench --workload tpcd|service --sf F --degree D --seed N
//             --seconds S --trace 0|1 --setups K --workdir DIR
//             --out FILE [--spans FILE]
//
// run.py builds this program, picks the parameters of each named workload,
// and turns the samples into the reported metrics.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "common/parallel.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload tpcd|service --sf F --degree D --seed N "
               "--seconds S --trace 0|1 --setups K --workdir DIR "
               "--out FILE [--spans FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    if (std::strcmp(k, "--workload") == 0) {
      o.workload = v;
    } else if (std::strcmp(k, "--sf") == 0) {
      o.sf = std::atof(v);
    } else if (std::strcmp(k, "--degree") == 0) {
      o.degree = std::atoi(v);
    } else if (std::strcmp(k, "--seed") == 0) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(k, "--seconds") == 0) {
      o.seconds = std::atof(v);
    } else if (std::strcmp(k, "--trace") == 0) {
      o.trace = std::atoi(v) != 0;
    } else if (std::strcmp(k, "--setups") == 0) {
      o.setups = std::atoi(v);
    } else if (std::strcmp(k, "--workdir") == 0) {
      o.workdir = v;
    } else if (std::strcmp(k, "--out") == 0) {
      out_path = v;
    } else if (std::strcmp(k, "--spans") == 0) {
      o.spans_path = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || out_path.empty() || o.workdir.empty() ||
      o.sf <= 0 || o.degree < 1 || o.setups < 1 ||
      (o.workload != "tpcd" && o.workload != "service")) {
    return Usage(argv[0]);
  }
  std::error_code ec;
  std::filesystem::create_directories(o.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", o.workdir.c_str());
    return 1;
  }
  // The process default degree is what service sessions run at; the TPC-D
  // loop sets the same degree on every context explicitly.
  moaflat::SetParallelDegree(o.degree);

  perfbench::Json out;
  perfbench::SpanLog spans;
  out.BeginObject();
  perfbench::WriteContext(&out, o);
  const int rc = o.workload == "tpcd" ? perfbench::RunTpcd(o, &out, &spans)
                                      : perfbench::RunService(o, &out, &spans);
  if (rc != 0) return rc;
  out.FieldInt("spans", static_cast<int64_t>(spans.spans().size()));
  out.EndObject();

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fputs(out.str().c_str(), f);
  std::fputc('\n', f);
  if (std::fclose(f) != 0) return 1;
  if (!o.spans_path.empty() && !spans.WriteJson(o.spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", o.spans_path.c_str());
    return 1;
  }
  return 0;
}
