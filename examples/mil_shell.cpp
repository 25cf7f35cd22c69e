// A tiny MIL shell over the TPC-D database: type MIL statements (the
// paper's Fig. 10 notation, postfix `.mirror`/`.unique` included) and see
// results, chosen implementations and simulated page faults per statement.
//
// Usage:  example_mil_shell [scale_factor] < script.mil
//         echo 'count(select(Item_returnflag, 'R'))' | example_mil_shell
//         example_mil_shell --connect host:port    # remote query service
//
// In --connect mode each input line is sent to a running
// `service::WireServer` (SUBMIT, then WAIT + TRACE + RESULT), so the same
// shell drives a shared multi-session service instead of a private
// in-process database.
//
// A line starting with `\check` runs the static analyzer only — it prints
// the line-anchored diagnostics and the inferred result schema of the rest
// of the line (locally, or via the wire CHECK verb) and executes nothing.
//
// Remote mode adds asynchronous control:
//   \submit <mil>   submit without waiting; remembers the query id
//   \cancel [qid]   cancel the given (default: last submitted) query
//   \poll   [qid]   non-blocking state of a query
//   \wait   [qid]   block until the query is terminal
//
// Try the paper's Q13 plan:
//   orders := select(Order_clerk, "Clerk#000000005")
//   items := join(Item_order, orders)
//   returns := semijoin(Item_returnflag, items)
//   ritems := select(returns, 'R')
//   years := [year](join(ritems, Order_orderdate))   # via Item_order oids

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "mil/analyzer.h"
#include "mil/interpreter.h"
#include "mil/parser.h"
#include "service/wire.h"
#include "storage/page_accountant.h"
#include "tpcd/loader.h"

using namespace moaflat;  // NOLINT

namespace {

/// Remote mode: one wire session, one SUBMIT per input line. The protocol
/// rewrites `;` to statement separators, so multi-statement lines work.
int RunRemote(const std::string& host, uint16_t port) {
  service::WireClient cli;
  if (Status st = cli.Connect(host, port); !st.ok()) {
    std::fprintf(stderr, "connect %s:%u failed: %s\n", host.c_str(), port,
                 st.ToString().c_str());
    return 1;
  }
  auto call = [&](const std::string& line) {
    auto r = cli.Call(line);
    return r.ok() ? *r : "ERR " + r.status().ToString();
  };
  const std::string open = call("OPEN");
  if (open.rfind("OK ", 0) != 0) {
    std::fprintf(stderr, "OPEN failed: %s\n", open.c_str());
    return 1;
  }
  const std::string sid = open.substr(3);
  std::fprintf(stderr, "connected to %s:%u, session %s\n", host.c_str(),
               port, sid.c_str());

  std::string line;
  std::string last_qid;  // target of \cancel / \poll / \wait without an arg
  // `\cancel 42` / `\cancel` → the explicit or remembered query id.
  auto arg_or_last = [&](const std::string& args) {
    std::string qid = args;
    while (!qid.empty() && qid.front() == ' ') qid.erase(0, 1);
    while (!qid.empty() && qid.back() == ' ') qid.pop_back();
    return qid.empty() ? last_qid : qid;
  };
  while (std::getline(std::cin, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("\\check", 0) == 0) {
      // Static analysis only: diagnostics + inferred schema, no execution.
      const std::string check = call("CHECK " + sid + " " + line.substr(6));
      std::printf("%s\n", check.c_str());
      if (check.rfind("OK", 0) == 0) {
        if (auto body = cli.ReadBody(); body.ok()) {
          for (const std::string& row : *body) {
            std::printf("%s\n", row.c_str());
          }
        }
      }
      continue;
    }
    if (line.rfind("\\submit", 0) == 0) {
      // Fire-and-forget: the query runs while the shell stays interactive,
      // so a long scan can be \cancel'led mid-flight.
      const std::string submit = call("SUBMIT " + sid + " " + line.substr(7));
      std::printf("%s\n", submit.c_str());
      if (submit.rfind("OK ", 0) == 0) {
        last_qid = submit.substr(3, submit.find(' ', 3) - 3);
      }
      continue;
    }
    if (line.rfind("\\cancel", 0) == 0) {
      const std::string qid = arg_or_last(line.substr(7));
      if (qid.empty()) {
        std::printf("no query to cancel\n");
        continue;
      }
      std::printf("%s\n", call("CANCEL " + qid).c_str());
      std::printf("%s\n", call("POLL " + qid).c_str());
      continue;
    }
    if (line.rfind("\\poll", 0) == 0 || line.rfind("\\wait", 0) == 0) {
      const bool wait = line.rfind("\\wait", 0) == 0;
      const std::string qid = arg_or_last(line.substr(5));
      if (qid.empty()) {
        std::printf("no query to %s\n", wait ? "wait for" : "poll");
        continue;
      }
      std::printf("%s\n",
                  call((wait ? "WAIT " : "POLL ") + qid).c_str());
      continue;
    }
    const std::string submit = call("SUBMIT " + sid + " " + line);
    std::printf("%s\n", submit.c_str());
    if (submit.rfind("OK ", 0) != 0) continue;
    const std::string qid = submit.substr(3, submit.find(' ', 3) - 3);
    last_qid = qid;
    std::printf("%s\n", call("WAIT " + qid).c_str());
    if (call("TRACE " + qid).rfind("OK", 0) == 0) {
      if (auto body = cli.ReadBody(); body.ok()) {
        for (const std::string& row : *body) std::printf("%s\n", row.c_str());
      }
    }
    // Show the last statement's variable, like the local shell does.
    const size_t assign = line.rfind(":=");
    if (assign == std::string::npos) continue;
    const size_t stmt = line.rfind(';', assign);
    std::string var = line.substr(stmt == std::string::npos ? 0 : stmt + 1,
                                  assign - (stmt == std::string::npos
                                                ? 0
                                                : stmt + 1));
    while (!var.empty() && var.front() == ' ') var.erase(0, 1);
    while (!var.empty() && var.back() == ' ') var.pop_back();
    if (var.empty()) continue;
    if (call("RESULT " + qid + " " + var + " 8").rfind("OK", 0) == 0) {
      if (auto body = cli.ReadBody(); body.ok()) {
        std::printf("%s =\n", var.c_str());
        for (const std::string& row : *body) std::printf("%s\n", row.c_str());
      }
    }
  }
  call("CLOSE " + sid);
  call("BYE");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "--connect") {
    const std::string target = argv[2];
    const size_t colon = target.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "usage: %s --connect host:port\n", argv[0]);
      return 1;
    }
    return RunRemote(target.substr(0, colon),
                     static_cast<uint16_t>(
                         std::atoi(target.c_str() + colon + 1)));
  }

  const double sf = argc > 1 ? std::atof(argv[1]) : 0.005;
  auto inst = tpcd::MakeInstance(sf).ValueOrDie();
  std::fprintf(stderr,
               "TPC-D loaded at SF %.3f (%zu items). Enter MIL statements; "
               "probe clerk is %s.\n",
               sf, inst->num_items, inst->probe_clerk.c_str());

  mil::MilEnv env = inst->db.env();
  storage::IoStats io;
  kernel::ExecContext ctx;
  ctx.WithIo(&io);

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("\\check", 0) == 0) {
      // Static analysis only: diagnostics + inferred schema, no execution.
      auto program = mil::ParseMil(line.substr(6));
      if (!program.ok()) {
        std::printf("parse error: %s\n", program.status().ToString().c_str());
        continue;
      }
      const mil::AnalysisReport report = mil::AnalyzeProgram(*program, env);
      std::printf("%s%s", report.DiagnosticsString().c_str(),
                  report.SchemaString(mil::ResultNames(*program)).c_str());
      std::printf("%s (%d error%s, %d warning%s)\n",
                  report.ok() ? "ok" : "rejected", report.errors,
                  report.errors == 1 ? "" : "s", report.warnings,
                  report.warnings == 1 ? "" : "s");
      continue;
    }
    auto program = mil::ParseMil(line);
    if (!program.ok()) {
      std::printf("parse error: %s\n", program.status().ToString().c_str());
      continue;
    }
    mil::MilInterpreter interp(&env, &ctx);
    Status st = interp.Run(*program);
    if (!st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      continue;
    }
    for (const auto& t : interp.traces()) {
      std::printf("%8.3f ms %8llu faults %7zu out  %s  [%s]\n",
                  t.elapsed_us / 1000.0,
                  static_cast<unsigned long long>(t.faults), t.out_size,
                  t.text.c_str(), t.impl.c_str());
    }
    // Show the last bound variable.
    if (!program->stmts.empty()) {
      const std::string& var = program->stmts.back().var;
      if (auto b = env.GetBat(var); b.ok()) {
        std::printf("%s =\n%s", var.c_str(), b->DebugString(8).c_str());
      } else if (auto v = env.GetValue(var); v.ok()) {
        std::printf("%s = %s\n", var.c_str(), v->ToString().c_str());
      }
    }
  }
  return 0;
}
