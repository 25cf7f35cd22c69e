#include "service/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

namespace moaflat::service {
namespace {

const char* StateName(QueryState s) {
  switch (s) {
    case QueryState::kQueued:
      return "QUEUED";
    case QueryState::kRunning:
      return "RUNNING";
    case QueryState::kDone:
      return "DONE";
    case QueryState::kError:
      return "ERROR";
    case QueryState::kVetoed:
      return "VETOED";
    case QueryState::kCancelled:
      return "CANCELLED";
  }
  return "?";
}

/// A single request line (command + inline MIL) may not exceed this; a
/// client that streams an unbounded line is cut off instead of growing the
/// server's buffer without limit.
constexpr size_t kMaxLineBytes = size_t{1} << 20;

const char* ActionName(Admission a) {
  switch (a) {
    case Admission::kAdmit:
      return "ADMIT";
    case Admission::kQueue:
      return "QUEUE";
    case Admission::kVeto:
      return "VETO";
  }
  return "?";
}

/// First whitespace-separated token; advances `rest` past it.
std::string TakeToken(std::string& rest) {
  size_t b = rest.find_first_not_of(" \t");
  if (b == std::string::npos) {
    rest.clear();
    return "";
  }
  size_t e = rest.find_first_of(" \t", b);
  std::string tok = rest.substr(b, e == std::string::npos ? e : e - b);
  rest = e == std::string::npos ? "" : rest.substr(e + 1);
  return tok;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

/// `;` separates statements on the wire (the protocol is line-based, MIL is
/// not).
std::string UnescapeMil(std::string mil) {
  std::replace(mil.begin(), mil.end(), ';', '\n');
  return mil;
}

/// Single-line rendering of a possibly multi-line message (analyzer
/// diagnostics embed newlines; ERR replies must stay one line).
std::string OneLine(std::string s) {
  while (!s.empty() && s.back() == '\n') s.pop_back();
  size_t pos = 0;
  while ((pos = s.find('\n', pos)) != std::string::npos) {
    s.replace(pos, 1, "; ");
    pos += 2;
  }
  return s;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

// ------------------------------------------------------------------ server

WireServer::WireServer(QueryService& service, uint16_t port)
    : service_(service), port_(port) {}

WireServer::~WireServer() { Stop(); }

Status WireServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError("socket(): " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind(): " + err);
  }
  if (::listen(listen_fd_, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("listen(): " + err);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void WireServer::Stop() {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  const int lfd = listen_fd_.exchange(-1);
  if (lfd >= 0) ::shutdown(lfd, SHUT_RDWR);  // wakes the blocked accept()
  if (accept_thread_.joinable()) accept_thread_.join();
  if (lfd >= 0) ::close(lfd);  // after join: the loop can't see a stale fd
  std::vector<int> conns;
  std::vector<std::thread> threads;
  {
    MutexLock lock(mu_);
    conns.swap(conns_);
    threads.swap(threads_);
  }
  for (int fd : conns) ::shutdown(fd, SHUT_RDWR);
  for (std::thread& t : threads) t.join();
  for (int fd : conns) ::close(fd);
}

void WireServer::AcceptLoop() {
  for (;;) {
    const int lfd = listen_fd_.load();
    if (lfd < 0) return;  // retired by Stop()
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      // A connection that died between SYN and accept(), a signal, or a
      // transient fd shortage must not kill the server for everyone else.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      return;  // listen socket shut down by Stop()
    }
    MutexLock lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    conns_.push_back(fd);
    threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void WireServer::ServeConnection(int fd) {
  std::string buf;
  char chunk[4096];
  ConnState conn;
  while (!conn.close) {
    const size_t nl = buf.find('\n');
    if (nl == std::string::npos) {
      if (buf.size() > kMaxLineBytes) {
        SendAll(fd, "ERR line too long\n");
        break;
      }
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;  // peer gone or Stop() shut us down
      buf.append(chunk, static_cast<size_t>(n));
      continue;
    }
    std::string line = buf.substr(0, nl);
    buf.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const std::string reply = HandleLine(line, conn);
    if (!SendAll(fd, reply)) break;
  }
  // However the connection ended — clean BYE, abrupt disconnect, oversized
  // line — every session it opened and did not CLOSE is closed now: the
  // running query (if any) is cancelled cooperatively and pending ones
  // vetoed, so a vanished client leaks nothing. CloseSession may have
  // raced a concurrent close; a KeyError here is fine.
  for (uint64_t sid : conn.sessions) {
    (void)service_.CloseSession(sid);
  }
}

std::string WireServer::HandleLine(const std::string& line, ConnState& conn) {
  std::string rest = line;
  std::string cmd = TakeToken(rest);
  std::transform(cmd.begin(), cmd.end(), cmd.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  std::ostringstream os;

  if (cmd == "PING" || cmd == "HELLO") {
    return "OK moaflat\n";
  }
  if (cmd == "BYE" || cmd == "QUIT") {
    conn.close = true;
    return "OK bye\n";
  }

  if (cmd == "OPEN") {
    SessionOptions opts;
    for (std::string tok = TakeToken(rest); !tok.empty();
         tok = TakeToken(rest)) {
      const size_t eq = tok.find('=');
      if (eq == std::string::npos) return "ERR malformed option\n";
      const std::string key = tok.substr(0, eq);
      uint64_t v = 0;
      if (!ParseU64(tok.substr(eq + 1), &v)) return "ERR malformed option\n";
      if (key == "budget") {
        opts.memory_budget = v;
      } else if (key == "degree") {
        opts.parallel_degree = static_cast<int>(v);
      } else if (key == "weight") {
        opts.weight = static_cast<uint32_t>(v);
      } else if (key == "maxcost") {
        opts.max_query_cost = static_cast<double>(v);
      } else if (key == "timeout") {
        opts.default_timeout_ms = static_cast<int64_t>(v);
      } else if (key == "durable") {
        opts.durable = v != 0;
      } else {
        return "ERR unknown option '" + key + "'\n";
      }
    }
    auto sid = service_.OpenSession(opts);
    if (!sid.ok()) return "ERR " + sid.status().message() + "\n";
    conn.sessions.push_back(*sid);
    return "OK " + std::to_string(*sid) + "\n";
  }

  if (cmd == "SUBMIT" || cmd == "PRICE") {
    uint64_t sid = 0;
    if (!ParseU64(TakeToken(rest), &sid)) return "ERR need session id\n";
    const std::string mil = UnescapeMil(rest);
    if (cmd == "PRICE") {
      auto price = service_.Price(sid, mil);
      if (!price.ok()) return "ERR " + OneLine(price.status().message()) + "\n";
      os << "OK cost=" << price->faults << " cost_lo=" << price->faults_lo
         << " bytes=" << price->est_result_bytes << "\n";
      return os.str();
    }
    auto qid = service_.Submit(sid, mil);
    if (!qid.ok()) return "ERR " + OneLine(qid.status().message()) + "\n";
    auto snap = service_.Poll(*qid);
    if (!snap.ok()) return "ERR " + snap.status().message() + "\n";
    os << "OK " << *qid << " " << ActionName(snap->admission.action)
       << " cost=" << snap->admission.predicted_cost;
    if (!snap->admission.reason.empty()) {
      os << " " << snap->admission.reason;
    }
    os << "\n";
    return os.str();
  }

  if (cmd == "POLL" || cmd == "WAIT") {
    uint64_t qid = 0;
    if (!ParseU64(TakeToken(rest), &qid)) return "ERR need query id\n";
    auto snap = cmd == "POLL" ? service_.Poll(qid) : service_.Wait(qid);
    if (!snap.ok()) return "ERR " + snap.status().message() + "\n";
    os << "OK " << StateName(snap->state)
       << " cost=" << snap->admission.predicted_cost
       << " faults=" << snap->faults << " charged=" << snap->memory_charged;
    if (snap->state == QueryState::kError ||
        snap->state == QueryState::kCancelled) {
      os << " " << OneLine(snap->status.message());
    } else if (snap->state == QueryState::kVetoed) {
      os << " " << OneLine(snap->admission.reason);
    }
    os << "\n";
    return os.str();
  }

  if (cmd == "CANCEL") {
    uint64_t qid = 0;
    if (!ParseU64(TakeToken(rest), &qid)) return "ERR need query id\n";
    Status st = service_.Cancel(qid);
    if (!st.ok()) return "ERR " + OneLine(st.message()) + "\n";
    return "OK\n";
  }

  if (cmd == "CHECK") {
    uint64_t sid = 0;
    if (!ParseU64(TakeToken(rest), &sid)) return "ERR need session id\n";
    auto report = service_.Check(sid, UnescapeMil(rest));
    if (!report.ok()) return "ERR " + OneLine(report.status().message()) + "\n";
    os << "OK " << (report->ok() ? "ok" : "rejected")
       << " errors=" << report->errors << " warnings=" << report->warnings
       << "\n";
    os << report->DiagnosticsString();
    // Inferred result schema: one line per binding, in statement order
    // (wire programs carry no result clause, so every statement var is a
    // result).
    std::vector<std::string> names;
    for (const auto& si : report->stmts) {
      if (std::find(names.begin(), names.end(), si.var) == names.end()) {
        names.push_back(si.var);
      }
    }
    os << report->SchemaString(names);
    os << ".\n";
    return os.str();
  }

  if (cmd == "RESULT") {
    uint64_t qid = 0;
    if (!ParseU64(TakeToken(rest), &qid)) return "ERR need query id\n";
    const std::string var = TakeToken(rest);
    uint64_t max_rows = 20;
    const std::string max_tok = TakeToken(rest);
    if (!max_tok.empty() && !ParseU64(max_tok, &max_rows)) {
      return "ERR malformed row limit\n";
    }
    auto snap = service_.Poll(qid);
    if (!snap.ok()) return "ERR " + snap.status().message() + "\n";
    auto it = snap->results.find(var);
    if (it == snap->results.end()) {
      return "ERR no result '" + var + "'\n";
    }
    if (const bat::Bat* b = std::get_if<bat::Bat>(&it->second)) {
      os << "OK " << b->size() << "\n"
         << b->DebugString(static_cast<size_t>(max_rows));
    } else {
      os << "OK 1\n" << std::get<Value>(it->second).ToString() << "\n";
    }
    os << ".\n";
    return os.str();
  }

  if (cmd == "TRACE") {
    uint64_t qid = 0;
    if (!ParseU64(TakeToken(rest), &qid)) return "ERR need query id\n";
    auto snap = service_.Poll(qid);
    if (!snap.ok()) return "ERR " + snap.status().message() + "\n";
    os << "OK\n";
    for (const mil::StmtTrace& t : snap->traces) {
      os << t.elapsed_us / 1000.0 << "ms " << t.faults << "f "
         << t.out_size << " " << t.text;
      if (!t.impl.empty()) os << " [" << t.impl << "]";
      os << "\n";
    }
    os << ".\n";
    return os.str();
  }

  if (cmd == "SYNC") {
    Status st = service_.Sync();
    if (!st.ok()) return "ERR " + OneLine(st.message()) + "\n";
    return "OK synced\n";
  }

  if (cmd == "CLOSE") {
    uint64_t sid = 0;
    if (!ParseU64(TakeToken(rest), &sid)) return "ERR need session id\n";
    Status st = service_.CloseSession(sid);
    if (!st.ok()) return "ERR " + st.message() + "\n";
    // Explicitly closed: the disconnect cleanup must not close it again.
    conn.sessions.erase(
        std::remove(conn.sessions.begin(), conn.sessions.end(), sid),
        conn.sessions.end());
    return "OK\n";
  }

  return "ERR unknown command '" + cmd + "'\n";
}

// ------------------------------------------------------------------ client

Status WireClient::Connect(const std::string& host, uint16_t port,
                           int max_retries) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host == "localhost" || host.empty()) {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::Invalid("unparsable IPv4 host '" + host + "'");
  }
  int backoff_ms = 50;
  for (int attempt = 0;; ++attempt) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return Status::IoError("socket(): " + std::string(std::strerror(errno)));
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      ApplyTimeout();
      return Status::OK();
    }
    const std::string err = std::strerror(errno);
    Close();
    if (attempt >= max_retries) {
      return Status::IoError("connect(): " + err);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, 1000);
  }
}

void WireClient::SetCallTimeout(int ms) {
  call_timeout_ms_ = ms > 0 ? ms : 0;
  ApplyTimeout();
}

void WireClient::ApplyTimeout() {
  if (fd_ < 0) return;
  timeval tv{};
  tv.tv_sec = call_timeout_ms_ / 1000;
  tv.tv_usec = (call_timeout_ms_ % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void WireClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
}

Result<std::string> WireClient::ReadLine() {
  char chunk[4096];
  for (;;) {
    const size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Status::DeadlineExceeded("wire call timed out after " +
                                      std::to_string(call_timeout_ms_) +
                                      " ms");
    }
    if (n <= 0) return Status::IoError("connection closed");
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

Result<std::string> WireClient::Call(const std::string& line) {
  if (fd_ < 0) return Status::IoError("not connected");
  if (!SendAll(fd_, line + "\n")) return Status::IoError("send failed");
  return ReadLine();
}

Result<std::vector<std::string>> WireClient::ReadBody() {
  std::vector<std::string> lines;
  for (;;) {
    MF_ASSIGN_OR_RETURN(std::string line, ReadLine());
    if (line == ".") return lines;
    lines.push_back(std::move(line));
  }
}

}  // namespace moaflat::service
