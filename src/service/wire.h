#ifndef MOAFLAT_SERVICE_WIRE_H_
#define MOAFLAT_SERVICE_WIRE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "service/query_service.h"

/// A thin line-protocol socket front end over the embedded QueryService, so
/// a MIL shell can attach remotely (`mil_shell --connect host:port`). One
/// text line per request, one `OK ...` / `ERR ...` line per reply;
/// multi-line replies (RESULT, TRACE) end with a lone `.`:
///
///   OPEN [budget=N] [degree=D] [weight=W] [maxcost=C] [timeout=MS]
///        [durable=1]               -> OK <sid>
///                                     (durable=1 needs EnableDurability on
///                                     the service; mutating queries then
///                                     report DONE only after their WAL
///                                     record is fsynced, and a durability
///                                     IO error flips the service read-only:
///                                     further mutations are VETOed with the
///                                     latched reason, reads keep serving)
///   SUBMIT <sid> <mil text>        -> OK <qid> ADMIT|QUEUE|VETO cost=<c> ...
///   PRICE <sid> <mil text>         -> OK cost=<c> cost_lo=<l> bytes=<b>
///   CHECK <sid> <mil text>         -> OK ok|rejected errors=<e>
///                                     warnings=<w>, then the analyzer's
///                                     diagnostics and the inferred result
///                                     schema, then "."
///   POLL <qid> / WAIT <qid>        -> OK <state> cost=<c> faults=<f> ...
///   CANCEL <qid>                   -> OK (queued: terminal immediately;
///                                     running: stops at next block boundary;
///                                     POLL/WAIT then report CANCELLED)
///   RESULT <qid> <var> [max_rows]  -> OK <rows>, then rows, then "."
///   TRACE <qid>                    -> OK, then Fig. 10 lines, then "."
///   SYNC                           -> OK synced (checkpoints the catalog
///                                     atomically and truncates the WAL)
///   CLOSE <sid>                    -> OK
///   PING                           -> OK moaflat
///   BYE                            -> OK bye (connection closes)
///
/// In SUBMIT/PRICE/CHECK the MIL text is the rest of the line; `;`
/// separates statements (rewritten to newlines before parsing). A program
/// the static analyzer rejects is reported `VETO` with the first diagnostic
/// as reason (SUBMIT) or as a plain `ERR` with the diagnostics joined by
/// `;` (PRICE); nothing executes either way.
///
/// Robustness: a request line longer than 1 MiB draws `ERR line too long`
/// and closes the connection; an abrupt disconnect (peer vanishes
/// mid-query) closes every session the connection opened — the running
/// query is cancelled cooperatively and its resources released — without
/// disturbing other connections or the accept loop.
namespace moaflat::service {

class WireServer {
 public:
  /// Serves `service` on 127.0.0.1:`port` (0 = ephemeral, see port()).
  explicit WireServer(QueryService& service, uint16_t port = 0);
  ~WireServer();

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// Binds, listens and starts the accept thread.
  Status Start();

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }

  /// Stops accepting, shuts down live connections, joins all threads.
  void Stop() MOAFLAT_EXCLUDES(mu_);

 private:
  /// Per-connection state: the sessions this connection opened (closed on
  /// its behalf if it vanishes without CLOSE) and the close flag BYE sets.
  struct ConnState {
    std::vector<uint64_t> sessions;
    bool close = false;
  };

  void AcceptLoop() MOAFLAT_EXCLUDES(mu_);
  void ServeConnection(int fd);
  std::string HandleLine(const std::string& line, ConnState& conn);

  QueryService& service_;
  uint16_t port_;
  // Read by AcceptLoop() while Stop() retires it, hence atomic; the fd is
  // only close()d after the accept thread joins, so the value it loaded
  // stays valid (shutdown() is what wakes the blocked accept()).
  std::atomic<int> listen_fd_{-1};
  std::thread accept_thread_;
  // Guards the connection registry against Stop(); ranked below every
  // other lock because HandleLine calls into the QueryService.
  Mutex mu_{LockRank::kWireServer, "wire_server"};
  std::vector<int> conns_ MOAFLAT_GUARDED_BY(mu_);
  std::vector<std::thread> threads_ MOAFLAT_GUARDED_BY(mu_);
  bool stopping_ MOAFLAT_GUARDED_BY(mu_) = false;
};

/// Minimal blocking client for the wire protocol, used by the remote MIL
/// shell and the tests.
class WireClient {
 public:
  WireClient() = default;
  ~WireClient() { Close(); }

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Connects, retrying a refused/unreachable server up to `max_retries`
  /// extra times with doubling backoff (50 ms start, 1 s cap) — enough for
  /// a client racing a server that is still binding its port.
  Status Connect(const std::string& host, uint16_t port, int max_retries = 0);

  /// Bounds every subsequent Call/ReadBody: a server that stops responding
  /// for `ms` milliseconds draws kDeadlineExceeded instead of hanging the
  /// client forever (0 = wait indefinitely). Applies to the current and any
  /// future connection of this client.
  void SetCallTimeout(int ms);

  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Sends one request line and returns the first reply line.
  Result<std::string> Call(const std::string& line);

  /// Reads lines of a multi-line reply body until the `.` terminator.
  Result<std::vector<std::string>> ReadBody();

 private:
  Result<std::string> ReadLine();
  void ApplyTimeout();

  int fd_ = -1;
  int call_timeout_ms_ = 0;
  std::string buf_;
};

}  // namespace moaflat::service

#endif  // MOAFLAT_SERVICE_WIRE_H_
