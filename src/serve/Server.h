//===- serve/Server.h - Unix-domain socket daemon ----------------*- C++ -*-===//
///
/// \file
/// The socket shell around CompileService: binds a Unix-domain stream
/// socket, accepts connections, and runs one frame-in/frame-out loop per
/// connection on its own thread. All compile logic lives in the service;
/// this layer only moves frames and owns the daemon lifecycle:
///
///  - start() binds and listens (so callers know the socket exists before
///    pointing clients at it), run() serves until stopped;
///  - a "shutdown" command, requestStop(), or closing the listen socket
///    from a signal handler all converge on the same orderly exit: stop
///    accepting, shut down live connections, join their threads, unlink
///    the socket path;
///  - stats-out: the service's metrics document is written to the
///    configured path periodically (StatsFlushSeconds) and once more on
///    every exit path — shutdown command, requestStop, signal-initiated
///    stop — so the daemon's flight recorder survives a SIGTERM with at
///    most one flush interval of loss. Writes go through a temp file and
///    rename so readers never see a torn document;
///  - trace-out: when configured, every request's telemetry span tree
///    (with the per-function pass timers nested inside) is retained and
///    exported as one Chrome trace for the whole daemon run on exit.
///
/// The in-process tests drive a ServeDaemon from a background thread and
/// talk to it over real sockets, which is exactly what epre-served does.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_SERVE_SERVER_H
#define EPRE_SERVE_SERVER_H

#include "serve/Service.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace epre {

struct ServerConfig {
  std::string SocketPath;
  /// Where to write the service metricsJSON() document ("" = nowhere).
  /// Written atomically (temp file + rename) every StatsFlushSeconds and
  /// on every exit path.
  std::string StatsOutPath;
  /// Period of the background stats flush; 0 flushes only at exit.
  unsigned StatsFlushSeconds = 5;
  /// Where to write the daemon-run Chrome trace on exit ("" = nowhere).
  /// Setting this turns on span collection (Telemetry CollectSpans).
  std::string TraceOutPath;
  ServiceConfig Service;
};

class ServeDaemon {
public:
  explicit ServeDaemon(const ServerConfig &C)
      : Cfg(C), Svc(effectiveService(C)) {}
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon &) = delete;
  ServeDaemon &operator=(const ServeDaemon &) = delete;

  /// Binds and listens on the configured socket path (unlinking any stale
  /// socket first). Returns false with a diagnostic on failure.
  bool start(std::string *Err);

  /// Serves until a shutdown command or requestStop(). Joins every
  /// connection thread, unlinks the socket, and writes stats-out before
  /// returning. Returns false if a fatal accept error ended the loop.
  bool run();

  /// Stops the accept loop from another thread (or after fork from a
  /// signal handler via listenFd() + ::shutdown, which is async-signal
  /// safe; this method itself is not).
  void requestStop();

  int listenFd() const { return ListenFd.load(std::memory_order_acquire); }
  CompileService &service() { return Svc; }

private:
  /// A trace-out path implies span collection; everything else passes
  /// through unchanged.
  static ServiceConfig effectiveService(const ServerConfig &C) {
    ServiceConfig S = C.Service;
    if (!C.TraceOutPath.empty())
      S.Telemetry.CollectSpans = true;
    return S;
  }

  void serveConnection(int Fd, uint32_t ConnId);
  void closeListen();
  void flushStats();

  ServerConfig Cfg;
  CompileService Svc;
  /// Atomic so listenFd() (signal handlers) and accept() read it without a
  /// lock; ListenMu orders requestStop's shutdown against closeListen.
  std::atomic<int> ListenFd{-1};
  std::mutex ListenMu;
  std::atomic<bool> Stopping{false};
  std::mutex ConnMu;
  std::vector<int> LiveConns;          ///< fds of in-flight connections
  std::vector<std::thread> ConnThreads;
  uint32_t ConnSeq = 0; ///< under ConnMu; names peers "unix:conn<N>"

  std::mutex FlushMu; ///< guards the cv and serializes stats writes
  std::condition_variable FlushCv;
  bool FlushStop = false;
};

} // namespace epre

#endif // EPRE_SERVE_SERVER_H
