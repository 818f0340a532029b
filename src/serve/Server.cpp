//===- serve/Server.cpp ---------------------------------------------------===//

#include "serve/Server.h"

#include "serve/Protocol.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace epre;

ServeDaemon::~ServeDaemon() {
  closeListen();
  for (std::thread &T : ConnThreads)
    if (T.joinable())
      T.join();
}

bool ServeDaemon::start(std::string *Err) {
  if (Cfg.SocketPath.empty()) {
    if (Err)
      *Err = "no socket path configured";
    return false;
  }
  sockaddr_un Addr{};
  if (Cfg.SocketPath.size() >= sizeof(Addr.sun_path)) {
    if (Err)
      *Err = strprintf("socket path longer than %zu bytes",
                       sizeof(Addr.sun_path) - 1);
    return false;
  }
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    if (Err)
      *Err = strprintf("socket: %s", std::strerror(errno));
    return false;
  }
  ::unlink(Cfg.SocketPath.c_str()); // stale socket from a previous run
  Addr.sun_family = AF_UNIX;
  std::strcpy(Addr.sun_path, Cfg.SocketPath.c_str());
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0) {
    if (Err)
      *Err = strprintf("bind %s: %s", Cfg.SocketPath.c_str(),
                       std::strerror(errno));
    closeListen();
    return false;
  }
  if (::listen(ListenFd, 64) < 0) {
    if (Err)
      *Err = strprintf("listen: %s", std::strerror(errno));
    closeListen();
    return false;
  }
  return true;
}

bool ServeDaemon::run() {
  // Periodic stats flush: the flight recorder stays current even when the
  // daemon dies to a signal that never reaches the orderly exit path
  // below. The thread sleeps on a cv so shutdown never waits a full
  // period.
  std::thread Flusher;
  if (!Cfg.StatsOutPath.empty() && Cfg.StatsFlushSeconds > 0) {
    Flusher = std::thread([this] {
      std::unique_lock<std::mutex> Lock(FlushMu);
      while (!FlushStop) {
        if (FlushCv.wait_for(Lock,
                             std::chrono::seconds(Cfg.StatsFlushSeconds),
                             [this] { return FlushStop; }))
          break;
        Lock.unlock();
        flushStats();
        Lock.lock();
      }
    });
  }

  bool Clean = true;
  while (!Stopping.load(std::memory_order_acquire)) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      // accept fails with EINVAL once the listen socket is shut down —
      // that is the orderly stop path (requestStop, or a signal handler
      // calling ::shutdown on listenFd()), not an error.
      Clean = Stopping.load(std::memory_order_acquire) || errno == EINVAL;
      Stopping.store(true, std::memory_order_release);
      break;
    }
    {
      std::lock_guard<std::mutex> Lock(ConnMu);
      LiveConns.push_back(Fd);
      uint32_t ConnId = ++ConnSeq;
      ConnThreads.emplace_back(
          [this, Fd, ConnId] { serveConnection(Fd, ConnId); });
    }
  }

  // Orderly drain: wake blocked reads on live connections, then join.
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (int Fd : LiveConns)
      ::shutdown(Fd, SHUT_RDWR);
  }
  for (std::thread &T : ConnThreads)
    if (T.joinable())
      T.join();
  ConnThreads.clear();

  if (Flusher.joinable()) {
    {
      std::lock_guard<std::mutex> Lock(FlushMu);
      FlushStop = true;
    }
    FlushCv.notify_all();
    Flusher.join();
  }

  closeListen();
  if (!Cfg.SocketPath.empty())
    ::unlink(Cfg.SocketPath.c_str());
  flushStats();
  if (!Cfg.TraceOutPath.empty()) {
    std::ofstream Out(Cfg.TraceOutPath);
    if (Out)
      Out << Svc.telemetry().chromeTrace() << "\n";
  }
  return Clean;
}

void ServeDaemon::flushStats() {
  if (Cfg.StatsOutPath.empty())
    return;
  // Temp file + rename: a reader polling mid-replay (the CI smoke test, an
  // operator's watch) never sees a half-written document. Serialized so an
  // exit-path flush cannot interleave with a periodic one.
  std::lock_guard<std::mutex> Lock(FlushMu);
  std::string Tmp = Cfg.StatsOutPath + ".tmp";
  {
    std::ofstream Out(Tmp);
    if (!Out)
      return;
    Out << Svc.metricsJSON() << "\n";
  }
  if (std::rename(Tmp.c_str(), Cfg.StatsOutPath.c_str()) != 0)
    ::unlink(Tmp.c_str());
}

void ServeDaemon::requestStop() {
  Stopping.store(true, std::memory_order_release);
  // Under ListenMu, so closeListen cannot close the descriptor (and an
  // unrelated open() reuse its number) between the load and the shutdown.
  std::lock_guard<std::mutex> Lock(ListenMu);
  int Fd = ListenFd.load(std::memory_order_acquire);
  if (Fd >= 0)
    ::shutdown(Fd, SHUT_RDWR);
}

void ServeDaemon::serveConnection(int Fd, uint32_t ConnId) {
  RequestInfo Info;
  Info.Peer = strprintf("unix:conn%u", ConnId);
  Info.ConnId = ConnId;
  std::string Payload;
  while (true) {
    FrameStatus St = readFrame(Fd, Payload);
    if (St != FrameStatus::Ok)
      break;
    std::string Response = Svc.handle(Payload, Info);
    if (!writeFrame(Fd, Response))
      break;
    if (Svc.shutdownRequested()) {
      requestStop();
      break;
    }
  }
  ::close(Fd);
  std::lock_guard<std::mutex> Lock(ConnMu);
  LiveConns.erase(std::remove(LiveConns.begin(), LiveConns.end(), Fd),
                  LiveConns.end());
}

void ServeDaemon::closeListen() {
  std::lock_guard<std::mutex> Lock(ListenMu);
  int Fd = ListenFd.exchange(-1, std::memory_order_acq_rel);
  if (Fd >= 0)
    ::close(Fd);
}
