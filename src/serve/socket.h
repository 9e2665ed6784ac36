// Server-side transports for the placement daemon: a Unix-domain socket
// listener and the multi-client event loop that drives the daemon's front
// door, FleetService (src/serve/fleet_service.h).
//
// The event loop multiplexes line-delimited requests from an optional stdin
// file descriptor (answers go to a stdio stream) and from any number of
// socket clients (each answered on its own connection). Requests are
// processed strictly serially in arrival order, so daemon state stays
// deterministic regardless of transport.
//
// Mechanics (see socket.cc):
//   * one level-triggered poll() loop. poll() accepts every kind of stdin
//     (pipe, socket, terminal, /dev/null, regular file), so there is no
//     second backend and no fallback.
//   * client sockets are nonblocking; requests pipeline — a client may
//     write any number of request lines before reading, and responses
//     stream back in order.
//   * per-connection bounded write buffering: responses a slow client has
//     not drained are buffered up to a high watermark, past which the
//     daemon stops *reading* that client (backpressure) while continuing
//     to serve everyone else — one stalled reader cannot head-of-line
//     block the fleet.
//
// The client side of the protocol lives in src/serve/client.h
// (serve::Client and the one-shot SocketExchange wrapper).
#ifndef PANDIA_SRC_SERVE_SOCKET_H_
#define PANDIA_SRC_SERVE_SOCKET_H_

#include <cstdio>
#include <string>

#include "src/util/status.h"

namespace pandia {
namespace serve {

class FleetService;

// A listening Unix-domain socket. The path is unlinked on destruction (and
// any stale socket file is unlinked before binding).
class SocketServer {
 public:
  static StatusOr<SocketServer> Listen(const std::string& path);

  SocketServer(SocketServer&& other) noexcept;
  SocketServer& operator=(SocketServer&& other) noexcept;
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;
  ~SocketServer();

  int listen_fd() const { return fd_; }
  const std::string& path() const { return path_; }

 private:
  SocketServer(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

// Runs the serving loop until a SHUTDOWN request is acknowledged or a
// transport error occurs. `server` may be null (stdin/stdout only — then
// stdin EOF also ends the loop); `stdin_fd` may be -1 (socket only). With
// both transports, stdin EOF merely detaches stdin: the daemon keeps
// serving socket clients, so it can be backgrounded with stdin closed.
// On shutdown, pending response bytes are flushed to every connected
// client best-effort before the loop returns.
Status RunEventLoop(FleetService& service, int stdin_fd,
                    std::FILE* stdout_stream, SocketServer* server);

}  // namespace serve
}  // namespace pandia

#endif  // PANDIA_SRC_SERVE_SOCKET_H_
