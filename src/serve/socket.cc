#include "src/serve/socket.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <map>
#include <vector>

#include "src/serve/fleet_service.h"
#include "src/serve/socket_internal.h"
#include "src/util/strings.h"

namespace pandia {
namespace serve {
namespace {

using sock_internal::ErrnoStatus;
using sock_internal::SocketAddress;

// Stop reading a client once this many unflushed response bytes are buffered
// for it; resume once the backlog drains below the low watermark. Bounds
// daemon memory per slow client without head-of-line blocking anyone else.
constexpr size_t kWriteHighWatermark = 4u << 20;
constexpr size_t kWriteLowWatermark = 64u << 10;
// Compact the flushed prefix of a write buffer once it exceeds this.
constexpr size_t kWriteCompactThreshold = 64u << 10;

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

void SetBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    (void)::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  }
}

struct PollerEvent {
  int fd = -1;
  bool readable = false;
  bool error = false;
};

// The event loop's readiness source: level-triggered poll() over an
// interest map, so an fd with unread input (or writable space while write
// interest is registered) keeps firing until serviced. poll() watches every
// kind of descriptor a daemon's stdin can be — pipe, socket, terminal,
// /dev/null, regular file — so the loop needs no second backend. The
// pollfd array is rebuilt from the interest map on every wait: O(n) per
// wait, which is fine at the daemon's client counts.
class Poller {
 public:
  // Registers `fd`, or replaces its interest set if already registered.
  void Watch(int fd, bool read, bool write) {
    interest_[fd] = static_cast<short>((read ? POLLIN : 0) | (write ? POLLOUT : 0));
  }
  void Remove(int fd) { interest_.erase(fd); }
  // Blocks until at least one fd is ready; fills `out` (empty on EINTR).
  Status Wait(std::vector<PollerEvent>* out) {
    out->clear();
    fds_.clear();
    for (const auto& [fd, events] : interest_) {
      fds_.push_back(pollfd{fd, events, 0});
    }
    if (::poll(fds_.data(), fds_.size(), -1) < 0) {
      if (errno == EINTR) {
        return Status::Ok();
      }
      return ErrnoStatus("poll failed", "event loop");
    }
    for (const pollfd& entry : fds_) {
      if (entry.revents == 0) {
        continue;
      }
      out->push_back(PollerEvent{
          entry.fd, (entry.revents & (POLLIN | POLLHUP | POLLERR)) != 0,
          (entry.revents & (POLLERR | POLLNVAL)) != 0});
    }
    return Status::Ok();
  }

 private:
  std::map<int, short> interest_;
  std::vector<pollfd> fds_;
};

// Per-connection (or stdin) line assembly: consumes complete lines from the
// buffer, feeding each to the service; returns the concatenated responses.
// This is where pipelining happens — a client that wrote N request lines
// before reading gets N response blocks queued back to back.
std::string DrainLines(FleetService& service, std::string& buffer) {
  std::string responses;
  size_t start = 0;
  while (true) {
    const size_t newline = buffer.find('\n', start);
    if (newline == std::string::npos) {
      break;
    }
    std::string line = buffer.substr(start, newline - start);
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    start = newline + 1;
    if (line.empty()) {
      continue;  // blank lines are keep-alive no-ops
    }
    responses += service.HandleLine(line);
    if (service.shutdown_requested()) {
      break;
    }
  }
  buffer.erase(0, start);
  return responses;
}

// One socket client: partial-request input buffer, unflushed response bytes,
// and the backpressure state machine described in socket.h.
struct Connection {
  std::string in;
  std::string out;
  size_t out_offset = 0;  // bytes of `out` already written to the socket
  bool peer_eof = false;  // read side closed: flush what remains, then close
  bool paused = false;    // over the high watermark: read interest dropped

  size_t pending() const { return out.size() - out_offset; }
};

// Writes as much buffered output as the socket accepts without blocking.
// Returns false on a fatal transport error (peer reset, EPIPE).
bool FlushSome(int fd, Connection& conn) {
  while (conn.out_offset < conn.out.size()) {
    const ssize_t n = ::send(fd, conn.out.data() + conn.out_offset,
                             conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    return false;
  }
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
  } else if (conn.out_offset >= kWriteCompactThreshold) {
    conn.out.erase(0, conn.out_offset);
    conn.out_offset = 0;
  }
  return true;
}

// Services one readiness event on a client connection. Returns false when
// the connection should be closed (clean EOF fully flushed, or error).
bool HandleClient(FleetService& service, Poller& poller, int fd,
                  const PollerEvent& event, Connection& conn) {
  bool fatal = event.error;
  if (!fatal && event.readable && !conn.paused && !conn.peer_eof) {
    char chunk[64 * 1024];
    while (true) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n > 0) {
        conn.in.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {
        conn.peer_eof = true;
        break;
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      fatal = true;
      break;
    }
    if (!fatal) {
      conn.out += DrainLines(service, conn.in);
      // EOF: a trailing unterminated line still counts as a request.
      if (conn.peer_eof && !conn.in.empty() && !service.shutdown_requested()) {
        conn.out += service.HandleLine(conn.in);
        conn.in.clear();
      }
    }
  }
  if (!fatal) {
    fatal = !FlushSome(fd, conn);
  }
  if (fatal) {
    return false;
  }
  if (conn.peer_eof && conn.pending() == 0) {
    return false;  // clean close: everything owed has been delivered
  }
  if (!conn.paused && conn.pending() >= kWriteHighWatermark) {
    conn.paused = true;
  } else if (conn.paused && conn.pending() <= kWriteLowWatermark) {
    conn.paused = false;
  }
  poller.Watch(fd, /*read=*/!conn.paused && !conn.peer_eof,
               /*write=*/conn.pending() > 0);
  return true;
}

void AcceptClients(Poller& poller, int listen_fd,
                   std::map<int, Connection>& clients) {
  while (true) {
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // EAGAIN, or a transient accept failure: retry on next event
    }
    SetNonBlocking(client);
    poller.Watch(client, /*read=*/true, /*write=*/false);
    clients.emplace(client, Connection{});
  }
}

}  // namespace

StatusOr<SocketServer> SocketServer::Listen(const std::string& path) {
  StatusOr<sockaddr_un> addr = SocketAddress(path);
  if (!addr.ok()) {
    return addr.status();
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return ErrnoStatus("cannot create socket", path);
  }
  struct stat st;
  if (::lstat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      ::close(fd);
      return Status::FailedPrecondition(StrFormat(
          "socket path '%s' exists and is not a socket; refusing to delete it",
          path.c_str()));
    }
    // Probe the existing endpoint: a live daemon accepts the connection, a
    // socket left behind by a crashed run refuses it. Only the stale case
    // may be unlinked — clobbering a live daemon's endpoint would silently
    // cut it off from every future client.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe < 0) {
      ::close(fd);
      return ErrnoStatus("cannot create probe socket", path);
    }
    const bool accepted =
        ::connect(probe, reinterpret_cast<const sockaddr*>(&*addr),
                  sizeof(*addr)) == 0;
    const int probe_errno = errno;
    ::close(probe);
    if (accepted || (probe_errno != ECONNREFUSED && probe_errno != ENOENT)) {
      ::close(fd);
      return Status::FailedPrecondition(StrFormat(
          "socket '%s' already has a live listener", path.c_str()));
    }
    ::unlink(path.c_str());  // stale socket from a crashed run
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&*addr), sizeof(*addr)) != 0) {
    const Status status = ErrnoStatus("cannot bind socket", path);
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) != 0) {
    const Status status = ErrnoStatus("cannot listen on socket", path);
    ::close(fd);
    ::unlink(path.c_str());
    return status;
  }
  return SocketServer(fd, path);
}

SocketServer::SocketServer(SocketServer&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
  other.path_.clear();
}

SocketServer& SocketServer::operator=(SocketServer&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
      ::unlink(path_.c_str());
    }
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
    other.path_.clear();
  }
  return *this;
}

SocketServer::~SocketServer() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(path_.c_str());
  }
}

Status RunEventLoop(FleetService& service, int stdin_fd,
                    std::FILE* stdout_stream, SocketServer* server) {
  // stdout_stream may be a pipe whose reader is gone; without this a single
  // fputs would SIGPIPE the process instead of failing the one write.
  std::signal(SIGPIPE, SIG_IGN);
  Poller poller;
  std::string stdin_buffer;
  std::map<int, Connection> clients;
  bool stdin_open = stdin_fd >= 0;

  const auto drop_client = [&](std::map<int, Connection>::iterator it) {
    poller.Remove(it->first);
    ::close(it->first);
    clients.erase(it);
  };
  const auto close_clients = [&] {
    while (!clients.empty()) {
      drop_client(clients.begin());
    }
  };

  if (stdin_open) {
    poller.Watch(stdin_fd, /*read=*/true, /*write=*/false);
  }
  if (server != nullptr) {
    SetNonBlocking(server->listen_fd());
    poller.Watch(server->listen_fd(), /*read=*/true, /*write=*/false);
  }

  std::vector<PollerEvent> events;
  while (!service.shutdown_requested()) {
    // Without stdin, a rack with no listener could never terminate; the
    // loop still exits on SHUTDOWN, which is the supported path.
    if (!stdin_open && server == nullptr) {
      break;
    }
    if (Status waited = poller.Wait(&events); !waited.ok()) {
      close_clients();
      return waited;
    }
    for (const PollerEvent& event : events) {
      if (service.shutdown_requested()) {
        break;  // later events flush below, after the loop
      }
      if (stdin_open && event.fd == stdin_fd) {
        char chunk[4096];
        const ssize_t n = ::read(stdin_fd, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR) {
          continue;
        }
        if (n > 0) {
          stdin_buffer.append(chunk, static_cast<size_t>(n));
        }
        std::string responses = DrainLines(service, stdin_buffer);
        if (n <= 0) {  // EOF: a trailing unterminated line still counts
          if (!stdin_buffer.empty()) {
            responses += service.HandleLine(stdin_buffer);
            stdin_buffer.clear();
          }
          poller.Remove(stdin_fd);
          stdin_open = false;
        }
        if (!responses.empty()) {
          // Response stream to the stdin client, not a journal file.
          std::fputs(responses.c_str(), stdout_stream);   // pandia-lint: allow(no-raw-journal-io)
          std::fflush(stdout_stream);                     // pandia-lint: allow(no-raw-journal-io)
        }
        // Stdin EOF ends a stdin-only loop (the top-of-loop check fires);
        // with a socket server the daemon merely detaches stdin and keeps
        // serving clients until SHUTDOWN.
      } else if (server != nullptr && event.fd == server->listen_fd()) {
        AcceptClients(poller, server->listen_fd(), clients);
      } else {
        const auto it = clients.find(event.fd);
        if (it == clients.end()) {
          continue;
        }
        if (!HandleClient(service, poller, event.fd, event, it->second)) {
          drop_client(it);
        }
      }
    }
  }
  // Deliver what is owed — in particular the "ok SHUTDOWN" block to the
  // client that asked for it — with blocking writes; the buffers are
  // watermark-bounded so this terminates promptly.
  for (auto& [fd, conn] : clients) {
    if (conn.pending() == 0) {
      continue;
    }
    SetBlocking(fd);
    (void)sock_internal::WriteAll(fd, conn.out.substr(conn.out_offset));
  }
  close_clients();
  return Status::Ok();
}

}  // namespace serve
}  // namespace pandia
