#include "src/serve/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "src/serve/socket_internal.h"
#include "src/util/strings.h"

namespace pandia {
namespace serve {
namespace {

using sock_internal::ErrnoStatus;
using sock_internal::SocketAddress;
using sock_internal::WriteAll;

// Connects with retry-on-refused: a refused or absent socket usually means
// the daemon is restarting, so waiting out the backoff schedule rides
// through it. Other connect errors (permissions, path too long inside the
// kernel) fail immediately — retrying cannot fix them.
StatusOr<int> ConnectWithRetry(const sockaddr_un& addr, const std::string& path,
                               const ClientOptions& options) {
  int backoff_ms = options.backoff_initial_ms > 0 ? options.backoff_initial_ms : 1;
  for (int attempt = 0;; ++attempt) {
    const int fd = sock_internal::ConnectStream(addr);
    if (fd >= 0) {
      return fd;
    }
    const int connect_errno = errno;
    const bool retryable =
        connect_errno == ECONNREFUSED || connect_errno == ENOENT;
    if (!retryable || attempt >= options.retries) {
      errno = connect_errno;
      return ErrnoStatus(
          attempt > 0 ? "cannot connect (retries exhausted)" : "cannot connect",
          path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    if (backoff_ms < 1 << 20) {
      backoff_ms *= 2;
    }
  }
}

}  // namespace

StatusOr<Client> Client::Connect(const std::string& path,
                                 const ClientOptions& options) {
  StatusOr<sockaddr_un> addr = SocketAddress(path);
  if (!addr.ok()) {
    return addr.status();
  }
  StatusOr<int> connected = ConnectWithRetry(*addr, path, options);
  if (!connected.ok()) {
    return connected.status();
  }
  const int fd = *connected;
  if (options.timeout_ms >= 0) {
    // A zero timeval means "no timeout" to the kernel — the opposite of the
    // tightest deadline the caller asked for — so 0 is clamped to 1 ms.
    const int timeout_ms = options.timeout_ms > 0 ? options.timeout_ms : 1;
    timeval deadline{};
    deadline.tv_sec = timeout_ms / 1000;
    deadline.tv_usec = (timeout_ms % 1000) * 1000;
    // Best effort: a socket that refuses the option still works, just
    // without the deadline.
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &deadline, sizeof(deadline));
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &deadline, sizeof(deadline));
  }
  Client client(fd, path, options);
  if (options.handshake) {
    if (Status negotiated = client.Handshake(); !negotiated.ok()) {
      return negotiated;
    }
  }
  return client;
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      options_(other.options_),
      buffer_(std::move(other.buffer_)),
      protocol_version_(other.protocol_version_),
      capabilities_(std::move(other.capabilities_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    options_ = other.options_;
    buffer_ = std::move(other.buffer_);
    protocol_version_ = other.protocol_version_;
    capabilities_ = std::move(other.capabilities_);
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

bool Client::has_capability(std::string_view name) const {
  for (const std::string& capability : capabilities_) {
    if (capability == name) {
      return true;
    }
  }
  return false;
}

Status Client::Handshake() {
  if (Status sent = Send("HELLO\n"); !sent.ok()) {
    return sent;
  }
  StatusOr<wire::Response> response = Receive();
  if (!response.ok()) {
    return response.status();  // transport failure: the server is not there
  }
  if (!response->ok) {
    return Status(response->code, "server refused HELLO: " + response->error);
  }
  for (const std::string& row : response->payload) {
    const size_t eq = row.find(" = ");
    if (eq == std::string::npos) {
      continue;
    }
    const std::string key = row.substr(0, eq);
    const std::string value = row.substr(eq + 3);
    if (key == "protocol") {
      protocol_version_ = std::atoi(value.c_str());
    } else if (key == "capabilities") {
      capabilities_.clear();
      for (std::string& capability : StrSplit(value, ',')) {
        if (!capability.empty()) {
          capabilities_.push_back(std::move(capability));
        }
      }
    }
  }
  return Status::Ok();
}

StatusOr<wire::Response> Client::Call(const std::string& line) {
  if (Status sent = Send(line + "\n"); !sent.ok()) {
    return sent;
  }
  return Receive();
}

StatusOr<std::vector<wire::Response>> Client::CallMany(
    std::span<const std::string> lines) {
  std::string batch;
  for (const std::string& line : lines) {
    batch += line;
    batch += '\n';
  }
  if (Status sent = Send(batch); !sent.ok()) {
    return sent;
  }
  std::vector<wire::Response> responses;
  responses.reserve(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    StatusOr<wire::Response> response = Receive();
    if (!response.ok()) {
      return response.status();
    }
    responses.push_back(*std::move(response));
  }
  return responses;
}

Status Client::Send(const std::string& text) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("client is closed");
  }
  return WriteAll(fd_, text);
}

StatusOr<bool> Client::FillBuffer() {
  char chunk[4096];
  while (true) {
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      return true;
    }
    if (n == 0) {
      return false;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // SO_RCVTIMEO expiry: report the deadline instead of silently
      // returning a truncated stream.
      return Status::Unavailable(StrFormat(
          "response from '%s' timed out after %d ms", path_.c_str(),
          options_.timeout_ms));
    }
    return ErrnoStatus("read from daemon failed", path_);
  }
}

Status Client::ReadBlock(std::vector<std::string>* lines) {
  lines->clear();
  size_t scanned = 0;
  while (true) {
    const size_t newline = buffer_.find('\n', scanned);
    if (newline == std::string::npos) {
      scanned = buffer_.size();
      StatusOr<bool> more = FillBuffer();
      if (!more.ok()) {
        return more.status();
      }
      if (!*more) {
        return Status::DataLoss(StrFormat(
            "connection to '%s' closed mid-response (%zu buffered bytes)",
            path_.c_str(), buffer_.size()));
      }
      continue;
    }
    std::string line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    scanned = 0;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    const bool terminator = line == ".";
    lines->push_back(std::move(line));
    if (terminator) {
      return Status::Ok();
    }
  }
}

StatusOr<wire::Response> Client::Receive() {
  std::vector<std::string> lines;
  if (Status read = ReadBlock(&lines); !read.ok()) {
    return read;
  }
  return wire::ParseResponse(lines);
}

StatusOr<std::string> Client::ReceiveRaw() {
  std::vector<std::string> lines;
  if (Status read = ReadBlock(&lines); !read.ok()) {
    return read;
  }
  std::string block;
  for (const std::string& line : lines) {
    block += line;
    block += '\n';
  }
  return block;
}

Status Client::HalfClose() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("client is closed");
  }
  if (::shutdown(fd_, SHUT_WR) != 0) {
    return ErrnoStatus("half-close failed", path_);
  }
  return Status::Ok();
}

StatusOr<std::string> Client::DrainToEof() {
  std::string drained = std::move(buffer_);
  buffer_.clear();
  while (true) {
    StatusOr<bool> more = FillBuffer();
    if (!more.ok()) {
      return more.status();
    }
    if (!*more) {
      drained += buffer_;
      buffer_.clear();
      return drained;
    }
    drained += buffer_;
    buffer_.clear();
  }
}

StatusOr<std::string> SocketExchange(const std::string& path,
                                     const std::string& request_text) {
  ClientOptions client_options;
  client_options.handshake = false;  // EOF framing: no extra block on the wire
  StatusOr<Client> client = Client::Connect(path, client_options);
  if (!client.ok()) {
    return client.status();
  }
  if (Status sent = client->Send(request_text); !sent.ok()) {
    return sent;
  }
  if (Status closed = client->HalfClose(); !closed.ok()) {
    return closed;
  }
  return client->DrainToEof();
}

}  // namespace serve
}  // namespace pandia
