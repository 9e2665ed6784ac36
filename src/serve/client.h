// Client side of the wire-v1 protocol: connect/retry/deadline handling,
// the HELLO handshake, request framing, and response-block parsing — the
// logic every tool used to hand-roll on top of raw sockets, now in one
// place. pandia_serve_client, pandia_top, and pandia_loadgen all speak
// through this class.
//
// Usage:
//
//   StatusOr<Client> client = Client::Connect(socket_path, options);
//   StatusOr<wire::Response> status = client->Call("STATUS");
//   std::vector<std::string> lines = {...};   // pipelined batch
//   StatusOr<std::vector<wire::Response>> all = client->CallMany(lines);
//
// Connect() performs the HELLO handshake by default: the server advertises
// its protocol version and capability list (e.g. "fleet", "compact"), which
// the client exposes via protocol_version() / has_capability(). Every
// pandia_serve answers HELLO, so an `err` reply fails Connect() with the
// reply's code, as does a transport failure during the handshake.
//
// Calls are synchronous but pipelined: CallMany() writes every request line
// before reading any response, so a batch costs one round trip. The lower
// level Send()/Receive()/HalfClose()/DrainToEof() primitives are exposed for
// tools that stream (pandia_loadgen's open loop) or that want the one-shot
// write-then-EOF exchange (SocketExchange below).
//
// Thread safety: a Client is a plain connection handle — external
// synchronization required, like any socket.
#ifndef PANDIA_SRC_SERVE_CLIENT_H_
#define PANDIA_SRC_SERVE_CLIENT_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/serialize/wire.h"
#include "src/util/status.h"

namespace pandia {
namespace serve {

struct ClientOptions {
  // Send/receive deadline per socket operation in milliseconds; negative
  // means no deadline. 0 is clamped to 1 ms (a zero timeval means "no
  // timeout" to the kernel — the opposite of the tightest deadline).
  int timeout_ms = -1;
  // Extra connect attempts when the daemon socket refuses or is absent
  // (daemon restarting). Other connect errors fail immediately.
  int retries = 0;
  // First retry backoff in milliseconds; doubles per attempt.
  int backoff_initial_ms = 50;
  // Send HELLO on connect and record the server's protocol version and
  // capabilities. Disable for one-shot exchanges with EOF framing.
  bool handshake = true;
};

class Client {
 public:
  static StatusOr<Client> Connect(const std::string& path,
                                  const ClientOptions& options = {});

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  // Handshake results. Without a handshake the protocol version is
  // wire::kProtocolVersion and capabilities empty.
  int protocol_version() const { return protocol_version_; }
  const std::vector<std::string>& capabilities() const { return capabilities_; }
  bool has_capability(std::string_view name) const;

  const std::string& path() const { return path_; }

  // One request line (no trailing newline) -> one parsed response block.
  StatusOr<wire::Response> Call(const std::string& line);

  // Pipelined batch: writes every request line, then reads one response
  // block per line. One round trip for the whole batch.
  StatusOr<std::vector<wire::Response>> CallMany(
      std::span<const std::string> lines);

  // Streaming primitives underneath Call/CallMany.
  Status Send(const std::string& text);       // raw bytes, as given
  StatusOr<wire::Response> Receive();         // one "."-framed block, parsed
  StatusOr<std::string> ReceiveRaw();         // same block, raw text
  Status HalfClose();                         // shutdown(SHUT_WR): done asking
  StatusOr<std::string> DrainToEof();         // everything until server EOF

 private:
  Client(int fd, std::string path, ClientOptions options)
      : fd_(fd), path_(std::move(path)), options_(options) {}

  // Reads one response block (through the final ".") into `lines`.
  Status ReadBlock(std::vector<std::string>* lines);
  // Pulls more bytes into buffer_; false on EOF.
  StatusOr<bool> FillBuffer();
  Status Handshake();

  int fd_ = -1;
  std::string path_;
  ClientOptions options_;
  std::string buffer_;  // received bytes not yet consumed by framing
  int protocol_version_ = wire::kProtocolVersion;
  std::vector<std::string> capabilities_;
};

// One-shot exchange with EOF framing, built on Client: connect, write
// `request_text` (which may hold many request lines), half-close, read until
// the daemon closes. Returns the raw concatenated response blocks. Default
// ClientOptions without the handshake — the byte stream is exactly the
// responses to `request_text`.
StatusOr<std::string> SocketExchange(const std::string& path,
                                     const std::string& request_text);

}  // namespace serve
}  // namespace pandia

#endif  // PANDIA_SRC_SERVE_CLIENT_H_
