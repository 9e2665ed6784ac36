// src/serve/client.h: the reusable daemon client — HELLO negotiation on
// connect, CallMany pipelining, connect retries riding through a
// late-starting daemon, and the failure contract: timeouts surface as
// unavailable, a stream cut mid-response as data-loss, never as a
// half-parsed success.
#include "src/serve/client.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/eval/pipeline.h"
#include "src/serve/service.h"
#include "src/serve/socket.h"
#include "src/util/strings.h"
#include "src/workloads/workloads.h"

namespace pandia {
namespace serve {
namespace {

std::vector<rack::RackMachine> OneNodeRack() {
  static const eval::Pipeline* pipeline = new eval::Pipeline("x3-2");
  return {{"node0", pipeline->description()}};
}

// A real daemon on a Unix socket, torn down by SHUTDOWN in the destructor.
class LiveDaemon {
 public:
  explicit LiveDaemon(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {
    std::remove(path_.c_str());
    StatusOr<PlacementService> service =
        PlacementService::Create(OneNodeRack(), ServiceOptions{});
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    service_.emplace(std::move(service).value());
    StatusOr<SocketServer> server = SocketServer::Listen(path_);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    server_.emplace(std::move(server).value());
    loop_ = std::thread([this] {
      const Status served =
          RunEventLoop(*service_, /*stdin_fd=*/-1, stdout, &*server_);
      EXPECT_TRUE(served.ok()) << served.ToString();
    });
  }

  ~LiveDaemon() {
    StatusOr<Client> client = Client::Connect(path_);
    if (client.ok()) {
      (void)client->Call("SHUTDOWN");
    }
    loop_.join();
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::optional<PlacementService> service_;
  std::optional<SocketServer> server_;
  std::thread loop_;
};

// A scripted fake on a Unix socket: accepts one connection, answers each
// request line with the next canned block (or nothing, to starve the
// client), then closes. Lets the tests pin down client behaviour that a
// correct daemon never exhibits.
void ServeScript(const std::string& path, std::vector<std::string> blocks,
                 bool close_mid_block) {
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(fd, 0);
  std::string buffer;
  size_t next = 0;
  char chunk[4096];
  while (next < blocks.size()) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      break;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t newline;
    while (next < blocks.size() &&
           (newline = buffer.find('\n')) != std::string::npos) {
      buffer.erase(0, newline + 1);
      const std::string& block = blocks[next++];
      if (!block.empty()) {
        (void)::send(fd, block.data(), block.size(), MSG_NOSIGNAL);
      }
    }
  }
  if (!close_mid_block) {
    // Hold the connection open (no EOF to the client) until the client
    // hangs up — a timed-out client must see silence, not a closed stream.
    while (::read(fd, chunk, sizeof(chunk)) > 0) {
    }
  }
  ::close(fd);
  ::close(listen_fd);
}

TEST(Client, HandshakeNegotiatesProtocolAndCapabilities) {
  LiveDaemon daemon("client_handshake.sock");
  StatusOr<Client> client = Client::Connect(daemon.path());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ(client->protocol_version(), wire::kProtocolVersion);
  EXPECT_TRUE(client->has_capability("telemetry"));
  EXPECT_TRUE(client->has_capability("recorder"));
  EXPECT_TRUE(client->has_capability("compact"));
  EXPECT_FALSE(client->has_capability("fleet"));
}

TEST(Client, CallManyPipelinesInOrder) {
  LiveDaemon daemon("client_pipeline.sock");
  StatusOr<Client> client = Client::Connect(daemon.path());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const std::vector<std::string> requests = {"STATUS", "TELEMETRY", "HELLO",
                                             "NOSUCHVERB"};
  StatusOr<std::vector<wire::Response>> responses = client->CallMany(requests);
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses->size(), 4u);
  EXPECT_TRUE((*responses)[0].ok);
  EXPECT_EQ((*responses)[0].verb, "STATUS");
  EXPECT_TRUE((*responses)[1].ok);
  EXPECT_EQ((*responses)[1].verb, "TELEMETRY");
  EXPECT_TRUE((*responses)[2].ok);
  EXPECT_EQ((*responses)[2].verb, "HELLO");
  EXPECT_FALSE((*responses)[3].ok);
}

TEST(Client, TimeoutSurfacesAsUnavailable) {
  // A server that accepts but never answers must fail the call within the
  // timeout, not hang the client forever.
  const std::string path = ::testing::TempDir() + "/client_timeout.sock";
  std::remove(path.c_str());
  std::thread fake(ServeScript, path, std::vector<std::string>{""}, false);
  ClientOptions options;
  options.retries = 10;
  options.timeout_ms = 100;
  options.handshake = false;
  StatusOr<Client> client = Client::Connect(path, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const StatusOr<wire::Response> response = client->Call("STATUS");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(response.status().message().find("timed out"),
            std::string::npos)
      << response.status().ToString();
  client = Status::InvalidArgument("drop connection");  // unblock the fake
  fake.join();
}

TEST(Client, StreamCutMidResponseIsDataLoss) {
  const std::string path = ::testing::TempDir() + "/client_cut.sock";
  std::remove(path.c_str());
  std::thread fake(ServeScript, path,
                   std::vector<std::string>{"ok STATUS\njobs = "}, true);
  ClientOptions options;
  options.retries = 10;
  options.handshake = false;
  StatusOr<Client> client = Client::Connect(path, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const StatusOr<wire::Response> response = client->Call("STATUS");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDataLoss);
  fake.join();
}

TEST(Client, RetriesRideThroughALateStartingDaemon) {
  const std::string path = ::testing::TempDir() + "/client_retry.sock";
  std::remove(path.c_str());
  std::thread late([&path] {
    // Start well after the client's first connect attempts have failed.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    LiveDaemon daemon("client_retry_daemon.sock");
    // Hand the expected path to the client by symlinking the live socket.
    ASSERT_EQ(::symlink(daemon.path().c_str(), path.c_str()), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  });
  ClientOptions options;
  options.retries = 8;
  StatusOr<Client> client = Client::Connect(path, options);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  if (client.ok()) {
    const StatusOr<wire::Response> status = client->Call("STATUS");
    EXPECT_TRUE(status.ok() && status->ok);
  }
  client = Status::InvalidArgument("done");  // disconnect before teardown
  late.join();
  std::remove(path.c_str());
}

TEST(Client, ConnectWithoutRetriesFailsFastOnAbsentSocket) {
  ClientOptions options;
  options.retries = 0;
  const StatusOr<Client> client =
      Client::Connect(::testing::TempDir() + "/client_absent.sock", options);
  EXPECT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace serve
}  // namespace pandia
