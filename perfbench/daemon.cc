// Spawning, driving and reaping one pandia_serve process.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <thread>

#include "perfbench/bench.h"

extern char** environ;

namespace pandia {
namespace perfbench {

namespace {

// Waits up to `timeout_ms` for `pid` to exit; true once it was reaped.
bool WaitFor(int pid, int timeout_ms) {
  for (int waited = 0; waited <= timeout_ms; ++waited) {
    int status = 0;
    const int reaped = ::waitpid(pid, &status, WNOHANG);
    if (reaped == pid || reaped < 0) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

}  // namespace

double PeakRssMb(int pid) {
  std::ifstream status(pid == 0 ? std::string("/proc/self/status")
                                : StrFormat("/proc/%d/status", pid));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

StatusOr<std::unique_ptr<Daemon>> Daemon::Start(const DaemonConfig& config) {
  ::unlink(config.socket.c_str());
  int pipe_fds[2] = {-1, -1};
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return Status::Internal("pipe2 failed");
  }
  const int log_fd =
      ::open(config.log.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return Status::Internal("cannot open daemon log " + config.log);
  }
  // The daemon's fixed configuration: four x3-2 machines (128 hardware
  // threads), default policy and replace margin, one solver thread, and a
  // journal the page cache absorbs (no fsync), so no disk is measured.
  std::vector<std::string> args = {config.binary};
  for (int m = 0; m < kMachines; ++m) {
    args.push_back(StrFormat("--machine=n%d=%s", m, kMachineType));
  }
  args.push_back("--journal=" + config.journal);
  args.push_back("--sync=none");
  args.push_back("--socket=" + config.socket);
  args.push_back("--jobs=1");
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[0], 0);
  posix_spawn_file_actions_adddup2(&actions, log_fd, 1);
  posix_spawn_file_actions_adddup2(&actions, log_fd, 2);
  std::unique_ptr<Daemon> daemon(new Daemon());
  const int64_t start_ns = NowNs();
  pid_t pid = -1;
  const int spawned =
      posix_spawn(&pid, config.binary.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[0]);
  ::close(log_fd);
  if (spawned != 0) {
    ::close(pipe_fds[1]);
    return Status::Internal("cannot spawn " + config.binary);
  }
  daemon->pid_ = pid;
  // The write end stays open for the daemon's life: stdin EOF stops it.
  daemon->stdin_fd_ = pipe_fds[1];

  serve::ClientOptions options;
  options.timeout_ms = 120000;
  const int64_t deadline_ns = start_ns + 60'000'000'000LL;
  while (true) {
    StatusOr<serve::Client> client = serve::Client::Connect(config.socket, options);
    if (client.ok()) {
      daemon->client_.emplace(std::move(client).value());
      break;
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      daemon->pid_ = -1;
      return Status::Internal("pandia_serve exited during start-up; see " + config.log);
    }
    if (NowNs() > deadline_ns) {
      return Status::Internal("pandia_serve did not answer HELLO: " +
                              client.status().ToString());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  daemon->startup_ms_ = static_cast<double>(NowNs() - start_ns) / 1e6;
  return daemon;
}

Daemon::~Daemon() { Kill(); }

void Daemon::Kill() {
  client_.reset();
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
}

StatusOr<std::string> Daemon::Call(const std::string& line) {
  if (!client_.has_value()) {
    return Status::FailedPrecondition("daemon is not connected");
  }
  PANDIA_RETURN_IF_ERROR(client_->Send(line + "\n"));
  return client_->ReceiveRaw();
}

Status Daemon::Stop() {
  StatusOr<std::string> bye = Call("SHUTDOWN");
  client_.reset();
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
  const bool exited = pid_ > 0 && WaitFor(pid_, 20000);
  if (exited) {
    pid_ = -1;
  }
  Kill();
  if (!bye.ok()) {
    return bye.status();
  }
  if (bye->rfind("ok SHUTDOWN", 0) != 0) {
    return Status::Internal("SHUTDOWN refused: " + *bye);
  }
  return exited ? Status::Ok() : Status::Internal("pandia_serve did not exit");
}

}  // namespace perfbench
}  // namespace pandia
