#include "daemon.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_until(Clock::time_point deadline) {
  return std::chrono::duration<double>(deadline - Clock::now()).count();
}

}  // namespace

CloudDaemon::CloudDaemon(const std::string& binary, const std::vector<std::string>& args,
                         double ready_timeout_s) {
  std::vector<std::string> argv_storage{binary};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int fds[2] = {-1, -1};
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("CloudDaemon: pipe: ") + std::strerror(errno));
  }
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error(std::string("CloudDaemon: fork: ") + std::strerror(errno));
  }
  if (pid_ == 0) {
    // The daemon must not outlive a benchmark that dies without
    // running its destructors.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(126);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  out_fd_ = fds[0];
  if (!read_until("serving on", ready_timeout_s)) {
    stop();
    throw std::runtime_error("CloudDaemon: " + binary + " did not start serving: " + output_);
  }
}

CloudDaemon::~CloudDaemon() { stop(); }

bool CloudDaemon::read_until(const std::string& stop_at, double timeout_s) {
  const Clock::time_point deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                         std::chrono::duration<double>(timeout_s));
  char buf[4096];
  while (stop_at.empty() || output_.find(stop_at) == std::string::npos) {
    const double left = seconds_until(deadline);
    if (left <= 0.0) return false;
    pollfd pfd{out_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1000.0) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return stop_at.empty();  // EOF: the daemon exited
    output_.append(buf, static_cast<std::size_t>(n));
  }
  return true;
}

void CloudDaemon::stop() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGTERM);
  // The daemon prints its diagnostics on the way out; drain them so a
  // full pipe cannot block its exit, then reap.
  if (!read_until("", 5.0)) ::kill(pid_, SIGKILL);
  int status = 0;
  rusage usage{};
  while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  peak_rss_kib_ = usage.ru_maxrss;
  pid_ = -1;
  ::close(out_fd_);
  out_fd_ = -1;
}

}  // namespace perfbench
