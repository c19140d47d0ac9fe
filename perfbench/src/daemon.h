// A spawned meanet_cloudd for the lifetime of a scope. Its stdout is a
// pipe, so start-up waits for the daemon's "serving on" line instead of
// the client's connect-retry polling, and stop() reaps it with wait4()
// to read the daemon's peak resident set.
#pragma once

#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench {

class CloudDaemon {
 public:
  /// Spawns `binary` with `args` and blocks until it serves (throws
  /// std::runtime_error if it exits or stays silent for
  /// `ready_timeout_s`).
  CloudDaemon(const std::string& binary, const std::vector<std::string>& args,
              double ready_timeout_s);
  ~CloudDaemon();

  CloudDaemon(const CloudDaemon&) = delete;
  CloudDaemon& operator=(const CloudDaemon&) = delete;

  /// SIGTERM (SIGKILL after a grace period), drains the daemon's stdout
  /// and reaps it. Idempotent; the destructor calls it.
  void stop();

  /// Peak resident set of the daemon in KiB; 0 until stop() reaped it.
  long peak_rss_kib() const { return peak_rss_kib_; }

 private:
  /// Reads the daemon's stdout until `stop_at` appears, or until EOF
  /// when `stop_at` is empty (returns true); false on timeout or an
  /// EOF that came first.
  bool read_until(const std::string& stop_at, double timeout_s);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string output_;
  long peak_rss_kib_ = 0;
};

}  // namespace perfbench
