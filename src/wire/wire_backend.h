// OffloadBackend over the framed wire protocol: the first backend whose
// cloud is a different PROCESS (meanet_cloudd) rather than an in-memory
// sim node. Slots into the existing decorator stack unchanged —
// RetryingBackend(WireBackend) retries transient wire failures, the
// session's dispatcher/timeout machinery treats a thrown classify() as
// an unreachable cloud and keeps edge predictions.
//
// Virtual-clock note: wire I/O blocks the dispatcher thread outside any
// clock wait, so under a sim::VirtualClock the timeline simply stalls
// while a frame is in flight — wire RTT costs zero virtual time. The
// simulated SimulatedLink/SharedCell transfer model still prices the
// upload; the wire adds real-world delivery, not simulated airtime.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "runtime/offload_backend.h"
#include "wire/frame.h"

namespace meanet::wire {

struct WireBackendConfig {
  /// Unix-domain socket path of the meanet_cloudd to dial. Ignored when
  /// `transport_factory` is set.
  std::string socket_path;
  /// How long to keep retrying the initial connect (covers a daemon
  /// that is still starting up).
  double connect_timeout_s = 5.0;
  /// Bound on waiting for the response frame; kNoTimeout blocks, which
  /// under the session's own offload_timeout_s just means the worker
  /// gives up first and the late answer is dropped.
  double response_timeout_s = 30.0;
  /// Which payload representations to ship (at least one must be set).
  bool send_images = true;
  bool send_features = false;
  FrameLimits limits;
  /// Test seam: dial through this instead of a real socket (e.g. one
  /// end of make_pipe(), optionally wrapped in FaultInjectingTransport).
  /// Called once per (re)connect.
  std::function<std::unique_ptr<Transport>()> transport_factory;
};

class WireBackend : public runtime::OffloadBackend {
 public:
  explicit WireBackend(WireBackendConfig config);
  ~WireBackend() override;

  /// Ships one offload-request frame and waits for the matching
  /// response. Throws WireError on any transport/protocol/remote
  /// failure — the session then keeps edge predictions for the batch.
  /// A failure drops the connection; the next classify() redials, and a
  /// failure on a REUSED connection is retried once on a fresh one (the
  /// daemon may have restarted between offloads).
  std::vector<int> classify(const runtime::OffloadPayload& payload) override;

  bool needs_images() const override { return send_images_; }
  bool needs_features() const override { return send_features_; }
  std::string describe() const override;

  /// Fetches the daemon's counters over the wire (kStatsRequest) —
  /// connects on demand like classify().
  StatsEntries fetch_stats();

  /// Fetches the daemon process's full diagnostics registry snapshot
  /// (kStatsRequest with kStatsFlagDiagSnapshot) as a JSON document in
  /// schema diag::kSchemaVersion. Requires a daemon built with the
  /// flag — i.e. wire version 1 servers from this tree; connects on
  /// demand like classify().
  std::string fetch_diagnostics();

  /// Round-trips an empty kPing frame; throws WireError on failure.
  void ping();

  bool connected() const;

 private:
  std::unique_ptr<Transport>& ensure_connected();
  Frame roundtrip(Command command, const std::vector<std::uint8_t>& payload,
                  Command expected_reply);

  WireBackendConfig config_;
  bool send_images_;
  bool send_features_;

  // One in-flight exchange at a time: the session funnels every offload
  // through its single dispatcher thread already, but the backend must
  // not rely on that (fetch_stats/ping may race classify).
  mutable std::mutex mutex_;
  std::unique_ptr<Transport> conn_;   // guarded by mutex_
  std::uint64_t next_request_id_ = 1;  // guarded by mutex_
};

}  // namespace meanet::wire
