#include "wire/wire_backend.h"

#include <stdexcept>
#include <utility>

#include "wire/socket_transport.h"

namespace meanet::wire {

WireBackend::WireBackend(WireBackendConfig config)
    : config_(std::move(config)),
      send_images_(config_.send_images),
      send_features_(config_.send_features) {
  if (!send_images_ && !send_features_) {
    throw std::invalid_argument("WireBackend: must ship images and/or features");
  }
  if (config_.socket_path.empty() && !config_.transport_factory) {
    throw std::invalid_argument("WireBackend: needs a socket path or transport factory");
  }
}

WireBackend::~WireBackend() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (conn_) conn_->close();
}

std::unique_ptr<Transport>& WireBackend::ensure_connected() {
  if (!conn_) {
    conn_ = config_.transport_factory
                ? config_.transport_factory()
                : connect_unix(config_.socket_path, config_.connect_timeout_s);
    if (!conn_) throw TransportError("WireBackend: transport factory returned null");
  }
  return conn_;
}

Frame WireBackend::roundtrip(Command command, const std::vector<std::uint8_t>& payload,
                             Command expected_reply) {
  std::lock_guard<std::mutex> lock(mutex_);
  // A failure on a connection that predates this call gets one retry on
  // a fresh dial — the daemon may have restarted since the last
  // exchange and an idle socket only reveals that on use. A fresh
  // connection's failure is final: the wire is genuinely down, and the
  // caller (the session) falls back to edge predictions.
  for (int attempt = 0;; ++attempt) {
    const bool reused = conn_ != nullptr;
    try {
      Transport& t = *ensure_connected();
      Frame request;
      request.command = command;
      request.request_id = next_request_id_++;
      request.payload = payload;
      write_frame(t, request);
      FrameLimits limits = config_.limits;
      limits.timeout_s = config_.response_timeout_s;
      Frame reply;
      while (true) {
        if (!read_frame(t, reply, limits)) {
          throw TransportError("WireBackend: server closed the connection mid-exchange");
        }
        if (reply.request_id == request.request_id) break;
        // A stream-level error report (request id 0: the server could
        // not even attribute the frame) kills the exchange.
        if (reply.command == Command::kError) break;
        // A stale answer to an earlier abandoned request: skip it.
      }
      if (reply.command == Command::kError) {
        const auto [code, message] = decode_error(reply.payload);
        throw ProtocolError("WireBackend: server error " +
                            std::to_string(static_cast<std::uint32_t>(code)) + ": " + message);
      }
      if (reply.command != expected_reply) {
        throw ProtocolError(std::string("WireBackend: expected ") +
                            command_name(expected_reply) + ", got " +
                            command_name(reply.command));
      }
      return reply;
    } catch (const WireError&) {
      if (conn_) conn_->close();
      conn_.reset();
      if (reused && attempt == 0) continue;
      throw;
    }
  }
}

std::vector<int> WireBackend::classify(const runtime::OffloadPayload& payload) {
  // The session gathers exactly the representations needs_images() /
  // needs_features() asked for, so the payload ships as-is.
  const Frame reply = roundtrip(Command::kOffloadRequest, encode_offload_request(payload),
                                Command::kOffloadResponse);
  return decode_offload_response(reply.payload);
}

std::string WireBackend::describe() const {
  if (config_.transport_factory) return "wire(custom-transport)";
  return "wire(unix:" + config_.socket_path + ")";
}

StatsEntries WireBackend::fetch_stats() {
  return decode_stats(
      roundtrip(Command::kStatsRequest, {}, Command::kStatsResponse).payload);
}

std::string WireBackend::fetch_diagnostics() {
  const Frame reply = roundtrip(Command::kStatsRequest,
                                encode_stats_request(kStatsFlagDiagSnapshot),
                                Command::kStatsResponse);
  return std::string(reply.payload.begin(), reply.payload.end());
}

void WireBackend::ping() { roundtrip(Command::kPing, {}, Command::kPong); }

bool WireBackend::connected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return conn_ != nullptr;
}

}  // namespace meanet::wire
