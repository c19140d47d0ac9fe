// Framed request/response wire format of the edge->cloud offload hop
// (ROADMAP "a real wire" item; the packet-framing / transport split
// mirrors fujinet-nio's fuji_bus_packet + transport seam).
//
// Every message is one length-prefixed frame, little-endian:
//
//   offset size field
//        0    4 magic "MWIR"
//        4    2 protocol version (kWireVersion)
//        6    2 command id (Command)
//        8    8 request id (echoed verbatim in the response)
//       16    4 payload size in bytes
//       20    4 CRC32 of the payload (wire/crc32.h)
//       24    n payload
//
// The header is fixed 24 bytes, so a reader can always reassemble a
// frame from arbitrarily split reads: read 24, validate, read n. A bad
// magic or unsupported version is a ProtocolError before any payload is
// read; the payload size is bounded (FrameLimits::max_payload_bytes)
// before allocation so a hostile length prefix cannot become an
// allocation bomb; a CRC mismatch after the payload arrives is a
// ProtocolError too.
//
// Payloads reuse the project's single tensor byte format
// (nn/serialize.h append_tensor/read_tensor) for image/feature batches
// — the wire does NOT invent a second tensor encoding.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runtime/offload_backend.h"
#include "wire/transport.h"

namespace meanet::wire {

/// Bump on any incompatible frame/payload change; both sides reject
/// other versions (version-skew test in tests/test_wire_protocol.cpp).
constexpr std::uint16_t kWireVersion = 1;

constexpr std::uint8_t kMagic[4] = {'M', 'W', 'I', 'R'};
constexpr std::size_t kFrameHeaderBytes = 24;

enum class Command : std::uint16_t {
  kOffloadRequest = 1,   // payload: flags + image/feature tensors
  kOffloadResponse = 2,  // payload: predicted labels
  kError = 3,            // payload: error code + message
  kStatsRequest = 4,     // payload: empty, or u32 flags (kStatsFlag*)
  kStatsResponse = 5,    // payload: named u64 counters, or a JSON document
  kPing = 6,             // payload: empty
  kPong = 7,             // payload: empty
};

const char* command_name(Command command);

/// Remote-reported error codes carried by Command::kError.
enum class ErrorCode : std::uint32_t {
  kUnsupportedVersion = 1,
  kMalformedFrame = 2,
  kUnknownCommand = 3,
  kBackendFailed = 4,
};

/// The frame reader rejected the byte stream: bad magic, version skew,
/// oversized payload, CRC mismatch, or an undecodable payload.
class ProtocolError : public WireError {
 public:
  explicit ProtocolError(const std::string& what) : WireError(what) {}
};

struct Frame {
  Command command = Command::kPing;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;
};

struct FrameLimits {
  /// Refuse frames whose length prefix exceeds this, before allocating.
  std::size_t max_payload_bytes = 64u << 20;
  /// Bound on the whole frame read (header + payload); kNoTimeout = block.
  double timeout_s = kNoTimeout;
};

/// Serializes a frame (header + payload) into one contiguous buffer —
/// exposed so tests can assert golden bytes.
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Writes one frame to the transport.
void write_frame(Transport& transport, const Frame& frame);

/// Reads and validates one frame. Returns false — with `out` untouched
/// — on orderly close at a frame boundary; throws ProtocolError /
/// TransportError / TransportTimeout otherwise.
bool read_frame(Transport& transport, Frame& out, const FrameLimits& limits = {});

// ---- Payload codecs ----
// Encoders produce the payload bytes of one command; decoders are
// bounds-checked and throw ProtocolError on malformed input.

/// Offload request: u32 flags (bit0 = images present, bit1 = features
/// present) followed by the present tensors in that order.
std::vector<std::uint8_t> encode_offload_request(const runtime::OffloadPayload& payload);
runtime::OffloadPayload decode_offload_request(const std::vector<std::uint8_t>& bytes);

/// Offload response: u32 count, then count i32 predicted labels.
std::vector<std::uint8_t> encode_offload_response(const std::vector<int>& predictions);
std::vector<int> decode_offload_response(const std::vector<std::uint8_t>& bytes);

/// Error: u32 code, u32 message length, message bytes.
std::vector<std::uint8_t> encode_error(ErrorCode code, const std::string& message);
std::pair<ErrorCode, std::string> decode_error(const std::vector<std::uint8_t>& bytes);

/// Stats: u32 entry count, then per entry u32 name length | name bytes
/// | u64 value. Order-preserving.
using StatsEntries = std::vector<std::pair<std::string, std::uint64_t>>;
std::vector<std::uint8_t> encode_stats(const StatsEntries& entries);
StatsEntries decode_stats(const std::vector<std::uint8_t>& bytes);

/// kStatsRequest flag bits. The server answers a flagless (empty
/// payload — every pre-flag client) or flags==0 request with the
/// legacy counter entries; kStatsFlagDiagSnapshot asks for the full
/// process diagnostics registry snapshot as a UTF-8 JSON document
/// (schema diag::kSchemaVersion) in the kStatsResponse payload. Wire
/// version stays 1: old servers never see the flag from old clients,
/// and the frame layout is unchanged.
constexpr std::uint32_t kStatsFlagDiagSnapshot = 1u << 0;

/// Stats request: empty for the legacy counters, or a single u32 of
/// kStatsFlag* bits (encode omits the word when flags == 0).
std::vector<std::uint8_t> encode_stats_request(std::uint32_t flags);
std::uint32_t decode_stats_request(const std::vector<std::uint8_t>& bytes);

}  // namespace meanet::wire
