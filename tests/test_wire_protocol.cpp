// Frame-level tests of the MWIR wire protocol: golden bytes, version
// skew, CRC corruption, partial-frame reassembly from split reads,
// truncation/disconnect faults, and hostile payload decodes. Everything
// runs over the in-memory pipe transport — no sockets, no model, fast
// and deterministic.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "nn/serialize.h"
#include "wire/crc32.h"
#include "wire/fault_transport.h"
#include "wire/frame.h"
#include "wire/transport.h"

namespace meanet::wire {
namespace {

Tensor iota_tensor(const Shape& shape) {
  Tensor t{shape};
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(i) * 0.25f;
  }
  return t;
}

// ---- CRC32 ----

TEST(Crc32, MatchesIeeeReferenceVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, SeedChainingMatchesOneShot) {
  const char* data = "the quick brown fox";
  const std::size_t n = std::strlen(data);
  const std::uint32_t whole = crc32(data, n);
  const std::uint32_t chained = crc32(data + 5, n - 5, crc32(data, 5));
  EXPECT_EQ(whole, chained);
}

// ---- Frame encoding ----

TEST(Frame, GoldenHeaderBytes) {
  Frame frame;
  frame.command = Command::kPing;
  frame.request_id = 0x1122334455667788ull;
  frame.payload = {0xDE, 0xAD};
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + 2);
  // magic
  EXPECT_EQ(bytes[0], 'M');
  EXPECT_EQ(bytes[1], 'W');
  EXPECT_EQ(bytes[2], 'I');
  EXPECT_EQ(bytes[3], 'R');
  // version u16 LE
  EXPECT_EQ(bytes[4], kWireVersion & 0xFF);
  EXPECT_EQ(bytes[5], kWireVersion >> 8);
  // command u16 LE
  EXPECT_EQ(bytes[6], static_cast<std::uint8_t>(Command::kPing));
  EXPECT_EQ(bytes[7], 0);
  // request id u64 LE
  EXPECT_EQ(bytes[8], 0x88);
  EXPECT_EQ(bytes[15], 0x11);
  // payload size u32 LE
  EXPECT_EQ(bytes[16], 2);
  EXPECT_EQ(bytes[17], 0);
  // CRC of {0xDE, 0xAD}
  std::uint32_t crc = 0;
  std::memcpy(&crc, bytes.data() + 20, 4);
  EXPECT_EQ(crc, crc32(frame.payload.data(), frame.payload.size()));
  EXPECT_EQ(bytes[24], 0xDE);
  EXPECT_EQ(bytes[25], 0xAD);
}

TEST(Frame, RoundTripsEveryCommandOverPipe) {
  PipePair pipe = make_pipe();
  for (const Command command :
       {Command::kOffloadRequest, Command::kOffloadResponse, Command::kError,
        Command::kStatsRequest, Command::kStatsResponse, Command::kPing, Command::kPong}) {
    Frame sent;
    sent.command = command;
    sent.request_id = 42 + static_cast<std::uint64_t>(command);
    sent.payload = {1, 2, 3, static_cast<std::uint8_t>(command)};
    write_frame(*pipe.first, sent);
    Frame got;
    ASSERT_TRUE(read_frame(*pipe.second, got));
    EXPECT_EQ(got.command, sent.command);
    EXPECT_EQ(got.request_id, sent.request_id);
    EXPECT_EQ(got.payload, sent.payload);
  }
}

TEST(Frame, OrderlyCloseReturnsFalse) {
  PipePair pipe = make_pipe();
  pipe.first->close();
  Frame got;
  EXPECT_FALSE(read_frame(*pipe.second, got));
}

TEST(Frame, VersionSkewRejected) {
  PipePair pipe = make_pipe();
  Frame frame;
  frame.command = Command::kPing;
  std::vector<std::uint8_t> bytes = encode_frame(frame);
  bytes[4] = static_cast<std::uint8_t>(kWireVersion + 1);  // future version
  pipe.first->write_all(bytes.data(), bytes.size());
  Frame got;
  try {
    read_frame(*pipe.second, got);
    FAIL() << "version skew accepted";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(Frame, BadMagicRejected) {
  PipePair pipe = make_pipe();
  std::vector<std::uint8_t> bytes = encode_frame(Frame{});
  bytes[0] = 'X';
  pipe.first->write_all(bytes.data(), bytes.size());
  Frame got;
  EXPECT_THROW(read_frame(*pipe.second, got), ProtocolError);
}

TEST(Frame, OversizedPayloadRejectedBeforeAllocation) {
  PipePair pipe = make_pipe();
  std::vector<std::uint8_t> bytes = encode_frame(Frame{});
  const std::uint32_t huge = 0xFFFFFFFFu;  // 4 GiB length prefix
  std::memcpy(bytes.data() + 16, &huge, 4);
  pipe.first->write_all(bytes.data(), bytes.size());
  Frame got;
  FrameLimits limits;
  limits.max_payload_bytes = 1u << 20;
  EXPECT_THROW(read_frame(*pipe.second, got, limits), ProtocolError);
}

TEST(Frame, ReadTimesOutWithoutData) {
  PipePair pipe = make_pipe();
  Frame got;
  FrameLimits limits;
  limits.timeout_s = 0.05;
  EXPECT_THROW(read_frame(*pipe.second, got, limits), TransportTimeout);
}

// ---- Fault injection ----

TEST(FaultInjection, CorruptedPayloadFailsCrc) {
  PipePair pipe = make_pipe();
  FaultPlan plan;
  plan.corrupt_byte_at = kFrameHeaderBytes + 1;  // second payload byte
  FaultInjectingTransport faulty(std::move(pipe.first), plan);
  Frame frame;
  frame.command = Command::kOffloadResponse;
  frame.payload = {9, 9, 9, 9};
  write_frame(faulty, frame);
  Frame got;
  try {
    read_frame(*pipe.second, got);
    FAIL() << "corrupted payload accepted";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST(FaultInjection, TruncatedFrameSurfacesAsTransportError) {
  PipePair pipe = make_pipe();
  FaultPlan plan;
  plan.truncate_after_bytes = 10;  // cut inside the 24-byte header
  FaultInjectingTransport faulty(std::move(pipe.first), plan);
  write_frame(faulty, Frame{Command::kPing, 7, {}});
  Frame got;
  EXPECT_THROW(read_frame(*pipe.second, got), TransportError);
}

TEST(FaultInjection, TruncationMidPayloadAlsoFails) {
  PipePair pipe = make_pipe();
  FaultPlan plan;
  plan.truncate_after_bytes = kFrameHeaderBytes + 2;  // header + 2 payload bytes
  FaultInjectingTransport faulty(std::move(pipe.first), plan);
  write_frame(faulty, Frame{Command::kPing, 7, {1, 2, 3, 4, 5}});
  Frame got;
  EXPECT_THROW(read_frame(*pipe.second, got), TransportError);
}

TEST(FaultInjection, DisconnectMidFrameThrowsOnWriter) {
  PipePair pipe = make_pipe();
  FaultPlan plan;
  plan.disconnect_after_bytes = 12;
  FaultInjectingTransport faulty(std::move(pipe.first), plan);
  EXPECT_THROW(write_frame(faulty, Frame{Command::kPing, 1, {}}), TransportError);
  // The reader sees the stream die mid-frame too.
  Frame got;
  EXPECT_THROW(read_frame(*pipe.second, got), TransportError);
}

TEST(FaultInjection, FrameReassemblyFromSingleByteReads) {
  // Cap reads at one byte: the frame reader must stitch the header and
  // payload back together across 24+n reads.
  PipePair pipe = make_pipe();
  FaultPlan plan;
  plan.max_read_chunk = 1;
  FaultInjectingTransport capped(std::move(pipe.second), plan);
  Frame sent;
  sent.command = Command::kOffloadResponse;
  sent.request_id = 99;
  sent.payload = encode_offload_response({1, 2, 3});
  write_frame(*pipe.first, sent);
  Frame got;
  ASSERT_TRUE(read_frame(capped, got));
  EXPECT_EQ(got.request_id, 99u);
  EXPECT_EQ(decode_offload_response(got.payload), (std::vector<int>{1, 2, 3}));
}

TEST(FaultInjection, SplitWritesReassembleToo) {
  // The other direction: the writer dribbles the frame in two chunks
  // with a reader already blocked — read_exact must keep collecting.
  PipePair pipe = make_pipe();
  Frame sent;
  sent.command = Command::kPong;
  sent.request_id = 5;
  sent.payload = {7, 7};
  const std::vector<std::uint8_t> bytes = encode_frame(sent);
  std::thread writer([&] {
    pipe.first->write_all(bytes.data(), 13);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pipe.first->write_all(bytes.data() + 13, bytes.size() - 13);
  });
  Frame got;
  ASSERT_TRUE(read_frame(*pipe.second, got));
  writer.join();
  EXPECT_EQ(got.request_id, 5u);
  EXPECT_EQ(got.payload, sent.payload);
}

// ---- Payload codecs ----

TEST(Codec, OffloadRequestRoundTrip) {
  runtime::OffloadPayload payload;
  payload.images = iota_tensor(Shape{2, 3, 4, 4});
  payload.features = iota_tensor(Shape{2, 2, 2, 2});
  const auto bytes = encode_offload_request(payload);
  const runtime::OffloadPayload back = decode_offload_request(bytes);
  EXPECT_TRUE(allclose(back.images, payload.images, 0.0f));
  EXPECT_TRUE(allclose(back.features, payload.features, 0.0f));
}

TEST(Codec, OffloadRequestRejectsHostileInput) {
  runtime::OffloadPayload payload;
  payload.images = iota_tensor(Shape{1, 2, 3, 3});
  const auto good = encode_offload_request(payload);

  // Trailing garbage after the tensors.
  auto trailing = good;
  trailing.push_back(0);
  EXPECT_THROW(decode_offload_request(trailing), ProtocolError);

  // Unknown flag bits.
  auto flags = good;
  flags[0] |= 0x80;
  EXPECT_THROW(decode_offload_request(flags), ProtocolError);

  // No tensors at all.
  const std::vector<std::uint8_t> none = {0, 0, 0, 0};
  EXPECT_THROW(decode_offload_request(none), ProtocolError);

  // Truncated tensor data.
  auto cut = good;
  cut.resize(cut.size() - 5);
  EXPECT_THROW(decode_offload_request(cut), ProtocolError);

  // Hostile rank (claims 200 dims).
  auto rank = good;
  rank[4] = 200;
  EXPECT_THROW(decode_offload_request(rank), ProtocolError);

  // Non-NCHW tensor: re-encode a rank-2 tensor by hand.
  std::vector<std::uint8_t> rank2 = {1, 0, 0, 0};  // flags: images
  nn::append_tensor(rank2, iota_tensor(Shape{2, 2}));
  EXPECT_THROW(decode_offload_request(rank2), ProtocolError);
}

TEST(Codec, OffloadResponseRejectsCountMismatch) {
  auto bytes = encode_offload_response({1, 2, 3});
  bytes[0] = 7;  // claims 7 labels, carries 3
  EXPECT_THROW(decode_offload_response(bytes), ProtocolError);
  bytes.resize(bytes.size() - 1);  // misaligned payload
  EXPECT_THROW(decode_offload_response(bytes), ProtocolError);
}

TEST(Codec, ErrorAndStatsRoundTrip) {
  const auto err = encode_error(ErrorCode::kBackendFailed, "cloud on fire");
  const auto [code, message] = decode_error(err);
  EXPECT_EQ(code, ErrorCode::kBackendFailed);
  EXPECT_EQ(message, "cloud on fire");

  const StatsEntries entries = {{"frames_in", 12}, {"batches", 3}};
  const StatsEntries back = decode_stats(encode_stats(entries));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].first, "frames_in");
  EXPECT_EQ(back[0].second, 12u);
  EXPECT_EQ(back[1].first, "batches");
  EXPECT_EQ(back[1].second, 3u);
}

TEST(Codec, ErrorRejectsHostileLength) {
  auto bytes = encode_error(ErrorCode::kMalformedFrame, "short");
  bytes[4] = 0xFF;  // message length far beyond the payload
  bytes[5] = 0xFF;
  EXPECT_THROW(decode_error(bytes), ProtocolError);
}

TEST(Codec, StatsRejectsHostileCounts) {
  auto bytes = encode_stats({{"a", 1}});
  bytes[0] = 0xFF;  // claims 255+ entries
  bytes[1] = 0xFF;
  EXPECT_THROW(decode_stats(bytes), ProtocolError);
}

// ---- Pipe transport semantics the framing relies on ----

TEST(Pipe, DrainsBufferedBytesAfterClose) {
  PipePair pipe = make_pipe();
  const std::uint8_t data[3] = {1, 2, 3};
  pipe.first->write_all(data, sizeof(data));
  pipe.first->close();
  std::uint8_t buf[8];
  EXPECT_EQ(pipe.second->read_some(buf, sizeof(buf), kNoTimeout), 3u);
  EXPECT_EQ(pipe.second->read_some(buf, sizeof(buf), kNoTimeout), 0u);  // now EOF
}

TEST(Pipe, WriteAfterPeerCloseThrows) {
  PipePair pipe = make_pipe();
  pipe.second->close();
  const std::uint8_t data[1] = {1};
  EXPECT_THROW(pipe.first->write_all(data, 1), TransportError);
}

}  // namespace
}  // namespace meanet::wire
