// Tests for the flint::rpc subsystem (DESIGN.md §14): framing and the
// frame-corruption matrix, message schema round-trips, all three transports,
// and the leader/executor runtime including executor-loss re-dispatch.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include <set>

#include "flint/compress/quantize.h"
#include "flint/obs/telemetry.h"
#include "flint/obs/telemetry_snapshot.h"
#include "flint/obs/trace.h"
#include "flint/rpc/executor_worker.h"
#include "flint/rpc/frame.h"
#include "flint/rpc/leader.h"
#include "flint/rpc/messages.h"
#include "flint/rpc/transport.h"
#include "flint/util/check.h"
#include "flint/util/logging.h"
#include "flint/util/rng.h"
#include "flint/util/thread_pool.h"

namespace flint {
namespace {

rpc::Frame heartbeat_frame() {
  rpc::HeartbeatMsg beat;
  beat.executor_id = 7;
  beat.seq = 42;
  beat.busy_leases = 3;
  return rpc::Frame{rpc::MessageType::kHeartbeat, beat.serialize()};
}

// ------------------------------------------------------------- framing

TEST(Frame, EncodeDecodeRoundtrip) {
  rpc::Frame frame = heartbeat_frame();
  std::vector<char> wire = rpc::encode_frame(frame);
  EXPECT_EQ(wire.size(),
            rpc::kFrameHeaderBytes + frame.payload.size() + rpc::kFrameTrailerBytes);
  rpc::Frame decoded = rpc::decode_frame(wire);
  EXPECT_EQ(decoded.type, rpc::MessageType::kHeartbeat);
  EXPECT_EQ(decoded.payload, frame.payload);
}

TEST(Frame, EmptyPayloadRoundtrip) {
  rpc::Frame frame{rpc::MessageType::kShutdown, {}};
  rpc::Frame decoded = rpc::decode_frame(rpc::encode_frame(frame));
  EXPECT_EQ(decoded.type, rpc::MessageType::kShutdown);
  EXPECT_TRUE(decoded.payload.empty());
}

TEST(FrameDecoder, ReassemblesFromSingleByteFeeds) {
  rpc::Frame frame = heartbeat_frame();
  std::vector<char> wire = rpc::encode_frame(frame);
  rpc::FrameDecoder decoder;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    EXPECT_FALSE(decoder.next().has_value());
    decoder.feed(&wire[i], 1);
  }
  auto decoded = decoder.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload, frame.payload);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoder, YieldsBackToBackFrames) {
  std::vector<char> wire = rpc::encode_frame(heartbeat_frame());
  std::vector<char> twice = wire;
  twice.insert(twice.end(), wire.begin(), wire.end());
  rpc::FrameDecoder decoder;
  decoder.feed(twice.data(), twice.size());
  EXPECT_TRUE(decoder.next().has_value());
  EXPECT_TRUE(decoder.next().has_value());
  EXPECT_FALSE(decoder.next().has_value());
}

// The corruption matrix: every way a frame can be malformed must throw
// CheckError before any payload byte is trusted (never garbage decode).

TEST(FrameCorruption, TruncatedFrameRejected) {
  std::vector<char> wire = rpc::encode_frame(heartbeat_frame());
  wire.pop_back();  // torn mid-CRC
  EXPECT_THROW(rpc::decode_frame(wire), util::CheckError);
}

TEST(FrameCorruption, PayloadBitFlipFailsCrc) {
  std::vector<char> wire = rpc::encode_frame(heartbeat_frame());
  wire[rpc::kFrameHeaderBytes] ^= 0x01;
  EXPECT_THROW(rpc::decode_frame(wire), util::CheckError);
}

TEST(FrameCorruption, BadMagicRejected) {
  std::vector<char> wire = rpc::encode_frame(heartbeat_frame());
  wire[0] ^= 0x01;
  EXPECT_THROW(rpc::decode_frame(wire), util::CheckError);
}

TEST(FrameCorruption, WrongProtocolVersionRejected) {
  std::vector<char> wire = rpc::encode_frame(heartbeat_frame());
  wire[4] ^= 0x01;  // protocol u16 follows the magic
  EXPECT_THROW(rpc::decode_frame(wire), util::CheckError);
}

TEST(FrameCorruption, UnknownMessageTypeRejected) {
  std::vector<char> wire = rpc::encode_frame(heartbeat_frame());
  wire[6] = 99;  // type u16 follows protocol
  EXPECT_THROW(rpc::decode_frame(wire), util::CheckError);
}

TEST(FrameCorruption, OversizedLengthPrefixRejectedBeforeAllocation) {
  // A corrupt length prefix must be rejected the moment the header is
  // complete — no buffering of (or allocation for) a 4GB "payload".
  std::vector<char> wire = rpc::encode_frame(heartbeat_frame());
  std::uint32_t huge = rpc::kMaxFramePayload + 1;
  std::memcpy(wire.data() + 8, &huge, sizeof(huge));  // payload_len field
  rpc::FrameDecoder decoder;
  EXPECT_THROW(decoder.feed(wire.data(), rpc::kFrameHeaderBytes); decoder.next(),
               util::CheckError);
}

TEST(FrameCorruption, TrailingGarbageRejectedByStrictDecode) {
  std::vector<char> wire = rpc::encode_frame(heartbeat_frame());
  wire.push_back('x');
  EXPECT_THROW(rpc::decode_frame(wire), util::CheckError);
}

TEST(FrameCorruption, WrongSchemaVersionRejected) {
  rpc::HeartbeatMsg beat;
  std::vector<char> payload = beat.serialize();
  payload[0] = 0x7F;  // schema version u16 leads every message
  EXPECT_THROW(rpc::HeartbeatMsg::deserialize(payload), util::CheckError);
}

TEST(FrameCorruption, TrailingMessageBytesRejected) {
  rpc::HeartbeatMsg beat;
  std::vector<char> payload = beat.serialize();
  payload.push_back('\0');
  EXPECT_THROW(rpc::HeartbeatMsg::deserialize(payload), util::CheckError);
}

// ------------------------------------------------------------- messages

TEST(Messages, RegisterRoundtrip) {
  rpc::RegisterExecutorMsg reg;
  reg.name = "pid:4242";
  reg.slots = 4;
  auto out = rpc::RegisterExecutorMsg::deserialize(reg.serialize());
  EXPECT_EQ(out.name, "pid:4242");
  EXPECT_EQ(out.slots, 4u);

  rpc::RegisterAckMsg ack;
  ack.executor_id = 3;
  ack.heartbeat_interval_s = 0.25;
  ack.heartbeat_timeout_s = 5.0;
  ack.dense_dim = 16;
  ack.model_blob = {'m', 'o', 'd', 'e', 'l'};
  auto ack_out = rpc::RegisterAckMsg::deserialize(ack.serialize());
  EXPECT_EQ(ack_out.executor_id, 3u);
  EXPECT_DOUBLE_EQ(ack_out.heartbeat_interval_s, 0.25);
  EXPECT_EQ(ack_out.dense_dim, 16u);
  EXPECT_EQ(ack_out.model_blob, ack.model_blob);
}

TEST(Messages, TaskLeaseRoundtripCarriesCompleteInputs) {
  rpc::TaskLeaseMsg lease;
  lease.lease_id = 11;
  lease.task_id = 12;
  lease.client_id = 13;
  lease.round = 14;
  lease.seed = 15;
  lease.dp_participants = 8;
  lease.lr = 0.01;
  lease.epochs = 3;
  lease.batch_size = 32;
  lease.loss_kind = 1;
  lease.clip_norm = 2.5;
  lease.momentum = 0.9;
  lease.prox_mu = 0.1;
  lease.has_dp = true;
  lease.dp_clip_norm = 1.5;
  lease.dp_noise_multiplier = 0.7;
  lease.dp_delta = 1e-5;
  lease.compression_kind = 2;
  lease.top_k_fraction = 0.25;
  lease.params = {1.0f, -2.0f, 3.5f};
  ml::Example ex;
  ex.dense = {0.5f, 0.25f};
  ex.tokens = {7, 9};
  ex.label = 1.0f;
  ex.label2 = 0.5f;
  ex.group = 3;
  lease.examples = {ex};

  auto out = rpc::TaskLeaseMsg::deserialize(lease.serialize());
  EXPECT_EQ(out.lease_id, 11u);
  EXPECT_EQ(out.task_id, 12u);
  EXPECT_EQ(out.seed, 15u);
  EXPECT_EQ(out.epochs, 3);
  EXPECT_EQ(out.batch_size, 32u);
  EXPECT_TRUE(out.has_dp);
  EXPECT_DOUBLE_EQ(out.dp_noise_multiplier, 0.7);
  EXPECT_EQ(out.compression_kind, 2u);
  EXPECT_EQ(out.params, lease.params);
  ASSERT_EQ(out.examples.size(), 1u);
  EXPECT_EQ(out.examples[0].dense, ex.dense);
  EXPECT_EQ(out.examples[0].tokens, ex.tokens);
  EXPECT_FLOAT_EQ(out.examples[0].label, 1.0f);
  EXPECT_EQ(out.examples[0].group, 3u);
}

TEST(Messages, TaskResultAndShutdownRoundtrip) {
  rpc::TaskResultMsg result;
  result.lease_id = 5;
  result.task_id = 6;
  result.executor_id = 2;
  result.ok = false;
  result.error = "dimension mismatch";
  result.delta = {0.5f};
  result.weight = 3.0;
  result.mean_loss = 0.25;
  result.examples = 40;
  auto out = rpc::TaskResultMsg::deserialize(result.serialize());
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error, "dimension mismatch");
  EXPECT_EQ(out.delta, result.delta);
  EXPECT_EQ(out.examples, 40u);

  rpc::ShutdownMsg bye;
  bye.reason = "run complete";
  EXPECT_EQ(rpc::ShutdownMsg::deserialize(bye.serialize()).reason, "run complete");
}

// Deterministic pseudo-gradient for the wire-format tests.
std::vector<float> test_delta(std::size_t n) {
  util::Rng rng(97);
  std::vector<float> delta(n);
  for (float& v : delta) v = static_cast<float>(rng.normal(0.0, 0.1));
  return delta;
}

rpc::TaskResultMsg result_with(const std::vector<float>& delta,
                               const compress::CompressionConfig& compression) {
  rpc::TaskResultMsg result;
  result.lease_id = 7;
  result.task_id = 8;
  result.executor_id = 1;
  result.weight = 2.0;
  result.mean_loss = 0.5;
  result.examples = 10;
  result.encode_delta(delta, compression);
  return result;
}

// The v3 wire contract (DESIGN.md §16): decoding a compressed result must
// produce bit-for-bit what the in-process path's apply_compression produces,
// so transport choice cannot change the aggregate.
TEST(Messages, TaskResultV3Int8MatchesInProcessCompression) {
  const std::vector<float> delta = test_delta(257);  // odd size: exercises tails
  compress::CompressionConfig cfg;
  cfg.kind = compress::CompressionKind::kInt8;

  std::vector<float> reference = delta;
  compress::apply_compression(reference, cfg);

  auto out = rpc::TaskResultMsg::deserialize(result_with(delta, cfg).serialize());
  EXPECT_EQ(out.compression_kind, static_cast<std::uint32_t>(compress::CompressionKind::kInt8));
  std::vector<float> decoded = out.take_delta();
  ASSERT_EQ(decoded.size(), reference.size());
  EXPECT_EQ(0, std::memcmp(decoded.data(), reference.data(), decoded.size() * sizeof(float)));
}

TEST(Messages, TaskResultV3TopKMatchesInProcessCompression) {
  const std::vector<float> delta = test_delta(300);
  compress::CompressionConfig cfg;
  cfg.kind = compress::CompressionKind::kTopK;
  cfg.top_k_fraction = 0.25;

  std::vector<float> reference = delta;
  compress::apply_compression(reference, cfg);

  auto out = rpc::TaskResultMsg::deserialize(result_with(delta, cfg).serialize());
  std::vector<float> decoded = out.take_delta();
  ASSERT_EQ(decoded.size(), reference.size());
  EXPECT_EQ(0, std::memcmp(decoded.data(), reference.data(), decoded.size() * sizeof(float)));
}

// Satellite: rpc.bytes_sent must genuinely shrink for int8 results, and the
// shrink must reconcile with QuantizedUpdate::payload_bytes() — every byte
// of difference between the two wire messages is payload, nothing else.
TEST(Messages, Int8WireBytesShrinkAndReconcileWithPayloadBytes) {
  const std::vector<float> delta = test_delta(1024);
  compress::CompressionConfig raw;  // kNone
  compress::CompressionConfig int8;
  int8.kind = compress::CompressionKind::kInt8;

  rpc::TaskResultMsg raw_msg = result_with(delta, raw);
  rpc::TaskResultMsg int8_msg = result_with(delta, int8);
  const std::size_t raw_wire = raw_msg.serialize().size();
  const std::size_t int8_wire = int8_msg.serialize().size();

  EXPECT_LT(int8_wire, raw_wire);
  // ~4x payload shrink dominates the fixed header: the whole message must be
  // well under half the raw one at this size.
  EXPECT_LT(int8_wire, raw_wire / 2);

  EXPECT_EQ(raw_msg.payload_bytes(), delta.size() * sizeof(float));
  EXPECT_EQ(int8_msg.payload_bytes(), compress::quantize_int8(delta).payload_bytes());
  // Same schema around different payloads: wire difference == payload
  // difference exactly (the int8 payload serializes scale + values, which is
  // what payload_bytes() counts).
  EXPECT_EQ(raw_wire - int8_wire, raw_msg.payload_bytes() - int8_msg.payload_bytes());
}

TEST(Messages, TaskResultRejectsUnknownCompressionKind) {
  rpc::TaskResultMsg msg = result_with(test_delta(8), compress::CompressionConfig{});
  std::vector<char> bytes = msg.serialize();
  // compression_kind sits after schema(u32) + lease/task/executor ids
  // (3 x u64) + ok(u8) + error string (u64 length, empty) + trace/span ids
  // (2 x u64). Flip it to an undefined value.
  const std::size_t kind_offset = 4 + 3 * 8 + 1 + 8 + 2 * 8;
  std::uint32_t bogus = 0xABCD;
  std::memcpy(bytes.data() + kind_offset, &bogus, sizeof(bogus));
  EXPECT_THROW(rpc::TaskResultMsg::deserialize(bytes), util::CheckError);
}

TEST(Messages, RegisterAckCarriesLeaderWallClock) {
  rpc::RegisterAckMsg ack;
  ack.executor_id = 1;
  ack.leader_wall_us = 123456.5;
  auto out = rpc::RegisterAckMsg::deserialize(ack.serialize());
  EXPECT_DOUBLE_EQ(out.leader_wall_us, 123456.5);
}

TEST(Messages, LeaseAndResultCarryTraceIds) {
  rpc::TaskLeaseMsg lease;
  lease.lease_id = 0xAAA;
  lease.trace_id = 0xAAA;
  lease.parent_span_id = 0xBBB;
  auto lease_out = rpc::TaskLeaseMsg::deserialize(lease.serialize());
  EXPECT_EQ(lease_out.trace_id, 0xAAAu);
  EXPECT_EQ(lease_out.parent_span_id, 0xBBBu);

  rpc::TaskResultMsg result;
  result.trace_id = 0xAAA;
  result.span_id = (std::uint64_t{3} << 32) + 7;  // executor-3 span-id space
  auto result_out = rpc::TaskResultMsg::deserialize(result.serialize());
  EXPECT_EQ(result_out.trace_id, 0xAAAu);
  EXPECT_EQ(result_out.span_id, (std::uint64_t{3} << 32) + 7);
}

TEST(Messages, HeartbeatCarriesTelemetryPayload) {
  obs::MetricRegistry registry;
  registry.counter("rpc.leases_served").add(4);
  obs::TelemetrySnapshotEncoder encoder;
  rpc::HeartbeatMsg beat;
  beat.executor_id = 2;
  beat.seq = 9;
  beat.telemetry = encoder.encode(registry).serialize();

  auto out = rpc::HeartbeatMsg::deserialize(beat.serialize());
  EXPECT_EQ(out.telemetry, beat.telemetry);
  obs::TelemetrySnapshot snapshot = obs::TelemetrySnapshot::deserialize(out.telemetry);
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].name, "rpc.leases_served");
  EXPECT_EQ(snapshot.counters[0].delta, 4u);
}

// ------------------------------------------------- telemetry shipping

TEST(TelemetrySnapshot, EncoderEmitsDeltasAndSkipsUnchanged) {
  obs::MetricRegistry registry;
  registry.counter("c").add(5);
  registry.gauge("g").set(2.5);
  registry.histogram("h", 0.0, 10.0, 4).record(3.0);
  obs::TelemetrySnapshotEncoder encoder;

  obs::TelemetrySnapshot first = encoder.encode(registry);
  EXPECT_EQ(first.seq, 1u);
  ASSERT_EQ(first.counters.size(), 1u);
  EXPECT_EQ(first.counters[0].delta, 5u);
  ASSERT_EQ(first.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(first.gauges[0].value, 2.5);
  ASSERT_EQ(first.histograms.size(), 1u);
  EXPECT_EQ(first.histograms[0].count_delta, 1u);
  EXPECT_DOUBLE_EQ(first.histograms[0].sum_delta, 3.0);

  // Nothing changed: counters/histograms drop out (delta 0); gauges re-ship
  // their absolute value every window (last-write-wins semantics).
  obs::TelemetrySnapshot second = encoder.encode(registry);
  EXPECT_EQ(second.seq, 2u);
  EXPECT_TRUE(second.counters.empty());
  EXPECT_TRUE(second.histograms.empty());
  EXPECT_EQ(second.gauges.size(), 1u);

  registry.counter("c").add(2);
  obs::TelemetrySnapshot third = encoder.encode(registry);
  ASSERT_EQ(third.counters.size(), 1u);
  EXPECT_EQ(third.counters[0].delta, 2u);  // the window's delta, not the total 7
}

TEST(TelemetrySnapshot, SerializeDeserializeRoundtrip) {
  obs::MetricRegistry registry;
  registry.counter("tasks").add(11);
  registry.gauge("alive").set(1.0);
  registry.histogram("lat", 0.0, 1.0, 8).record(0.25);
  registry.histogram("lat", 0.0, 1.0, 8).record(0.75);
  obs::TelemetrySnapshotEncoder encoder;
  obs::TelemetrySnapshot snapshot = encoder.encode(registry);

  obs::TelemetrySnapshot out = obs::TelemetrySnapshot::deserialize(snapshot.serialize());
  EXPECT_EQ(out.seq, snapshot.seq);
  ASSERT_EQ(out.counters.size(), 1u);
  EXPECT_EQ(out.counters[0].name, "tasks");
  EXPECT_EQ(out.counters[0].delta, 11u);
  ASSERT_EQ(out.histograms.size(), 1u);
  EXPECT_EQ(out.histograms[0].count_delta, 2u);
  EXPECT_DOUBLE_EQ(out.histograms[0].sum_delta, 1.0);
  EXPECT_EQ(out.histograms[0].bucket_deltas, snapshot.histograms[0].bucket_deltas);
}

// The snapshot corruption matrix mirrors the frame one: truncation, version
// skew, and hostile counts must throw before any value is trusted.

TEST(TelemetrySnapshotCorruption, TruncatedRejected) {
  obs::MetricRegistry registry;
  registry.counter("c").add(1);
  obs::TelemetrySnapshotEncoder encoder;
  std::vector<char> bytes = encoder.encode(registry).serialize();
  bytes.pop_back();
  EXPECT_THROW(obs::TelemetrySnapshot::deserialize(bytes), util::CheckError);
}

TEST(TelemetrySnapshotCorruption, WrongSchemaVersionRejected) {
  std::vector<char> bytes = obs::TelemetrySnapshot{}.serialize();
  bytes[0] = 0x7F;  // schema version u16 leads the payload
  EXPECT_THROW(obs::TelemetrySnapshot::deserialize(bytes), util::CheckError);
}

TEST(TelemetrySnapshotCorruption, OversizedSeriesCountRejected) {
  std::vector<char> bytes = obs::TelemetrySnapshot{}.serialize();
  // n_counters u32 sits after version u16 + seq u64; claim 2^31 series.
  std::uint32_t huge = 1u << 31;
  std::memcpy(bytes.data() + 10, &huge, sizeof(huge));
  EXPECT_THROW(obs::TelemetrySnapshot::deserialize(bytes), util::CheckError);
}

TEST(TelemetrySnapshotCorruption, TrailingBytesRejected) {
  std::vector<char> bytes = obs::TelemetrySnapshot{}.serialize();
  bytes.push_back('\0');
  EXPECT_THROW(obs::TelemetrySnapshot::deserialize(bytes), util::CheckError);
}

TEST(TelemetrySnapshot, MergerLabelsSeriesAndDropsDuplicates) {
  obs::MetricRegistry source;
  source.counter("rpc.leases_served").add(6);
  source.gauge("mem").set(3.0);
  obs::TelemetrySnapshotEncoder encoder;
  obs::TelemetrySnapshot snapshot = encoder.encode(source);

  obs::MetricRegistry leader_registry;
  obs::TelemetrySnapshotMerger merger;
  EXPECT_TRUE(merger.apply(3, snapshot, leader_registry));
  // A re-delivered heartbeat replays the same seq: must be a no-op.
  EXPECT_FALSE(merger.apply(3, snapshot, leader_registry));
  EXPECT_EQ(leader_registry.counter(
                obs::executor_series_label("rpc.leases_served", 3)).value(), 6u);
  EXPECT_DOUBLE_EQ(leader_registry.gauge(obs::executor_series_label("mem", 3)).value(),
                   3.0);

  // A different executor shipping the same seq is independent state.
  EXPECT_TRUE(merger.apply(4, snapshot, leader_registry));
  EXPECT_EQ(leader_registry.counter(
                obs::executor_series_label("rpc.leases_served", 4)).value(), 6u);
}

// ------------------------------------------------------------- transports

TEST(LoopbackTransport, DeliversFramesBothWays) {
  auto [a, b] = rpc::LoopbackTransport::make_pair();
  ASSERT_TRUE(a->send(heartbeat_frame()));
  rpc::Frame got;
  ASSERT_EQ(b->recv(got, 1.0), rpc::RecvStatus::kFrame);
  EXPECT_EQ(got.type, rpc::MessageType::kHeartbeat);
  ASSERT_TRUE(b->send(rpc::Frame{rpc::MessageType::kShutdown, {}}));
  ASSERT_EQ(a->recv(got, 1.0), rpc::RecvStatus::kFrame);
  EXPECT_EQ(got.type, rpc::MessageType::kShutdown);
}

TEST(LoopbackTransport, TimesOutThenSeesClose) {
  auto [a, b] = rpc::LoopbackTransport::make_pair();
  rpc::Frame got;
  EXPECT_EQ(a->recv(got, 0.0), rpc::RecvStatus::kTimeout);
  b->close();
  EXPECT_EQ(a->recv(got, 1.0), rpc::RecvStatus::kClosed);
  EXPECT_FALSE(a->send(heartbeat_frame()));
}

TEST(UnixSocketTransport, ConnectSendRecvClose) {
  std::string path = testing::TempDir() + "rpc_test_unix.sock";
  rpc::Listener listener = rpc::Listener::listen_unix(path);
  // The backlog holds the connection until accept(), so no second thread is
  // needed for a same-process handshake.
  auto client = rpc::connect_unix(path);
  auto server = listener.accept(2.0);
  ASSERT_NE(server, nullptr);

  ASSERT_TRUE(client->send(heartbeat_frame()));
  rpc::Frame got;
  ASSERT_EQ(server->recv(got, 2.0), rpc::RecvStatus::kFrame);
  EXPECT_EQ(got.payload, heartbeat_frame().payload);
  ASSERT_TRUE(server->send(rpc::Frame{rpc::MessageType::kShutdown, {}}));
  ASSERT_EQ(client->recv(got, 2.0), rpc::RecvStatus::kFrame);

  client->close();
  EXPECT_EQ(server->recv(got, 2.0), rpc::RecvStatus::kClosed);
}

TEST(UnixSocketTransport, ConnectToMissingPathThrows) {
  EXPECT_THROW(rpc::connect_unix(testing::TempDir() + "no_such_rpc.sock"),
               util::CheckError);
}

TEST(TcpTransport, ConnectSendRecvOnEphemeralPort) {
  rpc::Listener listener = rpc::Listener::listen_tcp(0);
  ASSERT_NE(listener.port(), 0);
  auto client = rpc::connect_tcp("127.0.0.1", listener.port());
  auto server = listener.accept(2.0);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(client->send(heartbeat_frame()));
  rpc::Frame got;
  ASSERT_EQ(server->recv(got, 2.0), rpc::RecvStatus::kFrame);
  EXPECT_EQ(got.type, rpc::MessageType::kHeartbeat);
}

TEST(TcpTransport, AcceptTimesOutWithoutConnection) {
  rpc::Listener listener = rpc::Listener::listen_tcp(0);
  EXPECT_EQ(listener.accept(0.05), nullptr);
}

// ------------------------------------------------------- leader/executor

/// Deterministic stub: delta = 2 * params, weight = client_id.
class StubService final : public rpc::TrainService {
 public:
  void configure(const rpc::RegisterAckMsg& ack) override { dense_dim_ = ack.dense_dim; }
  rpc::TaskResultMsg run_lease(const rpc::TaskLeaseMsg& lease) override {
    rpc::TaskResultMsg result;
    result.ok = true;
    result.delta = lease.params;
    for (float& v : result.delta) v *= 2.0f;
    result.weight = static_cast<double>(lease.client_id);
    result.mean_loss = 0.5;
    result.examples = lease.examples.size();
    return result;
  }

 private:
  std::uint64_t dense_dim_ = 0;
};

rpc::TaskLeaseMsg stub_lease(std::uint64_t task_id, std::uint64_t client_id) {
  rpc::TaskLeaseMsg lease;
  lease.task_id = task_id;
  lease.client_id = client_id;
  lease.params = {1.0f, 2.0f, 3.0f};
  return lease;
}

/// Queue a worker serving StubService over the peer end of a loopback pair.
std::future<void> spawn_stub_worker(util::ThreadPool& pool,
                                    std::shared_ptr<rpc::Transport> endpoint,
                                    const std::string& name) {
  return pool.submit([endpoint, name] {
    StubService service;
    rpc::ExecutorWorker worker(*endpoint, service, name);
    worker.run();
  });
}

TEST(LeaderExecutor, ServesLeasesOverLoopback) {
  rpc::LeaderConfig config;
  config.dense_dim = 3;
  rpc::Leader leader(config);
  util::ThreadPool pool(2);
  std::vector<std::future<void>> workers;
  for (int i = 0; i < 2; ++i) {
    auto [leader_end, worker_end] = rpc::LoopbackTransport::make_pair();
    workers.push_back(spawn_stub_worker(pool, std::move(worker_end),
                                        "stub-" + std::to_string(i)));
    leader.add_transport(std::move(leader_end));
  }
  EXPECT_EQ(leader.alive_executors(), 2u);

  std::vector<std::uint64_t> lease_ids;
  for (std::uint64_t i = 0; i < 6; ++i)
    lease_ids.push_back(leader.submit(stub_lease(/*task_id=*/100 + i, /*client_id=*/i)));
  for (std::uint64_t i = 0; i < 6; ++i) {
    rpc::TaskResultMsg result = leader.wait(lease_ids[i]);
    EXPECT_EQ(result.task_id, 100 + i);
    ASSERT_EQ(result.delta.size(), 3u);
    EXPECT_FLOAT_EQ(result.delta[0], 2.0f);
    EXPECT_DOUBLE_EQ(result.weight, static_cast<double>(i));
  }

  leader.shutdown("test done");
  for (auto& worker : workers) worker.get();  // propagates any worker throw
}

TEST(LeaderExecutor, FailedLeaseSurfacesExecutorError) {
  // A service reporting ok=false must turn into a CheckError at wait(), with
  // the executor's message attached.
  class FailingService final : public rpc::TrainService {
   public:
    void configure(const rpc::RegisterAckMsg&) override {}
    rpc::TaskResultMsg run_lease(const rpc::TaskLeaseMsg&) override {
      rpc::TaskResultMsg result;
      result.ok = false;
      result.error = "synthetic failure";
      return result;
    }
  };
  rpc::Leader leader(rpc::LeaderConfig{});
  util::ThreadPool pool(1);
  auto [leader_end, worker_end] = rpc::LoopbackTransport::make_pair();
  std::shared_ptr<rpc::Transport> endpoint = std::move(worker_end);
  auto worker = pool.submit([endpoint] {
    FailingService service;
    rpc::ExecutorWorker w(*endpoint, service, "failing");
    w.run();
  });
  leader.add_transport(std::move(leader_end));
  std::uint64_t lease_id = leader.submit(stub_lease(1, 1));
  EXPECT_THROW(leader.wait(lease_id), util::CheckError);
  leader.shutdown("test done");
  worker.get();
}

TEST(LeaderExecutor, RedispatchesWhenExecutorDies) {
  rpc::LeaderConfig config;
  rpc::Leader leader(config);
  util::ThreadPool pool(1);

  // Executor 1: a live stub worker. Executor 2: hand-driven from this test —
  // it registers, accepts a lease, and then dies without answering.
  auto [leader_end, worker_end] = rpc::LoopbackTransport::make_pair();
  auto worker = spawn_stub_worker(pool, std::move(worker_end), "survivor");
  leader.add_transport(std::move(leader_end));

  auto [fake_leader_end, fake] = rpc::LoopbackTransport::make_pair();
  rpc::RegisterExecutorMsg reg;
  reg.name = "doomed";
  ASSERT_TRUE(fake->send(rpc::Frame{rpc::MessageType::kRegisterExecutor, reg.serialize()}));
  leader.add_transport(std::move(fake_leader_end));  // reads the queued Register
  ASSERT_EQ(leader.alive_executors(), 2u);

  // Round-robin: lease 1 -> executor 1 (survivor), lease 2 -> executor 2.
  std::uint64_t first = leader.submit(stub_lease(201, 1));
  std::uint64_t second = leader.submit(stub_lease(202, 2));
  fake->close();  // SIGKILL stand-in: the leader sees EOF and must re-dispatch

  rpc::TaskResultMsg r1 = leader.wait(first);
  rpc::TaskResultMsg r2 = leader.wait(second);
  EXPECT_EQ(r1.task_id, 201u);
  EXPECT_EQ(r2.task_id, 202u);  // completed by the survivor after re-dispatch
  EXPECT_EQ(leader.alive_executors(), 1u);

  leader.shutdown("test done");
  worker.get();
}

TEST(LeaderExecutor, LoopbackRunPropagatesSpans) {
  // Satellite regression: a full loopback run must leave a complete span
  // record — one rpc.dispatch per lease on the leader side, one
  // rpc.lease_execute per lease on the worker side, each execute span
  // parented to its dispatch span and sharing the lease's trace id.
  obs::TelemetryConfig tc;
  tc.metrics_enabled = true;
  tc.tracing_enabled = true;
  obs::Telemetry telemetry(std::move(tc));
  obs::ScopedTelemetry scoped(&telemetry);

  constexpr std::uint64_t kLeases = 4;
  {
    rpc::LeaderConfig config;
    config.dense_dim = 3;
    rpc::Leader leader(config);
    util::ThreadPool pool(1);
    auto [leader_end, worker_end] = rpc::LoopbackTransport::make_pair();
    auto worker = spawn_stub_worker(pool, std::move(worker_end), "traced");
    leader.add_transport(std::move(leader_end));
    std::vector<std::uint64_t> lease_ids;
    for (std::uint64_t i = 0; i < kLeases; ++i)
      lease_ids.push_back(leader.submit(stub_lease(400 + i, i)));
    for (std::uint64_t id : lease_ids) leader.wait(id);
    leader.shutdown("test done");
    worker.get();
  }

  std::set<std::uint64_t> dispatch_span_ids;
  std::set<std::uint64_t> dispatch_trace_ids;
  std::vector<obs::TraceEvent> execute_spans;
  for (const obs::TraceEvent& e : telemetry.tracer().events_snapshot()) {
    if (std::string(e.name) == "rpc.dispatch") {
      EXPECT_NE(e.span_id, 0u);
      EXPECT_NE(e.trace_id, 0u);
      dispatch_span_ids.insert(e.span_id);
      dispatch_trace_ids.insert(e.trace_id);
    } else if (std::string(e.name) == "rpc.lease_execute") {
      execute_spans.push_back(e);
    }
  }
  EXPECT_EQ(dispatch_span_ids.size(), kLeases);
  ASSERT_EQ(execute_spans.size(), kLeases);
  for (const obs::TraceEvent& e : execute_spans) {
    EXPECT_NE(e.span_id, 0u);
    EXPECT_TRUE(dispatch_span_ids.count(e.parent_span_id))
        << "execute span " << e.span_id << " parent " << e.parent_span_id
        << " matches no dispatch span";
    EXPECT_TRUE(dispatch_trace_ids.count(e.trace_id));
  }
}

TEST(LeaderExecutor, FlushAndShutdownMergeTelemetryAfterTheLastHeartbeat) {
  // Executors ship metric deltas only in rate-limited heartbeats, so every
  // lease served after the last beat would be lost if a run snapshotted, or
  // shutdown closed, without asking. Beats here are a minute apart: the only
  // ones are the first (before any lease) and those the executor answers
  // Flush and Shutdown with. The worker ships the process-wide registry,
  // which with one executor holds exactly that executor's rpc.leases_served.
  obs::TelemetryConfig tc;
  tc.metrics_enabled = true;
  obs::Telemetry telemetry(std::move(tc));
  obs::ScopedTelemetry scoped(&telemetry);

  constexpr std::uint64_t kLeases = 25;
  rpc::LeaderConfig config;
  config.dense_dim = 3;
  config.heartbeat_interval_s = 60.0;
  config.heartbeat_timeout_s = 120.0;
  rpc::Leader leader(config);
  util::ThreadPool pool(1);
  auto [leader_end, worker_end] = rpc::LoopbackTransport::make_pair();
  std::shared_ptr<rpc::Transport> endpoint = std::move(worker_end);
  auto worker = pool.submit([endpoint] {
    StubService service;
    rpc::ExecutorWorker w(*endpoint, service, "shipping", /*ship_telemetry=*/true);
    w.run();
  });
  leader.add_transport(std::move(leader_end));
  const std::string merged = obs::executor_series_label("rpc.leases_served", 1);
  auto serve = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) leader.wait(leader.submit(stub_lease(500 + i, i)));
  };
  serve(kLeases);
  leader.flush_telemetry();  // what a runner does before its final snapshot
  EXPECT_EQ(telemetry.metrics().counter(merged).value(), kLeases);

  serve(5);
  leader.shutdown("test done");
  worker.get();
  util::Logger::instance().set_role("");  // the shipping worker claimed the log role
  EXPECT_EQ(telemetry.metrics().counter("rpc.leases_served").value(), kLeases + 5);
  EXPECT_EQ(telemetry.metrics().counter(merged).value(), kLeases + 5);
}

TEST(LeaderExecutor, AllExecutorsDeadThrows) {
  rpc::Leader leader(rpc::LeaderConfig{});
  auto [fake_leader_end, fake] = rpc::LoopbackTransport::make_pair();
  rpc::RegisterExecutorMsg reg;
  reg.name = "only";
  ASSERT_TRUE(fake->send(rpc::Frame{rpc::MessageType::kRegisterExecutor, reg.serialize()}));
  leader.add_transport(std::move(fake_leader_end));
  std::uint64_t lease_id = leader.submit(stub_lease(301, 1));
  fake->close();
  EXPECT_THROW(leader.wait(lease_id), util::CheckError);
}

}  // namespace
}  // namespace flint
