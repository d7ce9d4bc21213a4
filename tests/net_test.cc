// Tests for the simulated network: NIC FIFO charging, local bypass, RPC
// correlation, incast penalty, many-to-one serialization, and the columnar
// update wire codec behind config wire_combine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace chaos {
namespace {

NetworkConfig TestConfig() {
  NetworkConfig c;
  c.nic_bandwidth_bps = 1e9;  // 1 GB/s: 1 byte == 1 ns
  c.one_way_latency = 1000;
  c.local_latency = 10;
  c.model_incast = false;
  return c;
}

TEST(NetworkTest, Presets) {
  EXPECT_DOUBLE_EQ(NetworkConfig::FortyGigE().nic_bandwidth_bps, 5e9);
  EXPECT_DOUBLE_EQ(NetworkConfig::OneGigE().nic_bandwidth_bps, 1.25e8);
  EXPECT_EQ(
      NetworkConfig::FortyGigE().nic_bandwidth_bps / NetworkConfig::OneGigE().nic_bandwidth_bps,
      40.0);
}

TEST(NetworkTest, TxTimeMatchesBandwidth) {
  Simulator sim;
  Network net(&sim, 2, TestConfig());
  EXPECT_EQ(net.TxTime(1000), 1000);  // 1 GB/s -> 1 ns/B
  EXPECT_EQ(net.TxTime(0), 0);
}

TEST(MessageBusTest, RemoteDeliveryTiming) {
  Simulator sim;
  Network net(&sim, 2, TestConfig());
  MessageBus bus(&sim, &net);
  TimeNs delivered_at = -1;
  sim.Spawn([](MessageBus* bus, Simulator* s, TimeNs* out) -> Task<> {
    Message m = co_await bus->Inbox(1, kComputeService).Pop();
    CHAOS_CHECK_EQ(m.type, 7u);
    *out = s->now();
  }(&bus, &sim, &delivered_at));
  sim.Spawn([](MessageBus* bus) -> Task<> {
    Message m;
    m.src = 0;
    m.dst = 1;
    m.service = kComputeService;
    m.type = 7;
    m.wire_bytes = 500;
    co_await bus->Send(std::move(m));
  }(&bus));
  sim.Run();
  // uplink 500ns + latency 1000ns + downlink 500ns = 2000ns.
  EXPECT_EQ(delivered_at, 2000);
  EXPECT_EQ(net.bytes_sent(0), 500u);
  EXPECT_EQ(net.bytes_received(1), 500u);
}

TEST(MessageBusTest, LocalDeliverySkipsNic) {
  Simulator sim;
  Network net(&sim, 2, TestConfig());
  MessageBus bus(&sim, &net);
  TimeNs delivered_at = -1;
  sim.Spawn([](MessageBus* bus, Simulator* s, TimeNs* out) -> Task<> {
    (void)co_await bus->Inbox(0, kComputeService).Pop();
    *out = s->now();
  }(&bus, &sim, &delivered_at));
  sim.Spawn([](MessageBus* bus) -> Task<> {
    Message m;
    m.src = 0;
    m.dst = 0;
    m.service = kComputeService;
    m.wire_bytes = 1 << 20;  // size is irrelevant locally
    co_await bus->Send(std::move(m));
  }(&bus));
  sim.Run();
  EXPECT_EQ(delivered_at, 10);  // local latency only
  EXPECT_EQ(net.bytes_sent(0), 0u);
  EXPECT_EQ(net.total_bytes(), 0u);
}

TEST(MessageBusTest, SenderBlocksOnlyForUplink) {
  Simulator sim;
  Network net(&sim, 2, TestConfig());
  MessageBus bus(&sim, &net);
  TimeNs sender_resumed = -1;
  sim.Spawn([](MessageBus* bus, Simulator* s, TimeNs* out) -> Task<> {
    Message m;
    m.src = 0;
    m.dst = 1;
    m.service = kComputeService;
    m.wire_bytes = 500;
    co_await bus->Send(std::move(m));
    *out = s->now();
  }(&bus, &sim, &sender_resumed));
  sim.Spawn([](MessageBus* bus) -> Task<> {
    (void)co_await bus->Inbox(1, kComputeService).Pop();
  }(&bus));
  sim.Run();
  EXPECT_EQ(sender_resumed, 500);  // uplink only, not latency+downlink
}

TEST(MessageBusTest, RpcRoundTrip) {
  Simulator sim;
  Network net(&sim, 2, TestConfig());
  MessageBus bus(&sim, &net);
  // Server echoes the request payload + 1.
  sim.Spawn([](MessageBus* bus) -> Task<> {
    Message req = co_await bus->Inbox(1, kStorageService).Pop();
    const int v = std::any_cast<int>(req.body);
    bus->PostReply(req, 42, 100, v + 1);
  }(&bus));
  int got = 0;
  TimeNs finished = -1;
  sim.Spawn([](MessageBus* bus, Simulator* s, int* got, TimeNs* finished) -> Task<> {
    Message req;
    req.src = 0;
    req.dst = 1;
    req.service = kStorageService;
    req.type = 1;
    req.wire_bytes = 100;
    req.body = 41;
    Message resp = co_await bus->Call(std::move(req));
    *got = std::any_cast<int>(resp.body);
    CHAOS_CHECK(resp.is_response);
    CHAOS_CHECK_EQ(resp.type, 42u);
    *got = std::any_cast<int>(resp.body);
    *finished = s->now();
  }(&bus, &sim, &got, &finished));
  sim.Run();
  EXPECT_EQ(got, 42);
  // Request: 100 up + 1000 + 100 down = 1200. Reply likewise: 2400 total.
  EXPECT_EQ(finished, 2400);
}

TEST(MessageBusTest, ManyConcurrentRpcsAllResolve) {
  Simulator sim;
  Network net(&sim, 4, TestConfig());
  MessageBus bus(&sim, &net);
  // Echo servers on machines 1..3.
  for (MachineId m = 1; m < 4; ++m) {
    sim.Spawn([](MessageBus* bus, MachineId me) -> Task<> {
      for (int i = 0; i < 50; ++i) {
        Message req = co_await bus->Inbox(me, kStorageService).Pop();
        bus->PostReply(req, req.type + 1000, 64, req.body);
      }
    }(&bus, m));
  }
  int completed = 0;
  for (int i = 0; i < 150; ++i) {
    const MachineId dst = static_cast<MachineId>(1 + i % 3);  // exactly 50 each
    sim.Spawn([](MessageBus* bus, MachineId dst, int tag, int* completed) -> Task<> {
      Message req;
      req.src = 0;
      req.dst = dst;
      req.service = kStorageService;
      req.type = static_cast<uint32_t>(tag);
      req.wire_bytes = 64;
      req.body = tag;
      Message resp = co_await bus->Call(std::move(req));
      CHAOS_CHECK_EQ(std::any_cast<int>(resp.body), tag);
      CHAOS_CHECK_EQ(resp.type, static_cast<uint32_t>(tag) + 1000);
      ++*completed;
    }(&bus, dst, i, &completed));
  }
  sim.Run();
  EXPECT_EQ(completed, 150);
  EXPECT_EQ(sim.live_tasks(), 0u);
}

TEST(MessageBusTest, UplinkSerializesConcurrentSends) {
  Simulator sim;
  Network net(&sim, 3, TestConfig());
  MessageBus bus(&sim, &net);
  std::vector<TimeNs> deliveries;
  for (MachineId dst = 1; dst <= 2; ++dst) {
    sim.Spawn([](MessageBus* bus, Simulator* s, MachineId me, std::vector<TimeNs>* out)
                  -> Task<> {
      (void)co_await bus->Inbox(me, kComputeService).Pop();
      out->push_back(s->now());
    }(&bus, &sim, dst, &deliveries));
  }
  // Two 1000-byte messages from machine 0 to different destinations share
  // the single uplink: second delivery is pushed out by 1000ns.
  for (MachineId dst = 1; dst <= 2; ++dst) {
    Message m;
    m.src = 0;
    m.dst = dst;
    m.service = kComputeService;
    m.wire_bytes = 1000;
    bus.PostSend(std::move(m));
  }
  sim.Run();
  ASSERT_EQ(deliveries.size(), 2u);
  std::sort(deliveries.begin(), deliveries.end());
  EXPECT_EQ(deliveries[0], 1000 + 1000 + 1000);  // up + latency + down
  EXPECT_EQ(deliveries[1], 2000 + 1000 + 1000);  // queued behind first on uplink
}

TEST(MessageBusTest, IncastPenaltyTriggersOnBacklog) {
  NetworkConfig cfg = TestConfig();
  cfg.model_incast = true;
  cfg.incast_backlog_threshold = 1500;
  cfg.incast_penalty = 100000;
  Simulator sim;
  Network net(&sim, 9, cfg);
  MessageBus bus(&sim, &net);
  int received = 0;
  sim.Spawn([](MessageBus* bus, int* received) -> Task<> {
    for (int i = 0; i < 8; ++i) {
      (void)co_await bus->Inbox(0, kComputeService).Pop();
      ++*received;
    }
  }(&bus, &received));
  // 8 senders each push 1000B to machine 0 simultaneously -> downlink backlog
  // exceeds 1500ns after the first two arrive.
  for (MachineId src = 1; src <= 8; ++src) {
    Message m;
    m.src = src;
    m.dst = 0;
    m.service = kComputeService;
    m.wire_bytes = 1000;
    bus.PostSend(std::move(m));
  }
  sim.Run();
  EXPECT_EQ(received, 8);
  EXPECT_GT(net.incast_events(), 0u);
}

TEST(MessageBusTest, NoIncastWhenDisabled) {
  Simulator sim;
  Network net(&sim, 9, TestConfig());
  MessageBus bus(&sim, &net);
  sim.Spawn([](MessageBus* bus) -> Task<> {
    for (int i = 0; i < 8; ++i) {
      (void)co_await bus->Inbox(0, kComputeService).Pop();
    }
  }(&bus));
  for (MachineId src = 1; src <= 8; ++src) {
    Message m;
    m.src = src;
    m.dst = 0;
    m.service = kComputeService;
    m.wire_bytes = 1000;
    bus.PostSend(std::move(m));
  }
  sim.Run();
  EXPECT_EQ(net.incast_events(), 0u);
}

TEST(MessageBusTest, DeliveredCountTracksMessages) {
  Simulator sim;
  Network net(&sim, 2, TestConfig());
  MessageBus bus(&sim, &net);
  sim.Spawn([](MessageBus* bus) -> Task<> {
    for (int i = 0; i < 5; ++i) {
      (void)co_await bus->Inbox(1, kControlService).Pop();
    }
  }(&bus));
  for (int i = 0; i < 5; ++i) {
    Message m;
    m.src = 0;
    m.dst = 1;
    m.service = kControlService;
    m.wire_bytes = 10;
    bus.PostSend(std::move(m));
  }
  sim.Run();
  EXPECT_EQ(bus.messages_delivered(), 5u);
}

// ---- Columnar update wire codec (config wire_combine).

// Encode -> Decode must restore the exact record sequence — ids in arrival
// order (including non-monotonic ones: binned batches are clustered but not
// sorted) and the value column byte for byte.
TEST(UpdateWireCodecTest, RoundTripIsByteExact) {
  Rng rng(7);
  const uint64_t value_bytes = 4;
  std::vector<uint64_t> dst;
  std::vector<uint8_t> values;
  const uint64_t base = 123456789;
  for (int i = 0; i < 1000; ++i) {
    dst.push_back(base + rng.Below(1 << 16));  // clustered, NOT sorted
    for (uint64_t b = 0; b < value_bytes; ++b) {
      values.push_back(static_cast<uint8_t>(rng.Below(256)));
    }
  }
  std::vector<uint8_t> frame;
  UpdateWireCodec::Encode(dst.data(), values.data(),
                          static_cast<uint32_t>(dst.size()), value_bytes, &frame);
  EXPECT_EQ(frame.size(), UpdateWireCodec::PackedFrameBytes(
                              dst.data(), static_cast<uint32_t>(dst.size()),
                              value_bytes));
  std::vector<uint64_t> dst2;
  std::vector<uint8_t> values2;
  const uint32_t n =
      UpdateWireCodec::Decode(frame.data(), frame.size(), value_bytes, &dst2, &values2);
  ASSERT_EQ(n, dst.size());
  EXPECT_EQ(dst2, dst);
  EXPECT_EQ(values2, values);
}

TEST(UpdateWireCodecTest, RoundTripEmptyAndSingle) {
  for (const uint32_t n : {0u, 1u}) {
    std::vector<uint64_t> dst(n, 42);
    std::vector<uint8_t> values(n * 8, 0xab);
    std::vector<uint8_t> frame;
    UpdateWireCodec::Encode(dst.data(), values.data(), n, 8, &frame);
    std::vector<uint64_t> dst2;
    std::vector<uint8_t> values2;
    EXPECT_EQ(UpdateWireCodec::Decode(frame.data(), frame.size(), 8, &dst2, &values2), n);
    EXPECT_EQ(dst2, dst);
    EXPECT_EQ(values2, values);
  }
}

// The min rule: clustered ids pack below the verbatim frame; adversarial
// (maximally spread) ids fall back to the verbatim size, never above it.
TEST(UpdateWireCodecTest, PackedWireBytesNeverExceedsVerbatim) {
  const uint64_t record_wire = 12;  // 8-byte id + 4-byte value
  const uint64_t value_bytes = 4;
  std::vector<uint64_t> clustered;
  std::vector<uint64_t> spread;
  Rng rng(3);
  for (int i = 0; i < 4096; ++i) {
    clustered.push_back((5ull << 20) + rng.Below(1 << 14));
    spread.push_back(rng.Next());  // alternating huge deltas: 10-byte varints
  }
  const uint64_t n = clustered.size();
  auto wire_bytes = [&](const std::vector<uint64_t>& dst) {
    UpdateWireSizer sizer;
    for (const uint64_t d : dst) {
      sizer.Add(d);
    }
    return UpdateWireCodec::WireBytes(n, sizer.varint_bytes(), record_wire, value_bytes);
  };
  const uint64_t packed_clustered = wire_bytes(clustered);
  const uint64_t packed_spread = wire_bytes(spread);
  EXPECT_LT(packed_clustered, n * record_wire);
  EXPECT_EQ(packed_spread, n * record_wire);  // verbatim fallback
}

// The sizer is the hot-path twin of PackedFrameBytes: identical sizes,
// incrementally and allocation-free.
TEST(UpdateWireCodecTest, SizerMatchesFrameBytes) {
  Rng rng(11);
  std::vector<uint64_t> dst;
  UpdateWireSizer sizer;
  for (int i = 0; i < 500; ++i) {
    dst.push_back(rng.Below(1ull << 40));
    sizer.Add(dst.back());
  }
  for (const uint64_t vb : {1ull, 4ull, 8ull, 16ull}) {
    EXPECT_EQ(UpdateWireCodec::PackedFrameBytes(dst.size(), sizer.varint_bytes(), vb),
              UpdateWireCodec::PackedFrameBytes(dst.data(),
                                                static_cast<uint32_t>(dst.size()), vb));
    EXPECT_EQ(UpdateWireCodec::WireBytes(dst.size(), sizer.varint_bytes(), 8 + vb, vb),
              std::min(UpdateWireCodec::PackedFrameBytes(
                           dst.data(), static_cast<uint32_t>(dst.size()), vb),
                       dst.size() * (8 + vb)));
  }
}

TEST(UpdateWireCodecTest, ZigZagVarintPrimitives) {
  for (const int64_t v : {0ll, 1ll, -1ll, 63ll, -64ll, 1ll << 40, -(1ll << 40)}) {
    EXPECT_EQ(UpdateWireCodec::UnZigZag(UpdateWireCodec::ZigZag(v)), v);
  }
  EXPECT_EQ(UpdateWireCodec::VarintLen(0), 1u);
  EXPECT_EQ(UpdateWireCodec::VarintLen(127), 1u);
  EXPECT_EQ(UpdateWireCodec::VarintLen(128), 2u);
  EXPECT_EQ(UpdateWireCodec::VarintLen(~0ull), 10u);
}

// VarintLen's closed form against the byte-at-a-time loop it replaced and
// against the bytes Encode() really writes, on both sides of every 7-bit
// boundary: 2^(7k) - 1 is the widest k-byte value, 2^(7k) the narrowest
// (k + 1)-byte one.
TEST(UpdateWireCodecTest, VarintLenMatchesLoopAndEncodeAtEveryBoundary) {
  auto loop_len = [](uint64_t v) {
    uint32_t len = 1;
    while (v >= 0x80) {
      v >>= 7;
      ++len;
    }
    return len;
  };
  std::vector<uint64_t> probes = {~0ull, ~0ull - 1, 1ull << 63};
  for (uint32_t k = 0; k <= 9; ++k) {
    const uint64_t edge = k == 0 ? 1 : 1ull << (7 * k);
    probes.push_back(edge - 1);
    probes.push_back(edge);
  }
  for (const uint64_t v : probes) {
    EXPECT_EQ(UpdateWireCodec::VarintLen(v), loop_len(v)) << v;
    // A one-record frame with no value column: format byte + one varint of
    // ZigZag(dst - 0).
    const uint64_t dst = static_cast<uint64_t>(UpdateWireCodec::UnZigZag(v));
    const uint8_t no_values = 0;
    std::vector<uint8_t> frame;
    UpdateWireCodec::Encode(&dst, &no_values, 1, 0, &frame);
    EXPECT_EQ(frame.size(), 1 + UpdateWireCodec::VarintLen(v)) << v;
  }
}

// Regression for the 1B-edge regime: the per-link byte accumulators must be
// 64-bit. Fast-forward a link past 2^32 and check nothing wraps.
TEST(NetworkTest, ByteCountersSurvivePast32Bits) {
  Simulator sim;
  Network net(&sim, 2, TestConfig());
  const uint64_t step = 3ull << 30;  // 3 GiB per note
  for (int i = 0; i < 3; ++i) {
    net.NoteSent(0, step);
    net.NoteReceived(1, step);
  }
  EXPECT_EQ(net.bytes_sent(0), 9ull << 30);  // 9 GiB > 2^32
  EXPECT_EQ(net.bytes_received(1), 9ull << 30);
  EXPECT_EQ(net.total_bytes(), 9ull << 30);
  EXPECT_GT(net.total_bytes(), uint64_t{1} << 32);
}

}  // namespace
}  // namespace chaos
