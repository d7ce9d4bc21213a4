// Simulated cluster network: one NIC (uplink + downlink FIFO resource pair)
// per machine behind a full-bisection switch, plus a message bus with typed
// messages and RPC correlation.
//
// The full-bisection assumption mirrors the paper (§1, §7): the switch is
// never the bottleneck, only per-machine NICs are. An optional incast model
// adds a retransmission penalty when a downlink's backlog exceeds a buffer
// threshold; the paper observes this regime past the batching sweet spot
// (§10.1, Fig. 16).
#ifndef CHAOS_NET_NETWORK_H_
#define CHAOS_NET_NETWORK_H_

#include <any>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/time.h"
#include "util/common.h"

namespace chaos {

struct NetworkConfig {
  double nic_bandwidth_bps = 5e9;            // bytes/sec; 40 GigE ~ 5 GB/s
  TimeNs one_way_latency = 50 * kNsPerUs;    // propagation + stack, one way
  TimeNs local_latency = 5 * kNsPerUs;       // same-machine IPC cost
  bool model_incast = true;
  TimeNs incast_backlog_threshold = 500 * kNsPerUs;  // downlink backlog -> drops
  TimeNs incast_penalty = kNsPerMs;                  // retransmission delay

  // The paper's cluster: 40 GigE links, full bisection (§8).
  static NetworkConfig FortyGigE();
  // The slow-network experiment (§9.4, Fig. 12).
  static NetworkConfig OneGigE();
};

// Columnar wire format for outbound update batches (config wire_combine).
//
// An update batch is logically a sequence of (dst, value) records. The
// combined frame re-encodes it columnar: one format byte, the destination
// ids as zigzag-delta varints (binned batches target one partition, so ids
// cluster and deltas are small — most take 1-2 bytes instead of the
// modeled 4/8-byte id), then the raw values back to back. Pure
// re-encoding: Decode() restores the exact record sequence, so nothing
// downstream — arithmetic order included — can observe the wire format.
// The sender keeps the legacy verbatim frame when packing would not help
// (pathological id sequences), so the combined wire size never exceeds the
// uncombined one; WireBytes() folds that min in.
//
// The simulator's hot path only needs the frame SIZE to charge the NIC
// (payloads are not actually serialized in the DES). UpdateWireSizer
// counts its dst varint bytes incrementally with no allocation. The binner runs it over
// each stage of dst ids as it flushes them, while they are still in L1
// (core/record_binner.h): a parked update chunk carries its varint byte
// count, and the send charges WireBytes() of it in O(1). Encode() and
// Decode() realize the byte format for the exactness tests and any
// host-side use.
class UpdateWireCodec {
 public:
  static uint64_t ZigZag(int64_t v) {
    return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
  }
  static int64_t UnZigZag(uint64_t v) {
    return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }
  // ceil(w / 7) bytes for a w-bit value, at least one. 9 * w / 64 tracks
  // w / 7 closely enough that (9 * w + 64) / 64 is exact for every w in
  // 1..64. In terms of the top set bit t = w - 1 that is (9 * t + 73) / 64;
  // v | 1 maps 0 to t = 0, and 63 ^ countl_zero of a nonzero value is a
  // single bsr on x86-64, with no zero branch.
  static uint32_t VarintLen(uint64_t v) {
    const auto top_bit = 63 ^ static_cast<uint32_t>(std::countl_zero(v | 1));
    return (top_bit * 9 + 73) / 64;
  }

  // Packed frame: flag byte + dst varints + n * value_bytes raw values.
  static uint64_t PackedFrameBytes(uint64_t n, uint64_t varint_bytes, uint64_t value_bytes) {
    return 1 + varint_bytes + n * value_bytes;
  }
  // The same, sizing the varints of an id column.
  static uint64_t PackedFrameBytes(const uint64_t* dst, uint32_t n,
                                   uint64_t value_bytes);

  // Modeled wire bytes for a combined send of n records whose dst ids take
  // varint_bytes as zigzag-delta varints and whose verbatim (uncombined)
  // record width is record_wire_bytes: the packed frame when it wins, the
  // verbatim frame otherwise.
  static uint64_t WireBytes(uint64_t n, uint64_t varint_bytes, uint64_t record_wire_bytes,
                            uint64_t value_bytes) {
    const uint64_t verbatim = n * record_wire_bytes;
    const uint64_t packed = PackedFrameBytes(n, varint_bytes, value_bytes);
    return packed < verbatim ? packed : verbatim;
  }

  // Serializes n records into `out` (appended). `values` is the packed
  // value column, value_bytes per record.
  static void Encode(const uint64_t* dst, const uint8_t* values, uint32_t n,
                     uint64_t value_bytes, std::vector<uint8_t>* out);
  // Inverse of Encode; returns the record count. Appends to dst/values.
  static uint32_t Decode(const uint8_t* in, size_t in_len, uint64_t value_bytes,
                         std::vector<uint64_t>* dst, std::vector<uint8_t>* values);
};

// Incremental dst-varint sizer (the update binner runs it as it flushes):
// feed each destination id, then read the varint byte count; the frame
// size is UpdateWireCodec::PackedFrameBytes of it. No allocation, O(1)
// state.
class UpdateWireSizer {
 public:
  void Add(uint64_t dst) {
    // Wrapping unsigned delta: far-apart ids must not overflow int64_t.
    varint_bytes_ += UpdateWireCodec::VarintLen(
        UpdateWireCodec::ZigZag(static_cast<int64_t>(dst - prev_)));
    prev_ = dst;
  }
  uint64_t varint_bytes() const { return varint_bytes_; }

 private:
  uint64_t prev_ = 0;
  uint64_t varint_bytes_ = 0;
};

// Well-known message bus services (mailboxes) per machine.
enum Service : int {
  kStorageService = 0,
  kComputeService = 1,
  kControlService = 2,
  kDirectoryService = 3,
  kNumServices = 4,
};

struct Message {
  MachineId src = 0;
  MachineId dst = 0;
  int service = kStorageService;
  uint64_t rpc_id = 0;  // nonzero when part of an RPC exchange
  bool is_response = false;
  uint32_t type = 0;        // protocol discriminator, see protocol headers
  uint64_t wire_bytes = 0;  // modeled size on the wire
  std::any body;
};

class Network {
 public:
  Network(Simulator* sim, int machines, const NetworkConfig& config);

  // Time to push `bytes` through the default-speed NIC link.
  TimeNs TxTime(uint64_t bytes) const {
    return TransferTimeNs(bytes, config_.nic_bandwidth_bps);
  }

  // Time to push `bytes` through machine `m`'s NIC (honors per-machine
  // bandwidth overrides in heterogeneous clusters).
  TimeNs TxTime(MachineId m, uint64_t bytes) const {
    return TransferTimeNs(bytes, links_[Index(m)].bandwidth_bps);
  }

  // Overrides one machine's NIC speed (applies to both directions). Static
  // heterogeneity only — call before traffic starts; dynamic mid-run
  // degradation goes through FifoResource::SetRate on the links instead.
  void SetNicBandwidth(MachineId m, double bps) {
    CHAOS_CHECK_GT(bps, 0.0);
    links_[Index(m)].bandwidth_bps = bps;
  }
  double nic_bandwidth(MachineId m) const { return links_[Index(m)].bandwidth_bps; }

  FifoResource& Uplink(MachineId m) { return *links_[Index(m)].up; }
  FifoResource& Downlink(MachineId m) { return *links_[Index(m)].down; }

  const NetworkConfig& config() const { return config_; }
  int machines() const { return machines_; }
  Simulator* sim() const { return sim_; }
  // Allocation counter for the large-N regression tests: per-machine link
  // records only, O(machines) by construction — never per-pair state.
  size_t link_count() const { return links_.size(); }

  uint64_t bytes_sent(MachineId m) const { return links_[Index(m)].bytes_sent; }
  uint64_t bytes_received(MachineId m) const { return links_[Index(m)].bytes_received; }
  uint64_t total_bytes() const;
  uint64_t incast_events() const { return incast_events_; }

  // Accounting hooks used by the bus.
  void NoteSent(MachineId m, uint64_t bytes) { links_[Index(m)].bytes_sent += bytes; }
  void NoteReceived(MachineId m, uint64_t bytes) { links_[Index(m)].bytes_received += bytes; }
  void NoteIncast() { ++incast_events_; }

 private:
  struct Link {
    std::unique_ptr<FifoResource> up;
    std::unique_ptr<FifoResource> down;
    double bandwidth_bps = 0.0;  // per-machine NIC speed (default from config)
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
  };

  size_t Index(MachineId m) const {
    CHAOS_CHECK(m >= 0 && m < machines_);
    return static_cast<size_t>(m);
  }

  Simulator* sim_;
  int machines_;
  NetworkConfig config_;
  std::vector<Link> links_;
  uint64_t incast_events_ = 0;
};

// Message delivery and RPC correlation on top of Network.
//
// Send() returns once the message has left the sender's uplink; propagation
// and the receiver's downlink are charged in the background, after which the
// message lands in the destination mailbox (or resolves a pending RPC).
class MessageBus {
 public:
  MessageBus(Simulator* sim, Network* network);

  SimQueue<Message>& Inbox(MachineId machine, int service);

  // Fire-and-forget variant; the transfer proceeds in the background.
  void PostSend(Message m) { sim_->Spawn(Send(std::move(m))); }

  Task<> Send(Message m);

  // Sends `request` and completes with the matched response.
  Task<Message> Call(Message request);

  // Builds and sends the response for `request`. Fire-and-forget.
  void PostReply(const Message& request, uint32_t type, uint64_t wire_bytes, std::any body);

  uint64_t messages_delivered() const { return delivered_; }
  // Allocation counter for the large-N regression tests: machines *
  // kNumServices mailboxes, O(machines) by construction.
  size_t inbox_count() const { return inboxes_.size(); }

 private:
  struct PendingCall {
    std::coroutine_handle<> waiter;
    Message response;
    bool ready = false;
  };

  void Deliver(Message m);
  internal::DetachedTask FinishRemote(Message m, TimeNs extra_latency);

  Simulator* sim_;
  Network* net_;
  std::vector<std::unique_ptr<SimQueue<Message>>> inboxes_;  // machine * kNumServices
  std::unordered_map<uint64_t, PendingCall*> pending_;
  uint64_t next_rpc_id_ = 1;
  uint64_t delivered_ = 0;
};

}  // namespace chaos

#endif  // CHAOS_NET_NETWORK_H_
