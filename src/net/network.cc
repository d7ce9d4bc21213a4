#include "net/network.h"

#include <utility>

namespace chaos {

NetworkConfig NetworkConfig::FortyGigE() {
  NetworkConfig c;
  c.nic_bandwidth_bps = 5e9;  // 40 Gbit/s
  c.one_way_latency = 50 * kNsPerUs;
  return c;
}

NetworkConfig NetworkConfig::OneGigE() {
  NetworkConfig c;
  c.nic_bandwidth_bps = 1.25e8;  // 1 Gbit/s
  c.one_way_latency = 50 * kNsPerUs;
  return c;
}

uint64_t UpdateWireCodec::PackedFrameBytes(const uint64_t* dst, uint32_t n,
                                           uint64_t value_bytes) {
  UpdateWireSizer sizer;
  for (uint32_t i = 0; i < n; ++i) {
    sizer.Add(dst[i]);
  }
  return PackedFrameBytes(n, sizer.varint_bytes(), value_bytes);
}

namespace {

void PutVarint(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

uint64_t GetVarint(const uint8_t* in, size_t in_len, size_t* pos) {
  uint64_t v = 0;
  uint32_t shift = 0;
  while (true) {
    CHAOS_CHECK(*pos < in_len);
    const uint8_t b = in[(*pos)++];
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      return v;
    }
    shift += 7;
    CHAOS_CHECK(shift < 64);
  }
}

constexpr uint8_t kPackedUpdateFrame = 1;

}  // namespace

void UpdateWireCodec::Encode(const uint64_t* dst, const uint8_t* values, uint32_t n,
                             uint64_t value_bytes, std::vector<uint8_t>* out) {
  out->push_back(kPackedUpdateFrame);
  uint64_t prev = 0;
  for (uint32_t i = 0; i < n; ++i) {
    PutVarint(ZigZag(static_cast<int64_t>(dst[i] - prev)), out);  // wrapping delta
    prev = dst[i];
  }
  out->insert(out->end(), values, values + n * value_bytes);
}

uint32_t UpdateWireCodec::Decode(const uint8_t* in, size_t in_len, uint64_t value_bytes,
                                 std::vector<uint64_t>* dst,
                                 std::vector<uint8_t>* values) {
  CHAOS_CHECK(in_len >= 1);
  CHAOS_CHECK_EQ(in[0], kPackedUpdateFrame);
  // The value column sits at the tail; its length pins the record count:
  // frame = 1 + varints + n * value_bytes, so walk varints until the
  // remaining bytes are exactly the value column.
  size_t pos = 1;
  uint32_t n = 0;
  uint64_t prev = 0;
  const size_t first_dst = dst->size();
  while (pos + (static_cast<size_t>(n) + 1) * value_bytes <= in_len) {
    // Peek-free: every varint consumed must still leave room for one value
    // per decoded id. Stop once ids and values exactly tile the frame.
    if (pos + static_cast<size_t>(n) * value_bytes == in_len) {
      break;
    }
    const uint64_t delta = GetVarint(in, in_len, &pos);
    prev += static_cast<uint64_t>(UnZigZag(delta));
    dst->push_back(prev);
    ++n;
  }
  CHAOS_CHECK_EQ(pos + static_cast<size_t>(n) * value_bytes, in_len);
  CHAOS_CHECK_EQ(dst->size() - first_dst, n);
  values->insert(values->end(), in + pos, in + in_len);
  return n;
}

Network::Network(Simulator* sim, int machines, const NetworkConfig& config)
    : sim_(sim), machines_(machines), config_(config) {
  CHAOS_CHECK_GT(machines, 0);
  links_.resize(static_cast<size_t>(machines));
  for (int m = 0; m < machines; ++m) {
    links_[static_cast<size_t>(m)].up =
        std::make_unique<FifoResource>(sim, "nic-up-" + std::to_string(m));
    links_[static_cast<size_t>(m)].down =
        std::make_unique<FifoResource>(sim, "nic-down-" + std::to_string(m));
    links_[static_cast<size_t>(m)].bandwidth_bps = config.nic_bandwidth_bps;
  }
}

uint64_t Network::total_bytes() const {
  uint64_t total = 0;
  for (const auto& link : links_) {
    total += link.bytes_sent;
  }
  return total;
}

MessageBus::MessageBus(Simulator* sim, Network* network) : sim_(sim), net_(network) {
  inboxes_.reserve(static_cast<size_t>(network->machines()) * kNumServices);
  for (int m = 0; m < network->machines(); ++m) {
    for (int s = 0; s < kNumServices; ++s) {
      inboxes_.push_back(std::make_unique<SimQueue<Message>>(sim));
    }
  }
}

SimQueue<Message>& MessageBus::Inbox(MachineId machine, int service) {
  CHAOS_CHECK(machine >= 0 && machine < net_->machines());
  CHAOS_CHECK(service >= 0 && service < kNumServices);
  return *inboxes_[static_cast<size_t>(machine) * kNumServices + static_cast<size_t>(service)];
}

void MessageBus::Deliver(Message m) {
  ++delivered_;
  if (m.is_response) {
    auto it = pending_.find(m.rpc_id);
    CHAOS_CHECK_MSG(it != pending_.end(),
                    "response for unknown rpc_id " + std::to_string(m.rpc_id));
    PendingCall* call = it->second;
    pending_.erase(it);
    call->response = std::move(m);
    call->ready = true;
    if (call->waiter) {
      sim_->Resume(call->waiter);
    }
    return;
  }
  Inbox(m.dst, m.service).Push(std::move(m));
}

internal::DetachedTask MessageBus::FinishRemote(Message m, TimeNs extra_latency) {
  co_await sim_->Delay(extra_latency);
  FifoResource& down = net_->Downlink(m.dst);
  TimeNs service = net_->TxTime(m.dst, m.wire_bytes);
  const NetworkConfig& cfg = net_->config();
  if (cfg.model_incast && down.Backlog(sim_->now()) > cfg.incast_backlog_threshold) {
    service += cfg.incast_penalty;
    net_->NoteIncast();
  }
  co_await down.Acquire(service);
  net_->NoteReceived(m.dst, m.wire_bytes);
  Deliver(std::move(m));
}

Task<> MessageBus::Send(Message m) {
  CHAOS_CHECK(m.dst >= 0 && m.dst < net_->machines());
  if (m.src == m.dst) {
    // Same machine: no NIC involvement, just IPC latency.
    co_await sim_->Delay(net_->config().local_latency);
    Deliver(std::move(m));
    co_return;
  }
  net_->NoteSent(m.src, m.wire_bytes);
  co_await net_->Uplink(m.src).Acquire(net_->TxTime(m.src, m.wire_bytes));
  // Propagation and receiver-side work continue without blocking the sender.
  FinishRemote(std::move(m), net_->config().one_way_latency);
}

Task<Message> MessageBus::Call(Message request) {
  CHAOS_CHECK_EQ(request.rpc_id, 0u);
  CHAOS_CHECK(!request.is_response);
  request.rpc_id = next_rpc_id_++;
  PendingCall call;
  pending_.emplace(request.rpc_id, &call);
  co_await Send(std::move(request));
  struct ResponseAwaiter {
    PendingCall* call;
    bool await_ready() const noexcept { return call->ready; }
    void await_suspend(std::coroutine_handle<> h) { call->waiter = h; }
    void await_resume() const noexcept {}
  };
  co_await ResponseAwaiter{&call};
  CHAOS_CHECK(call.ready);
  co_return std::move(call.response);
}

void MessageBus::PostReply(const Message& request, uint32_t type, uint64_t wire_bytes,
                           std::any body) {
  CHAOS_CHECK_NE(request.rpc_id, 0u);
  Message response;
  response.src = request.dst;
  response.dst = request.src;
  response.service = request.service;
  response.rpc_id = request.rpc_id;
  response.is_response = true;
  response.type = type;
  response.wire_bytes = wire_bytes;
  response.body = std::move(body);
  PostSend(std::move(response));
}

}  // namespace chaos
