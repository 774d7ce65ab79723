#include "src/net/network.h"
#include <cstdio>
#include <cstdlib>

#include <algorithm>
#include <cassert>
#include <utility>

namespace gms {

namespace {

constexpr uint64_t LinkKey(NodeId src, NodeId dst) {
  return (static_cast<uint64_t>(src.value) << 32) | dst.value;
}

// Splitmix64-style seed mixer (same construction Cluster uses to derive
// per-node workload seeds): decorrelates the per-source fault streams.
uint64_t MixFaultSeed(uint64_t seed, uint64_t salt) {
  uint64_t x = seed ^ (salt * 0x9e3779b97f4a7c15ull);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  return x;
}

}  // namespace

Network::Network(Simulator* sim, uint32_t num_nodes, NetworkParams params)
    : sim_(sim), params_(params), endpoints_(num_nodes) {}

void Network::Attach(NodeId node, DatagramHandler handler) {
  endpoints_.at(node.value).handler = std::move(handler);
}

SimTime Network::TransferLatency(uint32_t bytes) const {
  return params_.fixed_latency + params_.per_byte * bytes;
}

void Network::EnableFaultInjection(uint64_t seed) {
  faults_enabled_ = true;
  // One stream per source node: a node's fault draws depend only on its own
  // send history, never on other nodes' traffic, so faults are not
  // correlated across nodes.
  fault_rngs_.clear();
  fault_rngs_.reserve(endpoints_.size());
  for (uint32_t src = 0; src < endpoints_.size(); ++src) {
    fault_rngs_.emplace_back(MixFaultSeed(seed, src));
  }
}

void Network::SetLinkFaults(NodeId src, NodeId dst, const FaultSpec& spec) {
  link_faults_[LinkKey(src, dst)] = spec;
}

const FaultSpec& Network::FaultsFor(NodeId src, NodeId dst) const {
  if (!link_faults_.empty()) {
    auto it = link_faults_.find(LinkKey(src, dst));
    if (it != link_faults_.end()) {
      return it->second;
    }
  }
  return default_faults_;
}

void Network::SchedulePartition(SimTime start, SimTime duration,
                                std::vector<NodeId> island) {
  // Each partition claims one bit; island members toggle it while the
  // partition is active, so membership of *different* sides shows up as a
  // bit mismatch. 32 concurrent partitions is far beyond any schedule.
  const uint32_t bit = 1u << (next_partition_bit_++ % 32);
  sim_->At(start, [this, island, bit] {
    for (NodeId node : island) {
      endpoints_.at(node.value).partition_bits ^= bit;
    }
  });
  sim_->At(start + duration, [this, island = std::move(island), bit] {
    for (NodeId node : island) {
      endpoints_.at(node.value).partition_bits ^= bit;
    }
  });
}

bool Network::Partitioned(NodeId src, NodeId dst) const {
  return endpoints_.at(src.value).partition_bits !=
         endpoints_.at(dst.value).partition_bits;
}

void Network::ScheduleDelivery(Datagram&& dgram, SimTime arrival) {
  in_flight_++;
  const uint32_t dst_ctx = dgram.dst.value + 1;
  auto deliver = [this, dgram = std::move(dgram)]() mutable {
    in_flight_--;
    Endpoint& dst = endpoints_[dgram.dst.value];
    if (!dst.up || !dst.handler) {
      // Went down (or was never attached) while the message was on the
      // wire; sender-side timeouts recover.
      fault_stats_.drops_dst_down.Add(dgram.bytes);
      return;
    }
    dst.rx.Add(dgram.bytes);
    dst.handler(std::move(dgram));
  };
  // A delivery closure must stay inline in the event queue: this is the
  // per-message hot path.
  static_assert(EventFn::kFitsInline<decltype(deliver)>);
  // Delivery executes in the destination node's context.
  sim_->AtContext(dst_ctx, arrival, std::move(deliver));
}

void Network::Send(Datagram dgram) {
  assert(dgram.src.valid() && dgram.dst.valid());
  if (dgram.dst.value >= endpoints_.size()) {
    std::fprintf(stderr, "BAD SEND: src=%u dst=%u type=%u\n", dgram.src.value,
                 dgram.dst.value, dgram.type);
    std::abort();
  }
  Endpoint& src = endpoints_[dgram.src.value];
  if (!src.up) {
    fault_stats_.sends_blocked_src_down.Add(dgram.bytes);
    return;
  }
  // The switch drops traffic for a down port immediately; a node that comes
  // back up does not receive packets addressed to it while it was down.
  if (!endpoints_[dgram.dst.value].up) {
    if (dgram.src != dgram.dst) {
      src.tx.Add(dgram.bytes);
      total_traffic_.Add(dgram.bytes);
      fault_stats_.drops_dst_down.Add(dgram.bytes);
    }
    return;
  }

  if (dgram.src == dgram.dst) {
    // Loopback: no wire, no latency, immune to fault injection, but still
    // delivered asynchronously so handlers never re-enter their caller.
    in_flight_++;
    auto loopback = [this, dgram = std::move(dgram)]() mutable {
      in_flight_--;
      Endpoint& dst = endpoints_[dgram.dst.value];
      if (dst.up && dst.handler) {
        dst.handler(std::move(dgram));
      }
    };
    static_assert(EventFn::kFitsInline<decltype(loopback)>);
    sim_->After(0, std::move(loopback));
    return;
  }

  src.tx.Add(dgram.bytes);
  total_traffic_.Add(dgram.bytes);
  if (dgram.type < kMaxTypes) {
    type_traffic_[dgram.type].Add(dgram.bytes);
  }
  // Traced exactly where tx accounting happens, so a trace-derived traffic
  // curve (tools/trace_stats.py) agrees with the Figure 11 byte counters.
  TraceEventRaw(tracer_, sim_->now(), dgram.src, TraceEventKind::kNetSend,
                dgram.dst.value, dgram.type, dgram.bytes);

  // An active partition discards the message in the switch, after it
  // consumed the sender's egress link.
  if (Partitioned(dgram.src, dgram.dst)) {
    const SimTime serialize = params_.egress_per_byte * dgram.bytes;
    src.egress_free_at = std::max(sim_->now(), src.egress_free_at) + serialize;
    fault_stats_.drops_partition.Add(dgram.bytes);
    return;
  }

  // Egress serialization: the message occupies the sender's link for
  // bytes * egress_per_byte starting when the link is free.
  // Wire-rate serialization occupies the egress link; the remaining
  // store-and-forward and controller time (TransferLatency minus the wire
  // portion) is pure pipeline latency, so back-to-back sends still achieve
  // full link throughput.
  const SimTime serialize = params_.egress_per_byte * dgram.bytes;
  const SimTime start = std::max(sim_->now(), src.egress_free_at);
  src.egress_free_at = start + serialize;
  const SimTime pipeline = TransferLatency(dgram.bytes) - serialize;
  SimTime arrival = src.egress_free_at + (pipeline > 0 ? pipeline : 0);

  if (faults_enabled_) {
    const FaultSpec& spec = FaultsFor(dgram.src, dgram.dst);
    if (spec.active()) {
      // Fixed draw order on the sender's own stream keeps runs reproducible
      // regardless of which probabilities are zero — and independent of
      // other nodes' traffic.
      Rng& rng = fault_rngs_[dgram.src.value];
      if (rng.NextBool(spec.drop)) {
        fault_stats_.drops_injected.Add(dgram.bytes);
        return;
      }
      if (spec.delay_jitter > 0) {
        const SimTime extra = static_cast<SimTime>(
            rng.NextBelow(static_cast<uint64_t>(spec.delay_jitter) + 1));
        if (extra > 0) {
          fault_stats_.delays_injected.Add(dgram.bytes);
          arrival += extra;
        }
      }
      if (rng.NextBool(spec.reorder)) {
        // Hold the message back long enough that back-to-back traffic on the
        // same link overtakes it.
        fault_stats_.reorders_injected.Add(dgram.bytes);
        arrival += TransferLatency(dgram.bytes) *
                   static_cast<SimTime>(1 + rng.NextBelow(3));
      }
      if (rng.NextBool(spec.duplicate)) {
        fault_stats_.duplicates_injected.Add(dgram.bytes);
        const SimTime skew = static_cast<SimTime>(
            rng.NextBelow(static_cast<uint64_t>(params_.fixed_latency) + 1));
        ScheduleDelivery(Datagram(dgram), arrival + skew);
      }
    }
  }

  ScheduleDelivery(std::move(dgram), arrival);
}

void Network::SetNodeUp(NodeId node, bool up) {
  endpoints_.at(node.value).up = up;
}

bool Network::IsNodeUp(NodeId node) const {
  return endpoints_.at(node.value).up;
}

const Counter& Network::node_tx(NodeId node) const {
  return endpoints_.at(node.value).tx;
}

const Counter& Network::node_rx(NodeId node) const {
  return endpoints_.at(node.value).rx;
}

void Network::ResetStats() {
  // in_flight_ survives a reset: it tracks live messages, not accumulated
  // traffic.
  total_traffic_ = Counter{};
  type_traffic_ = {};
  fault_stats_ = NetworkFaultStats{};
  for (auto& e : endpoints_) {
    e.tx = Counter{};
    e.rx = Counter{};
  }
}

}  // namespace gms
