// Cluster network model.
//
// Models the paper's environment: a switched, 155 Mb/s DEC AN2 ATM LAN. The
// paper assumes reliability (section 4.3: "we assume that the network is
// reliable ... flow control eliminates cell loss"), and that remains the
// default: with fault injection disabled the model is loss-free and FIFO per
// sender/receiver pair. What the model captures is
//
//   * per-message latency = fixed controller/switch overhead + serialization
//     at the sender's link rate (the paper notes controller latency is
//     comparable to fiber transmission time for large packets),
//   * sender-side link contention (messages serialize on the egress link),
//   * byte- and message-level traffic accounting (Figure 11, Table 5), and
//   * node up/down state: packets to or from a down node are dropped (and
//     counted), which is what forces getpage timeouts and the disk fallback
//     after a crash.
//
// Beyond the paper, a deterministic fault-injection layer can be enabled to
// model an imperfect interconnect: per-link or global drop / duplicate /
// reorder probabilities and delay jitter, plus scripted network partitions.
// All randomness comes from a dedicated seeded Rng, so a faulty run is as
// bit-reproducible as a clean one. Every discarded datagram is counted in
// NetworkFaultStats — nothing vanishes untraced — which gives the cluster
// invariant checker an exact conservation law:
//
//   tx + duplicates_injected == rx + drops_total
//
// Payloads are the closed MessagePayload variant from src/core/messages.h
// (a header-only dependency: the protocol's struct definitions, no protocol
// logic), so a Datagram is one contiguous value with no per-message heap
// allocation.
//
// Each delivery runs in the destination node's simulation context
// (Simulator::AtContext). Fault draws come from one RNG stream per *source
// node*, so a node's fault sequence is a pure function of its own send
// history, not of other nodes' traffic.
#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/common/node_id.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/core/messages.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace gms {

struct Datagram {
  NodeId src;
  NodeId dst;
  uint32_t bytes = 0;  // wire size including headers
  uint32_t type = 0;   // protocol-defined tag, used for per-type accounting
  MessagePayload payload;
};

// Receive handlers take an rvalue reference so delivery does not move the
// datagram across the std::function boundary; the handler moves from it (or
// binds it to a by-value parameter) as it sees fit.
using DatagramHandler = std::function<void(Datagram&&)>;

struct NetworkParams {
  // Fixed per-message overhead: send/receive controllers plus switch.
  SimTime fixed_latency = Microseconds(105);
  // Serialization rate. 155 Mb/s ATM ~= 19.4 bytes/us ~= 51.6 ns/byte; the
  // default of 100 ns/byte additionally folds in the receiving controller's
  // store-and-forward copy, calibrated so an 8 KB transfer costs ~930 us
  // end-to-end and the Table 1 getpage totals land on the paper's values.
  SimTime per_byte = Nanoseconds(100);
  // Egress link rate used for contention (pure wire rate, 51.6 ns/byte).
  SimTime egress_per_byte = Nanoseconds(52);
};

// Fault probabilities for one link (or the whole fabric). A message can be
// independently dropped, duplicated, delayed, and reordered; drop wins (a
// dropped message consumes egress but is never delivered).
struct FaultSpec {
  double drop = 0;       // P(message discarded in the switch)
  double duplicate = 0;  // P(a second copy is delivered)
  double reorder = 0;    // P(message held back so later traffic overtakes it)
  // Extra delivery latency drawn uniformly from [0, delay_jitter].
  SimTime delay_jitter = 0;

  bool active() const {
    return drop > 0 || duplicate > 0 || reorder > 0 || delay_jitter > 0;
  }
};

// Visible accounting for every datagram the network did NOT deliver exactly
// once. drops_total() is the sum of everything transmitted but never
// delivered; sends_blocked_src_down never reached the wire at all.
struct NetworkFaultStats {
  Counter sends_blocked_src_down;  // sender was down: never transmitted
  Counter drops_dst_down;          // destination down (at send or delivery)
  Counter drops_partition;         // discarded by an active partition
  Counter drops_injected;          // discarded by the fault layer
  Counter duplicates_injected;     // extra copies delivered
  Counter reorders_injected;       // held back past later traffic
  Counter delays_injected;         // jittered (still delivered)

  Counter drops_total() const {
    Counter c = drops_dst_down;
    c.Merge(drops_partition);
    c.Merge(drops_injected);
    return c;
  }
};

class Network {
 public:
  Network(Simulator* sim, uint32_t num_nodes, NetworkParams params = {});

  // Registers the receive handler for a node. Must be set before traffic
  // arrives; replacing an existing handler is allowed (used when an agent is
  // rebuilt after a reboot).
  void Attach(NodeId node, DatagramHandler handler);

  // Sends one datagram. Self-sends are delivered through the queue with no
  // wire cost or latency (loopback) and are immune to fault injection.
  // Packets involving a down endpoint are dropped and counted in
  // fault_stats(), like a LAN with an unplugged station.
  void Send(Datagram dgram);

  // Marks a node down/up. Down nodes neither send nor receive.
  void SetNodeUp(NodeId node, bool up);
  bool IsNodeUp(NodeId node) const;

  uint32_t num_nodes() const { return static_cast<uint32_t>(endpoints_.size()); }

  // End-to-end latency for a message of the given size, ignoring contention.
  SimTime TransferLatency(uint32_t bytes) const;

  // --- fault injection ---
  // Arms the fault layer with its own deterministic random stream. Faults
  // apply only after this is called; with it never called the network is the
  // paper's reliable fabric and behaves bit-identically to before the fault
  // layer existed.
  void EnableFaultInjection(uint64_t seed);
  bool fault_injection_enabled() const { return faults_enabled_; }
  // Fabric-wide fault probabilities (used when no link override matches).
  void SetDefaultFaults(const FaultSpec& spec) { default_faults_ = spec; }
  // Directional per-link override, keyed by (src, dst).
  void SetLinkFaults(NodeId src, NodeId dst, const FaultSpec& spec);
  void ClearLinkFaults() { link_faults_.clear(); }
  // Scripted partition: from `start` for `duration`, nodes in `island` are
  // cut off from every node outside it (traffic inside the island, and
  // entirely outside it, still flows). Overlapping partitions compose.
  void SchedulePartition(SimTime start, SimTime duration,
                         std::vector<NodeId> island);
  // True while src and dst are currently on different sides of a partition.
  bool Partitioned(NodeId src, NodeId dst) const;

  // Datagrams handed to delivery events that have not yet fired (or been
  // dropped). Zero means no message is in flight — the network half of a
  // cluster quiesce.
  uint64_t in_flight() const { return in_flight_; }

  // --- accounting ---
  const Counter& total_traffic() const { return total_traffic_; }
  const Counter& node_tx(NodeId node) const;
  const Counter& node_rx(NodeId node) const;
  // Per-type counters (indexed by Datagram::type, up to kMaxTypes).
  static constexpr uint32_t kMaxTypes = 32;
  const Counter& type_traffic(uint32_t type) const {
    return type_traffic_.at(type);
  }
  const NetworkFaultStats& fault_stats() const { return fault_stats_; }
  void ResetStats();

  // Observability: every transmitted (non-loopback) datagram is traced as a
  // kNetSend event at the sender. Null tracer = no tracing.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  struct Endpoint {
    DatagramHandler handler;
    bool up = true;
    SimTime egress_free_at = 0;
    uint32_t partition_bits = 0;  // side markers of active partitions
    Counter tx;
    Counter rx;
  };

  const FaultSpec& FaultsFor(NodeId src, NodeId dst) const;
  void ScheduleDelivery(Datagram&& dgram, SimTime arrival);

  Simulator* sim_;
  NetworkParams params_;
  Tracer* tracer_ = nullptr;
  std::vector<Endpoint> endpoints_;
  uint64_t in_flight_ = 0;
  Counter total_traffic_;
  std::array<Counter, kMaxTypes> type_traffic_;
  NetworkFaultStats fault_stats_;

  bool faults_enabled_ = false;
  std::vector<Rng> fault_rngs_;  // one stream per source node
  FaultSpec default_faults_;
  std::unordered_map<uint64_t, FaultSpec> link_faults_;  // (src<<32)|dst
  uint32_t next_partition_bit_ = 0;
};

}  // namespace gms

#endif  // SRC_NET_NETWORK_H_
