#include "src/cluster/chaos_scenario.h"

#include <sstream>

#include "src/workload/patterns.h"

namespace gms {

namespace {

// Re-arms itself every 100 ms, toggling the node's far capacity between the
// full size and half of it. Scheduled inside the node's simulation context so
// the evictions it triggers are ordered with the node's own events.
void ArmFarFluctuation(Cluster* cluster, NodeId node, uint64_t full,
                       uint32_t tick) {
  Simulator& sim = cluster->sim();
  Simulator::ContextScope in_node(sim, node.value + 1);
  // Stagger nodes by 25 ms so capacity cliffs do not land cluster-wide at
  // the same instant.
  const SimTime delay =
      tick == 0 ? Milliseconds(100) + Milliseconds(25) * node.value
                : Milliseconds(100);
  sim.After(delay, [cluster, node, full, tick] {
    cluster->far_tier(node)->SetCapacity(tick % 2 == 0 ? full / 2 : full);
    ArmFarFluctuation(cluster, node, full, tick + 1);
  });
}

}  // namespace

std::unique_ptr<Cluster> BuildChaosCluster(const ChaosCase& chaos,
                                           bool with_partition,
                                           const ObsConfig& obs) {
  ClusterConfig config;
  config.obs = obs;
  config.num_nodes = 4;
  config.policy = chaos.policy;
  config.frames_per_node = {256, 320, 1024, 768};
  config.frames = 256;
  config.seed = chaos.seed;
  config.gms.epoch.t_min = Milliseconds(200);
  config.gms.epoch.t_max = Seconds(2);
  config.gms.epoch.m_min = 16;
  config.gms.epoch.summary_timeout = Milliseconds(100);
  config.gms.epoch.fanout = chaos.epoch_fanout;
  config.gms.retry.enabled = true;
  // Every reliable send must be able to out-wait the partition: 10 attempts
  // at 5/10/20/.../200 ms spacing put several retries past the heal point.
  config.gms.retry.max_attempts = 10;
  config.far.capacity_pages = chaos.far_frames;
  auto cluster = std::make_unique<Cluster>(config);

  Network& net = cluster->net();
  net.EnableFaultInjection(chaos.seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  FaultSpec faults;
  faults.drop = chaos.loss;
  faults.duplicate = chaos.loss / 2;
  faults.reorder = chaos.loss / 2;
  faults.delay_jitter = chaos.loss > 0 ? Microseconds(500) : 0;
  net.SetDefaultFaults(faults);
  if (with_partition) {
    net.SchedulePartition(Milliseconds(300), Milliseconds(250), {NodeId{3}});
  }

  cluster->Start();
  if (chaos.far_frames > 0 && chaos.far_fluctuate) {
    for (uint32_t i = 0; i < config.num_nodes; i++) {
      ArmFarFluctuation(cluster.get(), NodeId{i}, chaos.far_frames, 0);
    }
  }
  cluster->AddWorkload(
      NodeId{0},
      std::make_unique<UniformRandomPattern>(
          PageSet{MakeFileUid(NodeId{0}, 1, 0), 700}, 6000, Microseconds(40),
          /*write_fraction=*/0.1),
      "w0");
  cluster->AddWorkload(
      NodeId{1},
      std::make_unique<InterleavePattern>(
          std::make_unique<SequentialPattern>(
              PageSet{MakeAnonUid(NodeId{1}, 2, 0), 500}, 5000,
              Microseconds(40), 0.3),
          std::make_unique<ZipfPattern>(
              PageSet{MakeFileUid(NodeId{1}, 9, 0), 400}, 5000,
              Microseconds(40), 0.6),
          0.5),
      "w1");
  return cluster;
}

std::string ChaosStatsDump(Cluster& cluster) {
  std::ostringstream out;
  out << "now=" << cluster.sim().now() << "\n";
  const Cluster::Totals t = cluster.totals();
  out << "accesses=" << t.accesses << " local_hits=" << t.local_hits
      << " faults=" << t.faults << " getpage_hits=" << t.getpage_hits
      << " disk_reads=" << t.disk_reads << " disk_writes=" << t.disk_writes
      << " putpages=" << t.putpages_sent << "\n";
  out << "net events=" << t.net_messages << " bytes=" << t.net_bytes << "\n";
  for (uint32_t i = 0; i < cluster.num_nodes(); i++) {
    const MemoryServiceStats& s = cluster.service(NodeId{i}).stats();
    out << "node" << i << " attempts=" << s.getpage_attempts
        << " hits=" << s.getpage_hits << " misses=" << s.getpage_misses
        << " timeouts=" << s.getpage_timeouts
        << " getpage_retries=" << s.getpage_retries
        << " ctl_retries=" << s.control_retries
        << " give_ups=" << s.control_give_ups
        << " dups_dropped=" << s.duplicate_msgs_dropped
        << " putpages=" << s.putpages_sent
        << " received=" << s.putpages_received
        << " bounced=" << s.putpages_bounced
        << " epochs=" << s.epochs_started << "\n";
    // Tier lines only exist when a far tier does, so the tiering-off dump —
    // and the golden hashes over it — stays byte-identical.
    const FarMemoryTier* far = cluster.far_tier(NodeId{i});
    if (far != nullptr) {
      const FarMemoryTier::Stats& f = far->stats();
      out << "node" << i << " far reads=" << f.reads << " writes=" << f.writes
          << " evictions=" << f.evictions
          << " resident=" << far->resident_pages()
          << " fills z/f/d/n=" << s.fills_zero << "/" << s.fills_far << "/"
          << s.fills_disk << "/" << s.fills_nfs
          << " demotions=" << s.demotions_far
          << " promotions=" << s.far_promotions << "\n";
    }
  }
  const NetworkFaultStats& fs = cluster.net().fault_stats();
  out << "faults dropped=" << fs.drops_injected.events << "/"
      << fs.drops_injected.bytes << " partition=" << fs.drops_partition.events
      << "/" << fs.drops_partition.bytes
      << " dup=" << fs.duplicates_injected.events << "/"
      << fs.duplicates_injected.bytes
      << " reorder=" << fs.reorders_injected.events
      << " delay=" << fs.delays_injected.events
      << " dst_down=" << fs.drops_dst_down.events << "\n";
  return out.str();
}

}  // namespace gms
