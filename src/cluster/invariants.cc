#include "src/cluster/invariants.h"

#include <map>
#include <sstream>

#include "src/core/directory.h"

namespace gms {

std::string InvariantReport::ToString() const {
  std::ostringstream out;
  for (const auto& v : violations) {
    out << "VIOLATION: " << v << "\n";
  }
  for (const auto& w : warnings) {
    out << "warning: " << w << "\n";
  }
  return out.str();
}

InvariantReport ClusterInvariantChecker::Check(Cluster& cluster,
                                               const Options& opts) {
  InvariantReport report;
  auto fail = [&](std::string s) { report.violations.push_back(std::move(s)); };
  auto warn = [&](std::string s) { report.warnings.push_back(std::move(s)); };

  const uint32_t n = cluster.num_nodes();
  std::vector<GmsAgent*> agents(n, nullptr);
  for (uint32_t i = 0; i < n; i++) {
    GmsAgent* agent = cluster.gms_agent(NodeId{i});
    if (agent != nullptr && agent->alive()) {
      agents[i] = agent;
    }
  }

  // 1. Single-global-copy: census the frame tables themselves (ground truth,
  // not directory claims). std::map keeps the report deterministic.
  std::map<Uid, std::vector<uint32_t>> global_copies;
  for (uint32_t i = 0; i < n; i++) {
    if (agents[i] == nullptr) {
      continue;
    }
    cluster.frames(NodeId{i}).ForEach([&](const Frame& f) {
      report.frames_checked++;
      if (f.location() == PageLocation::kGlobal) {
        global_copies[f.uid()].push_back(i);
      }
    });
  }
  for (const auto& [uid, holders] : global_copies) {
    if (holders.size() > opts.max_global_copies) {
      std::ostringstream out;
      out << "page " << uid.ToString() << " has " << holders.size()
          << " global copies (max " << opts.max_global_copies << "): nodes";
      for (uint32_t h : holders) {
        out << " " << h;
      }
      fail(out.str());
    }
  }

  // 2. Directory entries: every holder must be a live node; a live holder
  // that no longer caches the page is a (counted) stale hint. Entries parked
  // on a node the POD no longer maps them to are counted as misplaced.
  uint64_t misplaced_entries = 0;
  for (uint32_t i = 0; i < n; i++) {
    if (agents[i] == nullptr) {
      continue;
    }
    const Pod& pod = agents[i]->pod();
    agents[i]->gcd().ForEach([&](const Uid& uid, const GcdTable::Entry& entry) {
      if (pod.GcdNodeFor(uid) != NodeId{i}) {
        misplaced_entries++;
      }
      for (const GcdTable::Holder& h : entry.holders) {
        report.entries_checked++;
        if (!pod.IsLive(h.node) || h.node.value >= n ||
            agents[h.node.value] == nullptr) {
          std::ostringstream out;
          out << "gcd on node " << i << ": " << uid.ToString()
              << " lists holder node " << h.node.value
              << ", which is not a live member";
          fail(out.str());
          continue;
        }
        const Frame* f = cluster.frames(h.node).Lookup(uid);
        if (f == nullptr || (h.global && f->location() != PageLocation::kGlobal)) {
          report.stale_hints++;
        }
      }
    });
  }
  if (misplaced_entries > 0) {
    std::ostringstream out;
    out << misplaced_entries
        << " gcd entries parked on nodes the pod no longer maps them to";
    warn(out.str());
  }

  // 3. Reachability: every cached page should be listed with its GCD owner.
  // A clean unlisted page is wasted memory (disk still has it) — counted. A
  // dirty global unlisted page is unreachable data nobody will write back.
  for (uint32_t i = 0; i < n; i++) {
    if (agents[i] == nullptr) {
      continue;
    }
    const Pod& pod = agents[i]->pod();
    cluster.frames(NodeId{i}).ForEach([&](const Frame& f) {
      if (f.pinned()) {
        return;  // mid-fault or mid-transfer; not yet registered
      }
      const NodeId owner = pod.GcdNodeFor(f.uid());
      bool listed = false;
      if (owner.value < n && agents[owner.value] != nullptr) {
        if (const GcdTable::Entry* entry =
                agents[owner.value]->gcd().Lookup(f.uid())) {
          for (const GcdTable::Holder& h : entry->holders) {
            if (h.node == NodeId{i}) {
              listed = true;
              break;
            }
          }
        }
      }
      if (listed) {
        return;
      }
      if (f.dirty() && f.location() == PageLocation::kGlobal) {
        std::ostringstream out;
        out << "dirty global page " << f.uid().ToString() << " on node " << i
            << " is unreachable: no gcd entry on owner " << owner.value;
        fail(out.str());
      } else {
        report.unlisted_frames++;
      }
    });
  }

  // Bounded staleness: hints and unlisted clean pages self-heal on the next
  // touch, but a flood of them means the directory protocol is broken.
  const uint64_t checked = report.entries_checked + report.frames_checked;
  const uint64_t stale = report.stale_hints + report.unlisted_frames;
  const uint64_t allowed =
      static_cast<uint64_t>(opts.stale_tolerance *
                            static_cast<double>(checked)) + 2;
  if (stale > allowed) {
    std::ostringstream out;
    out << stale << " stale directory entries (" << report.stale_hints
        << " hints + " << report.unlisted_frames << " unlisted frames) exceed "
        << allowed << " allowed over " << checked << " checked";
    fail(out.str());
  } else if (stale > 0) {
    std::ostringstream out;
    out << stale << " stale directory entries within tolerance ("
        << report.stale_hints << " hints, " << report.unlisted_frames
        << " unlisted frames)";
    warn(out.str());
  }

  // 4. Traffic conservation: everything transmitted was either delivered or
  // counted as dropped; duplicates account for the extra deliveries.
  Network& net = cluster.net();
  if (net.in_flight() != 0) {
    std::ostringstream out;
    out << "not quiescent: " << net.in_flight() << " datagrams in flight";
    fail(out.str());
  }
  Counter tx_sum;
  Counter rx_sum;
  for (uint32_t i = 0; i < n; i++) {
    tx_sum.Merge(net.node_tx(NodeId{i}));
    rx_sum.Merge(net.node_rx(NodeId{i}));
  }
  const NetworkFaultStats& fs = net.fault_stats();
  const Counter drops = fs.drops_total();
  const uint64_t sent_events = tx_sum.events + fs.duplicates_injected.events;
  const uint64_t acct_events = rx_sum.events + drops.events;
  const uint64_t sent_bytes = tx_sum.bytes + fs.duplicates_injected.bytes;
  const uint64_t acct_bytes = rx_sum.bytes + drops.bytes;
  if (sent_events != acct_events || sent_bytes != acct_bytes) {
    std::ostringstream out;
    out << "traffic imbalance: tx+dup = " << sent_events << " msgs/"
        << sent_bytes << " B, rx+drops = " << acct_events << " msgs/"
        << acct_bytes << " B";
    fail(out.str());
  }

  // 5. Far-memory tiers: a far copy coexisting with a same-node RAM copy is
  // legal-but-wasteful under exclusive promotion (the fill's evict only
  // lands with the transfer), so flag a flood of them as a warning. (A tier
  // over its capacity cannot happen: FarMemoryTier asserts it itself.)
  uint64_t far_overlaps = 0;
  for (uint32_t i = 0; i < n; i++) {
    const FarMemoryTier* far = cluster.far_tier(NodeId{i});
    if (far == nullptr) {
      continue;
    }
    cluster.frames(NodeId{i}).ForEach([&](const Frame& f) {
      if (!f.pinned() && far->Holds(f.uid())) {
        far_overlaps++;
      }
    });
  }
  if (far_overlaps > 2) {
    std::ostringstream out;
    out << far_overlaps
        << " pages cached in both RAM and the same node's far tier";
    warn(out.str());
  }

  // 6. POD agreement (heals on the next membership change — warning only).
  uint64_t vmin = UINT64_MAX;
  uint64_t vmax = 0;
  for (uint32_t i = 0; i < n; i++) {
    if (agents[i] == nullptr) {
      continue;
    }
    const uint64_t v = agents[i]->pod().version();
    vmin = std::min(vmin, v);
    vmax = std::max(vmax, v);
  }
  if (vmin != vmax) {
    std::ostringstream out;
    out << "pod versions disagree across live nodes: " << vmin << ".." << vmax;
    warn(out.str());
  }

  return report;
}

}  // namespace gms
