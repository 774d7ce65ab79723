// Page-location directories (section 4.1).
//
// * The page-ownership-directory (POD) maps a UID to the node storing the
//   GCD section for that page. It is replicated on every node and rebuilt by
//   the master only on membership changes — the level of indirection that
//   lets nodes come and go without changing the hash function.
// * The global-cache-directory (GCD) is a cluster-wide hash table, each node
//   storing one partition, mapping a UID to the node(s) caching the page.
//
// Per the paper, a non-shared page's GCD entry always lives on the node using
// the page (so the common fault path needs no extra network hop); shared
// (file-backed) pages hash through the POD.
#ifndef SRC_CORE_DIRECTORY_H_
#define SRC_CORE_DIRECTORY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/node_id.h"
#include "src/common/uid.h"
#include "src/core/messages.h"

namespace gms {

// Simulated address plan: node i has IP 10.0.x.y derived from its id, and
// every node's private swap lives on partition 0 of its own disk. Shared
// files live on partitions >= 1 (e.g. an NFS server's exported volume).
constexpr uint32_t IpOfNode(NodeId node) { return 0x0a000000u + node.value; }
constexpr NodeId NodeOfIp(uint32_t ip) { return NodeId{ip - 0x0a000000u}; }
constexpr uint16_t kSwapPartition = 0;
constexpr uint16_t kFilePartition = 1;

// A page is "potentially shared" iff it is file-backed; anonymous swap pages
// are private to the node whose swap backs them.
constexpr bool IsShared(const Uid& uid) { return uid.partition() != kSwapPartition; }

// Anonymous (VM) page: backed by `node`'s swap partition; `region`
// distinguishes address spaces (a process id analogue).
constexpr Uid MakeAnonUid(NodeId node, uint64_t region, uint32_t vpn) {
  return MakeUid(IpOfNode(node), kSwapPartition, region, vpn);
}

// File page: backed by inode `inode` on `server`'s exported partition.
constexpr Uid MakeFileUid(NodeId server, uint64_t inode, uint32_t page_offset) {
  return MakeUid(IpOfNode(server), kFilePartition, inode, page_offset);
}

// Linear disk address of a page, preserving within-file sequentiality so the
// disk model's readahead behaves like OSF/1 block clustering.
constexpr uint64_t DiskBlockOf(const Uid& uid) {
  return (uid.inode() << 22) | uid.page_offset();
}

// A node's view of the POD: a shared, read-only table. The master builds one
// table per reconfiguration and every node adopts the same copy, so a
// cluster holds one N-entry live list per membership version, not N of them.
class Pod {
 public:
  static constexpr uint32_t kNumBuckets = 128;

  Pod();

  // Deterministically assigns buckets across the live set. Stable in the
  // sense that the mapping depends only on (version, live set). The returned
  // table's `live` list is sorted by id.
  static PodTable Build(uint64_t version, std::vector<NodeId> live);

  void Adopt(std::shared_ptr<const PodTable> table) {
    table_ = std::move(table);
  }
  void Adopt(PodTable table) {
    Adopt(std::make_shared<const PodTable>(std::move(table)));
  }
  const PodTable& table() const { return *table_; }
  const std::shared_ptr<const PodTable>& shared_table() const { return table_; }
  uint64_t version() const { return table_->version; }

  // O(log N): binary search of the sorted live list.
  bool IsLive(NodeId node) const;

  // The node holding the GCD entry for this page. `self` is the node asking;
  // for private pages the answer is the page's backing node (which is the
  // only node that ever faults on it).
  NodeId GcdNodeFor(const Uid& uid) const;

 private:
  std::shared_ptr<const PodTable> table_;
};

// One node's partition of the global-cache-directory, plus (for private
// pages) that node's own entries. Holder lists are tiny: a global page has
// exactly one holder; a shared page has one holder per caching node.
class GcdTable {
 public:
  struct Holder {
    NodeId node;
    bool global = false;
  };
  struct Entry {
    std::vector<Holder> holders;
  };

  // Applies a mutation. kReplace removes any existing global holder and adds
  // `node` as the (single) global holder. Removing the last holder erases
  // the entry.
  void Apply(const GcdUpdate& update);

  // Best node to ask for the page: the global copy if one exists, else any
  // local holder, excluding `exclude` (the requester itself — its own copy
  // is what is missing/being replaced). Returns nullopt on miss.
  std::optional<Holder> Pick(const Uid& uid, NodeId exclude) const;

  const Entry* Lookup(const Uid& uid) const;
  bool HasDuplicate(const Uid& uid) const;
  size_t size() const { return map_.size(); }

  // Pre-sizes the hash table from the configured memory size so warm-up
  // (every frame in the cluster registering a page) never rehashes.
  void Reserve(size_t expected_entries) { map_.reserve(expected_entries); }

  // Visits every entry (used by the cluster invariant checker).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [uid, entry] : map_) {
      fn(uid, entry);
    }
  }

  // Drops entries whose GCD ownership moved away from `self` (after a POD
  // redistribution) or whose holders are all dead.
  void Prune(const Pod& pod, NodeId self);

 private:
  std::unordered_map<Uid, Entry> map_;
};

}  // namespace gms

#endif  // SRC_CORE_DIRECTORY_H_
