// EnsemblePolicy: expert-ensemble replacement over ghost caches, after EEvA
// (arXiv:2405.00154) — instead of committing to one fixed heuristic, run
// several candidate replacement rules as zero-cost simulations and let the
// observed reference stream decide, online, which one to trust.
//
// Three ghost caches (src/mem/ghost_cache.h), each sized like the node's
// frame table, replay the node's fault stream under LRU, LFU, and MRU
// replacement. Every fault scores each expert: resident in the ghost = the
// expert would have kept the page = loss 0; absent = loss 1. Weights follow
// the multiplicative-weights (Hedge) rule, w_i <- w_i * exp(-eta * loss_i),
// renormalized each step — so the ensemble's expected loss is provably
// within (eta * L_best + ln 3) / (1 - e^-eta) of the best expert's loss on
// ANY stream (the bounded-regret property tests/ensemble_policy_test.cc
// asserts on random traces), and the weights concentrate on whichever
// expert fits the current workload phase, re-adapting when the phase
// changes.
//
// The weighted vote drives the cluster-memory decision on eviction. Ghosts
// are sized `ghost_scale`x the frame table — they simulate the node's share
// of CLUSTER memory, not local memory, so each expert answers "would my rule
// still hold this page if the cluster's idle frames backed it". The recency
// experts (LRU, MRU) vote "keep" when the evicted page is resident in their
// ghost; the LFU expert additionally demands frequency >= lfu_min_freq — a
// once-touched page is, to LFU, the first thing it would evict, so residency
// alone is not an endorsement. The page is forwarded to a random peer when
// the weighted keep-vote clears `forward_vote`, otherwise it drops to disk.
// The split matters on phase changes: during a one-pass scan the junk pages
// carry only the recency endorsement (~half the weight in the usual
// LRU/LFU regime) and get dropped, while the displaced hot pages carry both
// endorsements and get forwarded — so the donors' copy of the hot set
// survives a scan that would flood an unconditional forwarder. The LFU
// ghost's saturating count rides in PutPage::freq so receivers can rank
// victims: an arriving page displaces the oldest clean global page it
// outranks.
//
// Steady-state allocation-free: ghosts are preallocated in OnStart, the
// weight update is arithmetic over a fixed 3-element array, and the
// eviction/absorption paths reuse the engine's allocation-free machinery
// (held to zero allocations in tests/alloc_test.cc).
#ifndef SRC_CORE_ENSEMBLE_POLICY_H_
#define SRC_CORE_ENSEMBLE_POLICY_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/core/cache_engine.h"
#include "src/mem/ghost_cache.h"

namespace gms {

struct EnsembleConfig {
  CostModel costs;
  // Ghost capacity per expert; 0 = ghost_scale x the node's frame count.
  uint32_t ghost_capacity = 0;
  // With ghost_capacity == 0, ghosts are sized ghost_scale x the frame
  // table: each expert simulates holding this node's likely share of
  // cluster memory, so residency means "worth a peer's idle frame", not
  // "worth a local frame" (a page evicted locally is by definition not
  // worth a local frame).
  double ghost_scale = 4.0;
  // Multiplicative-weights learning rate. Higher adapts faster to phase
  // changes but bounds regret more loosely.
  double eta = 0.05;
  // Weighted keep-vote needed to forward an evicted page instead of
  // dropping it to disk. 0.55 demands more than the recency endorsement
  // alone in the common half-LRU/half-LFU regime — one-pass scan pages
  // (recent but never re-referenced) fall short and drop to disk, while
  // anything the frequency expert also endorses clears the bar.
  double forward_vote = 0.55;
  // Minimum LFU-ghost frequency for the LFU expert's keep endorsement.
  uint8_t lfu_min_freq = 2;
};

class EnsemblePolicy final : public ReplacementPolicy {
 public:
  // Expert order in every array below.
  static constexpr size_t kExperts = 3;
  static constexpr std::array<GhostKind, kExperts> kExpertKinds = {
      GhostKind::kLru, GhostKind::kLfu, GhostKind::kMru};

  explicit EnsemblePolicy(uint64_t seed, EnsembleConfig config = {})
      : config_(config), rng_(seed) {
    weights_.fill(1.0 / kExperts);
    losses_.fill(0);
  }

  // --- ReplacementPolicy ---
  void OnStart() override;
  void EvictClean(Frame* frame) override;
  bool HandleMessage(Datagram& dgram) override;
  bool WantsFaultEvents() const override { return true; }
  void OnPageFault(const Uid& uid) override;

  // --- introspection (tests, tournament harness) ---
  const std::array<double, kExperts>& weights() const { return weights_; }
  // Cumulative 0/1 loss per expert (misses in its ghost).
  const std::array<uint64_t, kExperts>& expert_losses() const {
    return losses_;
  }
  // Cumulative expected loss of the ensemble: sum over references of the
  // weighted expert losses at the pre-update weights.
  double expected_loss() const { return expected_loss_; }
  uint64_t references() const { return references_; }
  uint64_t best_expert_loss() const;
  // The Hedge guarantee: expected_loss() <= RegretBound() on any stream.
  // (eta * L_best + ln K) / (1 - e^-eta), Freund & Schapire '97.
  double RegretBound() const {
    return (config_.eta * static_cast<double>(best_expert_loss()) +
            std::log(static_cast<double>(kExperts))) /
           (1.0 - std::exp(-config_.eta));
  }
  // The LFU expert's saturating frequency estimate (0 when not resident).
  uint8_t Estimate(const Uid& uid) const;
  // The weighted keep-vote EvictClean compares against forward_vote.
  double KeepVote(const Uid& uid) const;

 private:
  void HandlePutPage(const PutPage& msg);
  std::optional<NodeId> RandomTarget();

  EnsembleConfig config_;
  Rng rng_;
  // One ghost per expert, ordered as kExpertKinds; sized in OnStart (the
  // frame table is only known after Bind). Reserved there too, so the
  // steady-state path never grows the vector.
  std::vector<GhostCache> ghosts_;
  std::array<double, kExperts> weights_;
  std::array<uint64_t, kExperts> losses_;
  double expected_loss_ = 0;
  uint64_t references_ = 0;
  double decay_ = 0;  // exp(-eta), precomputed in OnStart
};

}  // namespace gms

#endif  // SRC_CORE_ENSEMBLE_POLICY_H_
