// LocalLruPolicy: no global cache at all — the paper's baseline system
// (section 5.2's "without global memory management"). Every eviction goes to
// disk, every getpage is an instant miss, and no directory state is
// maintained. Proves the ReplacementPolicy seam from the degenerate end; both
// `--policy=local` and `--policy=none` ("native OSF/1") build it.
#ifndef SRC_CORE_LOCAL_LRU_POLICY_H_
#define SRC_CORE_LOCAL_LRU_POLICY_H_

#include "src/core/cache_engine.h"

namespace gms {

class LocalLruPolicy final : public ReplacementPolicy {
 public:
  // The engine short-circuits GetPage to a local miss and skips directory
  // registration entirely.
  bool UsesRemoteCache() const override { return false; }

  void EvictClean(Frame* frame) override {
    // Straight to disk (or the far tier, when one is attached); node-local
    // LRU ordering is the FrameTable's.
    stats().discards_old++;
    MaybeDemoteToFar(*frame);
    frames_->Free(frame);
  }
};

}  // namespace gms

#endif  // SRC_CORE_LOCAL_LRU_POLICY_H_
