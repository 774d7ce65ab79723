// Reusable access-pattern primitives. The application models in
// applications.h are compositions of these.
#ifndef SRC_WORKLOAD_PATTERNS_H_
#define SRC_WORKLOAD_PATTERNS_H_

#include <memory>
#include <vector>

#include "src/workload/access_pattern.h"

namespace gms {

// Cyclic sequential scan: pages 0,1,...,n-1,0,1,... for `total_ops` accesses.
class SequentialPattern final : public AccessPattern {
 public:
  SequentialPattern(PageSet set, uint64_t total_ops, SimTime compute,
                    double write_fraction = 0.0);
  std::optional<AccessOp> Next(Rng& rng) override;

 private:
  PageSet set_;
  uint64_t remaining_;
  SimTime compute_;
  double write_fraction_;
  uint64_t position_ = 0;
};

// Uniformly random accesses over the set.
class UniformRandomPattern final : public AccessPattern {
 public:
  UniformRandomPattern(PageSet set, uint64_t total_ops, SimTime compute,
                       double write_fraction = 0.0);
  std::optional<AccessOp> Next(Rng& rng) override;

 private:
  PageSet set_;
  uint64_t remaining_;
  SimTime compute_;
  double write_fraction_;
};

// Zipf-skewed accesses (rank 0 hottest). Ranks are scattered over the set by
// a fixed permutation hash so the hot set is not physically contiguous.
class ZipfPattern final : public AccessPattern {
 public:
  ZipfPattern(PageSet set, uint64_t total_ops, SimTime compute, double theta,
              double write_fraction = 0.0);
  std::optional<AccessOp> Next(Rng& rng) override;

 private:
  PageSet set_;
  uint64_t remaining_;
  SimTime compute_;
  double write_fraction_;
  ZipfSampler zipf_;
};

// Clustered walk: jump to a random page, then run sequentially for a
// geometrically-distributed burst (mean `mean_run`) — pointer-chasing with
// spatial locality (OO7 traversals, VLSI routing).
class ClusteredWalkPattern final : public AccessPattern {
 public:
  // `stride` spaces consecutive pages of a run across the set: 1 keeps runs
  // disk-contiguous (file scans); a large co-prime stride models structures
  // whose logical neighbours are scattered on backing store (heaps, object
  // graphs), defeating disk readahead.
  ClusteredWalkPattern(PageSet set, uint64_t total_ops, SimTime compute,
                       double mean_run, double write_fraction = 0.0,
                       uint64_t stride = 1);
  std::optional<AccessOp> Next(Rng& rng) override;

 private:
  PageSet set_;
  uint64_t remaining_;
  SimTime compute_;
  double mean_run_;
  double write_fraction_;
  uint64_t stride_;
  uint64_t position_ = 0;
  uint64_t run_left_ = 0;
};

// Sliding working set: Zipf-skewed reuse within a window that advances every
// `advance_every` accesses (Render's viewpoint moving through the scene).
class SlidingWindowPattern final : public AccessPattern {
 public:
  SlidingWindowPattern(PageSet set, uint64_t total_ops, SimTime compute,
                       uint64_t window_pages, uint64_t advance_every,
                       double theta = 0.6);
  std::optional<AccessOp> Next(Rng& rng) override;

 private:
  PageSet set_;
  uint64_t remaining_;
  SimTime compute_;
  uint64_t window_pages_;
  uint64_t advance_every_;
  ZipfSampler zipf_;
  uint64_t window_start_ = 0;
  uint64_t since_advance_ = 0;
};

// Runs sub-patterns back to back.
class ChainPattern final : public AccessPattern {
 public:
  explicit ChainPattern(std::vector<std::unique_ptr<AccessPattern>> phases);
  std::optional<AccessOp> Next(Rng& rng) override;

 private:
  std::vector<std::unique_ptr<AccessPattern>> phases_;
  size_t current_ = 0;
};

// Interleaves two sub-patterns: `a_share` of accesses come from A. When one
// side is exhausted the other is drained; finished when both are.
class InterleavePattern final : public AccessPattern {
 public:
  InterleavePattern(std::unique_ptr<AccessPattern> a,
                    std::unique_ptr<AccessPattern> b, double a_share);
  std::optional<AccessOp> Next(Rng& rng) override;

 private:
  std::unique_ptr<AccessPattern> a_;
  std::unique_ptr<AccessPattern> b_;
  double a_share_;
};

// Replays a pre-generated trace (one read back by trace_io.h, for example).
class TracePattern final : public AccessPattern {
 public:
  explicit TracePattern(std::vector<AccessOp> trace);
  std::optional<AccessOp> Next(Rng& rng) override;

 private:
  std::vector<AccessOp> trace_;
  size_t position_ = 0;
};

}  // namespace gms

#endif  // SRC_WORKLOAD_PATTERNS_H_
