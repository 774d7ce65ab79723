// Windowed time-series over cumulative metrics: the substrate for online
// health monitoring (src/obs/health.h).
//
// The metrics registry exposes monotonic cumulative values (counters, sample
// counts); point-in-time snapshots of those cannot show *temporal* pathology
// — a retry storm is a rate, a flap is a sign alternation, a stale summary
// is a derivative that stopped. These classes turn a stream of cumulative
// samples (taken on the epoch-snapshot timer) into per-window deltas with
// rolling statistics, using fixed-capacity rings preallocated at
// construction so the steady-state sampling path never touches the heap.
//
// Everything here is a pure function of the pushed samples: identical sample
// streams produce identical statistics, so detectors built on top inherit
// the simulator's run-to-run byte-identity.
#ifndef SRC_OBS_TIMESERIES_H_
#define SRC_OBS_TIMESERIES_H_

#include <cstdint>
#include <vector>

#include "src/common/time.h"
#include "src/obs/metrics.h"

namespace gms {

// Sliding window over the per-interval deltas of one cumulative counter.
// Push(now, cumulative) records `cumulative - previous` as the interval's
// delta; the ring keeps the most recent `capacity` deltas with rolling sum
// and sum-of-squares (subtract-on-evict), plus an EWMA over the full delta
// history. The first Push only establishes the baseline and records nothing.
class SlidingWindow {
 public:
  explicit SlidingWindow(uint32_t capacity, double ewma_alpha = 0.3)
      : ring_(capacity > 0 ? capacity : 1), alpha_(ewma_alpha) {}

  void Push(SimTime now, uint64_t cumulative) {
    if (!has_prev_) {
      prev_raw_ = cumulative;
      prev_time_ = now;
      has_prev_ = true;
      return;
    }
    // Counters are monotonic; a reset (value drop) restarts the baseline.
    const double delta = cumulative >= prev_raw_
                             ? static_cast<double>(cumulative - prev_raw_)
                             : 0.0;
    const SimTime interval = now - prev_time_;
    prev_raw_ = cumulative;
    prev_time_ = now;
    const size_t slot = next_ % ring_.size();
    if (count_ == ring_.size()) {
      sum_ -= ring_[slot].delta;
      sum_sq_ -= ring_[slot].delta * ring_[slot].delta;
      span_ -= ring_[slot].interval;
    } else {
      count_++;
    }
    ring_[slot] = Sample{delta, interval};
    next_++;
    sum_ += delta;
    sum_sq_ += delta * delta;
    span_ += interval;
    last_delta_ = delta;
    last_interval_ = interval;
    ewma_ = ewma_samples_ == 0 ? delta : alpha_ * delta + (1 - alpha_) * ewma_;
    ewma_samples_++;
  }

  void Reset() {
    has_prev_ = false;
    count_ = 0;
    next_ = 0;
    sum_ = sum_sq_ = span_ = 0;
    last_delta_ = 0;
    last_interval_ = 0;
    ewma_ = 0;
    ewma_samples_ = 0;
  }

  // Number of deltas currently in the ring (<= capacity).
  uint32_t samples() const { return static_cast<uint32_t>(count_); }
  uint64_t total_samples() const { return ewma_samples_; }

  double last_delta() const { return last_delta_; }
  // Events per simulated second over the last interval alone.
  double last_rate_per_s() const {
    return last_interval_ > 0 ? last_delta_ * 1e9 /
                                    static_cast<double>(last_interval_)
                              : 0;
  }
  // Events per simulated second over the whole ring window.
  double window_rate_per_s() const {
    return span_ > 0 ? sum_ * 1e9 / static_cast<double>(span_) : 0;
  }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0;
  }
  double variance() const {
    if (count_ == 0) {
      return 0;
    }
    const double m = mean();
    const double v = sum_sq_ / static_cast<double>(count_) - m * m;
    return v > 0 ? v : 0;  // clamp float cancellation noise
  }
  double ewma() const { return ewma_; }

 private:
  struct Sample {
    double delta = 0;
    SimTime interval = 0;
  };
  std::vector<Sample> ring_;
  double alpha_;
  bool has_prev_ = false;
  uint64_t prev_raw_ = 0;
  SimTime prev_time_ = 0;
  size_t count_ = 0;   // live samples in the ring
  size_t next_ = 0;    // monotone write cursor
  double sum_ = 0;
  double sum_sq_ = 0;
  SimTime span_ = 0;   // sum of intervals in the ring
  double last_delta_ = 0;
  SimTime last_interval_ = 0;
  double ewma_ = 0;
  uint64_t ewma_samples_ = 0;
};

// Windowed view of a cumulative LatencyHistogram: Push captures the bucket
// deltas since the previous Push, so Quantile answers "the p99 of the
// samples recorded *this interval*" rather than since boot. All state is two
// fixed arrays — no allocation ever.
class LatencyWindow {
 public:
  // Captures the delta since the previous Push (the first Push establishes
  // the baseline with an empty window).
  void Push(const LatencyHistogram& cumulative);

  // Samples recorded during the last captured interval.
  uint64_t count() const { return count_; }

  // The q-th sample quantile of the last interval's deltas; same bucket
  // midpoint estimate as LatencyHistogram::Quantile. 0 on an empty window.
  SimTime Quantile(double q) const;

 private:
  uint64_t prev_[LatencyHistogram::kNumBuckets] = {};
  uint64_t delta_[LatencyHistogram::kNumBuckets] = {};
  uint64_t count_ = 0;
  bool has_prev_ = false;
};

}  // namespace gms

#endif  // SRC_OBS_TIMESERIES_H_
