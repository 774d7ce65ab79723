// Online health monitoring: a streaming detector engine over the windowed
// time-series of the metrics registry (src/obs/timeseries.h), plus a
// registry of GMS-specific pathology detectors.
//
// The paper's mechanism runs on *stale* global information — epoch-old age
// summaries steer evictions — so the failure modes that matter are temporal:
// misdirected forwards under stale MinAge, donor/consumer flapping as load
// moves (Figure 8), retry storms under loss, epoch stragglers. A metrics
// snapshot cannot show any of them; a sliding window over snapshot deltas
// shows all of them as they happen.
//
// The engine samples on the cluster's epoch-snapshot timer (a control-
// context event that only reads stats, so sampling cannot perturb the
// simulation). Detection state is preallocated at Bind(); the steady-state
// Sample() path is allocation-free. Every firing appends a HealthIncident to
// a capacity-reserved vector, records a kHealthIncident trace record (so
// incidents land in the Perfetto timeline as instant events), and is a pure
// function of the sampled values — two runs of the same universe produce
// byte-identical reports.
//
// Detection rules come in three streaming shapes, reused by the detectors:
//   * ThresholdRule      — level crossing with hysteresis (fire once per
//                          excursion, re-arm below the re-arm level);
//   * EwmaDeviationRule  — deviation from an exponentially-weighted baseline
//                          by more than k standard deviations;
//   * CusumRule          — one-sided CUSUM change-point accumulation: small
//                          sustained shifts integrate until they cross h.
#ifndef SRC_OBS_HEALTH_H_
#define SRC_OBS_HEALTH_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/node_id.h"
#include "src/common/time.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"

namespace gms {

// ---- streaming rule primitives -------------------------------------------

// Fires once when the value crosses `limit`; re-arms when it falls back to
// `rearm` (defaults to limit/2). Hysteresis keeps a value hovering at the
// limit from firing every window.
struct ThresholdRule {
  double limit = 0;
  double rearm = 0;
  bool armed = true;

  bool Step(double x) {
    if (armed && x > limit) {
      armed = false;
      return true;
    }
    if (!armed && x <= (rearm > 0 ? rearm : limit / 2)) {
      armed = true;
    }
    return false;
  }
};

// Fires when x deviates from the EWMA baseline by more than
// k * max(stddev, floor). The first `warmup` samples only train the
// baseline; the baseline keeps learning after firings (with hysteresis so a
// sustained new level fires once, then becomes the new normal).
struct EwmaDeviationRule {
  double alpha = 0.3;
  double k = 4;
  double floor = 1;  // variance floor: a flat-zero baseline still needs one
  uint32_t warmup = 4;

  double ewma = 0;
  double var = 0;
  uint32_t n = 0;
  bool armed = true;

  bool Step(double x) {
    bool fired = false;
    if (n >= warmup) {
      const double sd = var > floor * floor ? std::sqrt(var) : floor;
      const double dev = x > ewma ? x - ewma : ewma - x;
      if (armed && dev > k * sd) {
        fired = true;
        armed = false;
      } else if (!armed && dev <= k * sd / 2) {
        armed = true;
      }
    }
    const double d = x - ewma;
    ewma += alpha * d;
    var = (1 - alpha) * (var + alpha * d * d);
    n++;
    return fired;
  }
};

// One-sided CUSUM: s accumulates excess over `drift`; fires when s crosses
// `h`, then resets. Catches sustained small shifts a threshold misses.
struct CusumRule {
  double drift = 0;
  double h = 1;
  double s = 0;

  bool Step(double x) {
    s += x - drift;
    if (s < 0) {
      s = 0;
    }
    if (s > h) {
      s = 0;
      return true;
    }
    return false;
  }
};

// ---- incidents -----------------------------------------------------------

// Pathology classes. Values are part of the kHealthIncident record format
// (field `a`): append, never renumber.
enum class IncidentClass : uint16_t {
  kGetpageSlo = 1,  // windowed getpage-hit p99 above the SLO
  kRetryStorm = 2,  // sustained retry rate (CUSUM over retries/s)
  kDupSpike = 3,    // duplicate-delivery rate spiked off its EWMA baseline
  kEpochStale = 4,  // epoch params stopped arriving (summary age >> period)
  kDonorFlap = 5,   // node alternating global-give/global-take across windows
  kThrash = 6,      // forward rate high while the global hit rate collapsed
};
inline constexpr size_t kNumIncidentClasses = 7;  // index by IncidentClass
const char* IncidentClassName(IncidentClass cls);

struct HealthIncident {
  SimTime time = 0;       // detection time (the sample tick)
  uint16_t node = 0;      // offending node
  IncidentClass cls = IncidentClass::kGetpageSlo;
  double value = 0;       // measured statistic that fired the rule
  double threshold = 0;   // the configured limit it violated
};

// ---- configuration -------------------------------------------------------

struct HealthConfig {
  // Sampling cadence when the cluster has no snapshot timer of its own
  // (ObsConfig::snapshot_interval == 0).
  SimTime sample_interval = Milliseconds(100);

  // getpage SLO: windowed p99 of successful getpage latency. A healthy
  // 4-node cluster under full load runs its p99 at 2-3 ms (queueing on the
  // donor's CPU and wire), so the default sits well above that and below
  // the 5-20 ms retry-timeout latencies a lossy network produces.
  SimTime getpage_slo = Milliseconds(10);
  uint64_t slo_min_samples = 16;  // windows with fewer samples are ignored

  // Retry storm: one-sided CUSUM over the per-window *getpage* retry rate
  // (per node, per second). Sustained excess over the drift integrates
  // until it crosses the horizon. Control retransmissions are deliberately
  // excluded: donors under a heavy putpage influx retransmit acks'-worth of
  // control traffic in fault-free runs (ack RTT racing the retry timer), so
  // they are congestion noise, not a loss signal — getpage retries in a
  // clean run are near zero.
  double retry_drift_per_s = 10;
  double retry_cusum_h = 100;

  // Duplicate-delivery spike: EWMA deviation over per-window duplicate
  // drops, with a variance floor so a clean (all-zero) baseline still needs
  // a real burst to fire.
  double dup_ewma_alpha = 0.3;
  double dup_deviation_k = 4;
  double dup_floor = 2;  // deltas per window

  // Epoch staleness: a node whose adopted epoch number has not advanced for
  // `epoch_stale_factor * epoch_period` (and had advanced at least once) is
  // planning evictions from an epoch-old view. The cluster fills in
  // epoch_period from GmsConfig::epoch.t_max when left 0.
  SimTime epoch_period = 0;  // 0 = detector disabled unless filled in
  double epoch_stale_factor = 3;

  // Donor/consumer flap: a node whose net putpage direction (received minus
  // sent, windows with at least flap_min_pages of activity) changes sign
  // `flap_min_alternations` times within `flap_horizon`.
  uint64_t flap_min_pages = 8;
  uint32_t flap_min_alternations = 3;
  SimTime flap_horizon = Seconds(30);

  // Global-cache thrash: forwards leaving a node faster than
  // `thrash_forward_per_s` while its windowed global hit rate sits below
  // `thrash_hit_rate` (with at least thrash_min_attempts in the window) —
  // pumping pages into the cluster that are not coming back as hits.
  double thrash_forward_per_s = 2000;
  double thrash_hit_rate = 0.4;
  uint64_t thrash_min_attempts = 32;

  // Ring capacity of each per-metric sliding window.
  uint32_t window_capacity = 16;
  // Incident storage reserved at Bind(); beyond it firings are counted in
  // incidents_dropped() but not stored (the steady-state path never grows).
  uint32_t max_incidents = 4096;
};

// ---- the monitor ---------------------------------------------------------

class HealthMonitor {
 public:
  HealthMonitor(const MetricsRegistry* registry, uint32_t num_nodes,
                HealthConfig config);

  // Incidents are also recorded as kHealthIncident trace records when a
  // tracer is attached (nullptr = report-only).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Resolves metric names to indices and preallocates every window and rule.
  // Call once, after all metric registration. Returns false when a required
  // metric family is missing (the monitor then runs with the detectors that
  // did bind).
  bool Bind();

  // One detection pass: read the registry, push windows, step rules, record
  // incidents. Allocation-free at steady state. Deterministic: a pure
  // function of the sampled values and times.
  void Sample(SimTime now);

  uint64_t samples() const { return samples_; }
  const std::vector<HealthIncident>& incidents() const { return incidents_; }
  uint64_t incidents_dropped() const { return incidents_dropped_; }
  uint64_t class_count(IncidentClass cls) const {
    return class_counts_[static_cast<size_t>(cls)];
  }

  // Structured report for --health_out: schema, per-class counts, and the
  // full incident list. Deterministic byte-for-byte across identical runs
  // (tools/check_health.py validates it).
  std::string ToJson() const;

 private:
  struct NodeState {
    // Bound metric indices into the registry (SIZE_MAX = unbound).
    size_t idx_getpage_hit_ns = SIZE_MAX;
    size_t idx_getpage_retries = SIZE_MAX;
    size_t idx_dup_dropped = SIZE_MAX;
    size_t idx_putpages_sent = SIZE_MAX;
    size_t idx_putpages_received = SIZE_MAX;
    size_t idx_getpage_attempts = SIZE_MAX;
    size_t idx_getpage_hits = SIZE_MAX;
    size_t idx_epoch = SIZE_MAX;

    LatencyWindow getpage_hit_win;
    ThresholdRule slo_rule;
    SlidingWindow retries;
    CusumRule retry_rule;
    SlidingWindow dups;
    EwmaDeviationRule dup_rule;
    SlidingWindow putpages_sent;
    SlidingWindow putpages_received;
    SlidingWindow getpage_attempts;
    SlidingWindow getpage_hits;
    ThresholdRule thrash_rule;

    // Epoch staleness state.
    uint64_t last_epoch = 0;
    SimTime last_epoch_change = 0;
    bool epoch_stale_fired = false;

    // Flap state: sign of the last active window's (received - sent), the
    // number of sign changes inside the current horizon, and when the
    // horizon started.
    int last_flap_sign = 0;
    uint32_t flap_changes = 0;
    SimTime flap_first_change = 0;

    NodeState(uint32_t window_capacity, const HealthConfig& config);
  };

  void RecordIncident(SimTime now, uint16_t node, IncidentClass cls,
                      double value, double threshold);
  void SampleNode(SimTime now, uint16_t node, NodeState& st);

  const MetricsRegistry* registry_;
  uint32_t num_nodes_;
  HealthConfig config_;
  Tracer* tracer_ = nullptr;
  bool bound_ = false;
  std::vector<NodeState> nodes_;
  std::vector<HealthIncident> incidents_;
  uint64_t incidents_dropped_ = 0;
  uint64_t class_counts_[kNumIncidentClasses] = {};
  uint64_t samples_ = 0;
};

}  // namespace gms

#endif  // SRC_OBS_HEALTH_H_
