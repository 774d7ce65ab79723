// Tests for the online health monitor (src/obs/health.h): the streaming
// rule primitives, the windowed time-series substrate, each GMS pathology
// detector driven through a synthetic metrics registry (exact firing ticks,
// hysteresis, re-arming), and the end-to-end cluster wiring — a clean
// steady-state chaos scenario must stay incident-free, a lossy one must
// flag the retry storm and duplicate spike, and incidents must land in the
// trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "src/cluster/chaos_scenario.h"
#include "src/cluster/cluster.h"
#include "src/common/time.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"

namespace gms {
namespace {

// --------------------------------------------------------------------------
// Streaming rule primitives
// --------------------------------------------------------------------------

TEST(HealthRuleTest, ThresholdFiresOncePerExcursionWithHysteresis) {
  ThresholdRule rule;
  rule.limit = 100;  // default re-arm at limit/2 = 50
  EXPECT_FALSE(rule.Step(99));
  EXPECT_TRUE(rule.Step(101)) << "crossing the limit must fire";
  EXPECT_FALSE(rule.Step(500)) << "staying above must not re-fire";
  EXPECT_FALSE(rule.Step(60)) << "between re-arm and limit: still disarmed";
  EXPECT_FALSE(rule.Step(101)) << "not re-armed yet";
  EXPECT_FALSE(rule.Step(50)) << "dropping to the re-arm level re-arms";
  EXPECT_TRUE(rule.Step(101)) << "second excursion fires again";
}

TEST(HealthRuleTest, ThresholdHonoursExplicitRearmLevel) {
  ThresholdRule rule;
  rule.limit = 100;
  rule.rearm = 90;
  EXPECT_TRUE(rule.Step(101));
  EXPECT_FALSE(rule.Step(95));
  EXPECT_FALSE(rule.Step(89));  // re-arms here (<= 90), fires next crossing
  EXPECT_TRUE(rule.Step(101));
}

TEST(HealthRuleTest, EwmaDeviationWarmsUpThenFiresOnSpike) {
  EwmaDeviationRule rule;  // alpha .3, k 4, floor 1, warmup 4
  // Warm-up samples train the baseline and may not fire, however wild.
  EXPECT_FALSE(rule.Step(0));
  EXPECT_FALSE(rule.Step(1000)) << "warm-up samples must never fire";
  EXPECT_FALSE(rule.Step(0));
  EXPECT_FALSE(rule.Step(0));
  // Settle the baseline back near zero.
  for (int i = 0; i < 30; i++) {
    EXPECT_FALSE(rule.Step(0)) << "flat baseline fired at step " << i;
  }
  EXPECT_TRUE(rule.Step(50)) << "50 >> 4 * max(sd, 1) off a zero baseline";
  EXPECT_FALSE(rule.Step(50)) << "sustained new level fires once";
  for (int i = 0; i < 30; i++) {
    rule.Step(0);  // deviation decays below k*sd/2: re-arms
  }
  EXPECT_TRUE(rule.Step(80)) << "re-armed after returning to baseline";
}

TEST(HealthRuleTest, CusumIntegratesSustainedSmallShift) {
  CusumRule rule;
  rule.drift = 50;
  rule.h = 200;
  // Below the drift: the statistic stays clamped at zero.
  for (int i = 0; i < 100; i++) {
    EXPECT_FALSE(rule.Step(40));
  }
  EXPECT_EQ(rule.s, 0.0);
  // +10 over drift per step: fires when s crosses 200 (21st step), resets.
  int fired_at = -1;
  for (int i = 0; i < 30 && fired_at < 0; i++) {
    if (rule.Step(60)) {
      fired_at = i;
    }
  }
  EXPECT_EQ(fired_at, 20);
  EXPECT_EQ(rule.s, 0.0) << "firing must reset the accumulator";
  // One big excess fires immediately.
  EXPECT_TRUE(rule.Step(500));
}

// --------------------------------------------------------------------------
// SlidingWindow / LatencyWindow
// --------------------------------------------------------------------------

TEST(SlidingWindowTest, DeltasRatesAndEviction) {
  SlidingWindow win(4);
  // First push: baseline only.
  win.Push(Milliseconds(100), 1000);
  EXPECT_EQ(win.samples(), 0u);
  EXPECT_EQ(win.total_samples(), 0u);
  win.Push(Milliseconds(200), 1010);  // +10 over 100 ms
  EXPECT_EQ(win.samples(), 1u);
  EXPECT_EQ(win.last_delta(), 10.0);
  EXPECT_DOUBLE_EQ(win.last_rate_per_s(), 100.0);
  EXPECT_DOUBLE_EQ(win.window_rate_per_s(), 100.0);
  win.Push(Milliseconds(300), 1040);  // +30
  win.Push(Milliseconds(400), 1060);  // +20
  win.Push(Milliseconds(500), 1100);  // +40
  EXPECT_EQ(win.samples(), 4u);
  EXPECT_DOUBLE_EQ(win.mean(), 25.0);  // {10,30,20,40}
  EXPECT_DOUBLE_EQ(win.window_rate_per_s(), 250.0);
  // Fifth delta evicts the first: sum and span stay windowed.
  win.Push(Milliseconds(600), 1110);  // +10, evicts the +10
  EXPECT_EQ(win.samples(), 4u);
  EXPECT_DOUBLE_EQ(win.mean(), 25.0);  // {30,20,40,10}
  const double m = win.mean();
  const double expect_var =
      ((30 - m) * (30 - m) + (20 - m) * (20 - m) + (40 - m) * (40 - m) +
       (10 - m) * (10 - m)) /
      4.0;
  EXPECT_NEAR(win.variance(), expect_var, 1e-9);
  EXPECT_EQ(win.total_samples(), 5u);
}

TEST(SlidingWindowTest, CounterResetYieldsZeroDeltaNotGarbage) {
  SlidingWindow win(4);
  win.Push(Milliseconds(100), 500);
  win.Push(Milliseconds(200), 600);
  EXPECT_EQ(win.last_delta(), 100.0);
  // A node reboot drops the cumulative counter; the window must not record
  // a huge unsigned wraparound.
  win.Push(Milliseconds(300), 50);
  EXPECT_EQ(win.last_delta(), 0.0);
  win.Push(Milliseconds(400), 80);  // counting resumes off the new baseline
  EXPECT_EQ(win.last_delta(), 30.0);
}

TEST(SlidingWindowTest, EwmaTracksDeltaHistory) {
  SlidingWindow win(2, /*ewma_alpha=*/0.5);
  win.Push(0, 0);
  win.Push(Milliseconds(100), 10);  // first delta seeds the EWMA
  EXPECT_DOUBLE_EQ(win.ewma(), 10.0);
  win.Push(Milliseconds(200), 30);  // delta 20: 0.5*20 + 0.5*10
  EXPECT_DOUBLE_EQ(win.ewma(), 15.0);
  win.Reset();
  EXPECT_EQ(win.samples(), 0u);
  EXPECT_EQ(win.ewma(), 0.0);
}

TEST(LatencyWindowTest, QuantileSeesOnlyTheLastInterval) {
  LatencyHistogram cumulative;
  for (int i = 0; i < 100; i++) {
    cumulative.Record(Microseconds(10));
  }
  LatencyWindow win;
  win.Push(cumulative);  // baseline: the 10 us history is not "this interval"
  EXPECT_EQ(win.count(), 0u);
  for (int i = 0; i < 50; i++) {
    cumulative.Record(Milliseconds(5));
  }
  win.Push(cumulative);
  EXPECT_EQ(win.count(), 50u);
  // The interval's p50 is 5 ms even though the cumulative histogram is
  // dominated by the 10 us history.
  EXPECT_NEAR(static_cast<double>(win.Quantile(0.5)),
              static_cast<double>(Milliseconds(5)),
              0.13 * static_cast<double>(Milliseconds(5)));
  win.Push(cumulative);  // nothing new this interval
  EXPECT_EQ(win.count(), 0u);
  EXPECT_EQ(win.Quantile(0.99), 0);
}

// --------------------------------------------------------------------------
// Detector engine over a synthetic registry
// --------------------------------------------------------------------------

// Hand-driven stand-in for one node's service metrics, registered under the
// exact names HealthMonitor::Bind() resolves.
struct FakeNode {
  uint64_t getpage_retries = 0;
  uint64_t control_retries = 0;
  uint64_t dups_dropped = 0;
  uint64_t putpages_sent = 0;
  uint64_t putpages_received = 0;
  uint64_t attempts = 0;
  uint64_t hits = 0;
  uint64_t epoch = 0;
  LatencyHistogram hit_ns;
};

void RegisterFakeNode(MetricsRegistry* reg, uint32_t i, FakeNode* m) {
  const std::string p = "node" + std::to_string(i) + "/svc/";
  EXPECT_TRUE(reg->RegisterLatency(p + "getpage_hit_ns",
                                   [m] { return &m->hit_ns; }));
  EXPECT_TRUE(reg->RegisterValue(p + "getpage_retries",
                                 [m] { return m->getpage_retries; }));
  EXPECT_TRUE(reg->RegisterValue(p + "control_retries",
                                 [m] { return m->control_retries; }));
  EXPECT_TRUE(reg->RegisterValue(p + "duplicate_msgs_dropped",
                                 [m] { return m->dups_dropped; }));
  EXPECT_TRUE(reg->RegisterValue(p + "putpages_sent",
                                 [m] { return m->putpages_sent; }));
  EXPECT_TRUE(reg->RegisterValue(p + "putpages_received",
                                 [m] { return m->putpages_received; }));
  EXPECT_TRUE(
      reg->RegisterValue(p + "getpage_attempts", [m] { return m->attempts; }));
  EXPECT_TRUE(reg->RegisterValue(p + "getpage_hits", [m] { return m->hits; }));
  EXPECT_TRUE(reg->RegisterValue(p + "epoch", [m] { return m->epoch; }));
}

// One-node harness: drives Sample() on a fixed 100 ms cadence.
struct MonitorHarness {
  MetricsRegistry registry;
  FakeNode node;
  HealthMonitor monitor;
  SimTime now = 0;

  explicit MonitorHarness(HealthConfig config = {})
      : monitor(MakeMonitor(config)) {}

  HealthMonitor MakeMonitor(HealthConfig config) {
    RegisterFakeNode(&registry, 0, &node);
    return HealthMonitor(&registry, 1, config);
  }

  void Tick() {
    now += Milliseconds(100);
    monitor.Sample(now);
  }
};

TEST(HealthMonitorTest, BindReportsMissingMetricFamilies) {
  MetricsRegistry reg;
  FakeNode node;
  RegisterFakeNode(&reg, 0, &node);
  HealthMonitor complete(&reg, 1, HealthConfig{});
  EXPECT_TRUE(complete.Bind());

  // A second node that was never registered: Bind reports the gap but the
  // monitor still runs (with the detectors that did bind).
  HealthMonitor partial(&reg, 2, HealthConfig{});
  EXPECT_FALSE(partial.Bind());
  partial.Sample(Milliseconds(100));
  partial.Sample(Milliseconds(200));
  EXPECT_EQ(partial.samples(), 2u);
  EXPECT_TRUE(partial.incidents().empty());
}

TEST(HealthMonitorTest, SampleBeforeBindIsIgnored) {
  MetricsRegistry reg;
  FakeNode node;
  RegisterFakeNode(&reg, 0, &node);
  HealthMonitor monitor(&reg, 1, HealthConfig{});
  monitor.Sample(Milliseconds(100));
  EXPECT_EQ(monitor.samples(), 0u);
}

TEST(HealthMonitorTest, QuietNodeStaysIncidentFree) {
  MonitorHarness h;
  ASSERT_TRUE(h.monitor.Bind());
  for (int i = 0; i < 200; i++) {
    // Healthy traffic: fast getpages, high hit rate, steady putpage flow in
    // one direction, no retries or duplicates, advancing epochs.
    for (int s = 0; s < 40; s++) {
      h.node.hit_ns.Record(Microseconds(150));
    }
    h.node.attempts += 40;
    h.node.hits += 38;
    h.node.putpages_sent += 20;
    if (i % 10 == 0) {
      h.node.epoch++;
    }
    h.Tick();
  }
  EXPECT_EQ(h.monitor.samples(), 200u);
  EXPECT_TRUE(h.monitor.incidents().empty())
      << "a healthy synthetic node fired:\n"
      << h.monitor.ToJson();
}

TEST(HealthMonitorTest, SloDetectorFiresOnSlowWindowAndRearms) {
  HealthConfig config;
  config.getpage_slo = Milliseconds(1);  // pinned: independent of defaults
  MonitorHarness h(config);
  ASSERT_TRUE(h.monitor.Bind());
  auto record_burst = [&](SimTime latency) {
    for (int s = 0; s < 32; s++) {  // >= slo_min_samples per window
      h.node.hit_ns.Record(latency);
    }
  };
  record_burst(Microseconds(200));
  h.Tick();  // baseline-fast window
  record_burst(Milliseconds(5));
  h.Tick();  // p99 ~5 ms > 1 ms SLO
  ASSERT_EQ(h.monitor.class_count(IncidentClass::kGetpageSlo), 1u)
      << h.monitor.ToJson();
  const HealthIncident& inc = h.monitor.incidents()[0];
  EXPECT_EQ(inc.cls, IncidentClass::kGetpageSlo);
  EXPECT_EQ(inc.node, 0u);
  EXPECT_GT(inc.value, 1e6);  // measured p99 in ns
  EXPECT_DOUBLE_EQ(inc.threshold, static_cast<double>(Milliseconds(1)));
  record_burst(Milliseconds(5));
  h.Tick();  // still slow: hysteresis holds
  EXPECT_EQ(h.monitor.class_count(IncidentClass::kGetpageSlo), 1u);
  record_burst(Microseconds(200));
  h.Tick();  // recovers below limit/2: re-arms
  record_burst(Milliseconds(5));
  h.Tick();
  EXPECT_EQ(h.monitor.class_count(IncidentClass::kGetpageSlo), 2u);
  // Sparse windows are ignored outright, however slow.
  h.node.hit_ns.Record(Seconds(1));
  h.Tick();
  EXPECT_EQ(h.monitor.class_count(IncidentClass::kGetpageSlo), 2u)
      << "a window below slo_min_samples must not fire";
}

TEST(HealthMonitorTest, RetryStormIntegratesSustainedRate) {
  HealthConfig config;  // pinned: independent of default tuning
  config.retry_drift_per_s = 50;
  config.retry_cusum_h = 200;
  MonitorHarness h(config);
  ASSERT_TRUE(h.monitor.Bind());
  h.Tick();  // baseline
  // 30 getpage retries per 100 ms window = 300/s; CUSUM gains 250/tick over
  // the 50/s drift and crosses h=200 on the very first elevated tick.
  h.node.getpage_retries += 30;
  h.Tick();
  EXPECT_EQ(h.monitor.class_count(IncidentClass::kRetryStorm), 1u)
      << h.monitor.ToJson();
  // A trickle below the drift never accumulates.
  for (int i = 0; i < 100; i++) {
    h.node.getpage_retries += 4;  // 40/s < 50/s drift
    h.Tick();
  }
  EXPECT_EQ(h.monitor.class_count(IncidentClass::kRetryStorm), 1u);
  // Control retransmissions alone must NOT register: donors retransmit
  // control traffic under fault-free congestion (see HealthConfig).
  for (int i = 0; i < 50; i++) {
    h.node.control_retries += 100;  // 1000/s of pure control retries
    h.Tick();
  }
  EXPECT_EQ(h.monitor.class_count(IncidentClass::kRetryStorm), 1u)
      << "control retransmissions leaked into the retry-storm detector:\n"
      << h.monitor.ToJson();
}

TEST(HealthMonitorTest, DupSpikeFiresOnBurstOffQuietBaseline) {
  MonitorHarness h;
  ASSERT_TRUE(h.monitor.Bind());
  for (int i = 0; i < 20; i++) {
    h.Tick();  // quiet baseline (zero duplicates)
  }
  EXPECT_EQ(h.monitor.class_count(IncidentClass::kDupSpike), 0u);
  h.node.dups_dropped += 50;  // burst: 50 >> k * floor = 8
  h.Tick();
  EXPECT_EQ(h.monitor.class_count(IncidentClass::kDupSpike), 1u)
      << h.monitor.ToJson();
  // The occasional single duplicate rides under the variance floor.
  for (int i = 0; i < 40; i++) {
    h.node.dups_dropped += i % 20 == 0 ? 1 : 0;
    h.Tick();
  }
  EXPECT_EQ(h.monitor.class_count(IncidentClass::kDupSpike), 1u)
      << "sub-floor duplicate trickle must not fire:\n"
      << h.monitor.ToJson();
}

TEST(HealthMonitorTest, EpochStaleFiresOncePerStallAndRearmsOnAdoption) {
  HealthConfig config;
  config.epoch_period = Seconds(1);  // stale limit: 3 s
  MonitorHarness h(config);
  ASSERT_TRUE(h.monitor.Bind());
  // Epoch 0 for a long time: the node never adopted one, so no staleness.
  for (int i = 0; i < 50; i++) {
    h.Tick();  // 5 s at epoch 0
  }
  EXPECT_EQ(h.monitor.class_count(IncidentClass::kEpochStale), 0u)
      << "a node that never adopted an epoch is starting, not stale";
  h.node.epoch = 1;
  for (int i = 0; i < 29; i++) {
    h.Tick();  // 2.9 s since adoption: inside the limit
  }
  EXPECT_EQ(h.monitor.class_count(IncidentClass::kEpochStale), 0u);
  for (int i = 0; i < 30; i++) {
    h.Tick();  // crosses 3 s: fires exactly once for the whole stall
  }
  EXPECT_EQ(h.monitor.class_count(IncidentClass::kEpochStale), 1u)
      << h.monitor.ToJson();
  h.node.epoch = 2;  // adoption resumes: re-arms
  h.Tick();
  for (int i = 0; i < 40; i++) {
    h.Tick();  // second stall
  }
  EXPECT_EQ(h.monitor.class_count(IncidentClass::kEpochStale), 2u);
}

TEST(HealthMonitorTest, DonorFlapCountsSignAlternations) {
  MonitorHarness h;
  ASSERT_TRUE(h.monitor.Bind());
  h.Tick();  // baseline
  auto give = [&] { h.node.putpages_sent += 20; h.Tick(); };
  auto take = [&] { h.node.putpages_received += 20; h.Tick(); };
  give();  // sign -1 (first active window: no alternation yet)
  take();  // change 1
  give();  // change 2
  EXPECT_EQ(h.monitor.class_count(IncidentClass::kDonorFlap), 0u);
  take();  // change 3: fires
  EXPECT_EQ(h.monitor.class_count(IncidentClass::kDonorFlap), 1u)
      << h.monitor.ToJson();
  // Quiet windows (below flap_min_pages) don't disturb the sign history,
  // and a steady direction never alternates.
  for (int i = 0; i < 50; i++) {
    h.node.putpages_received += 2;
    h.Tick();
  }
  EXPECT_EQ(h.monitor.class_count(IncidentClass::kDonorFlap), 1u);
  // The counter restarted after firing: three fresh alternations refire.
  give();
  take();
  give();
  EXPECT_EQ(h.monitor.class_count(IncidentClass::kDonorFlap), 2u);
}

TEST(HealthMonitorTest, ThrashNeedsBothHighForwardRateAndLowHitRate) {
  MonitorHarness h;
  ASSERT_TRUE(h.monitor.Bind());
  h.Tick();  // baseline
  // High forward rate with a healthy hit rate: not thrash.
  for (int i = 0; i < 10; i++) {
    h.node.putpages_sent += 500;  // 5000/s >> 2000/s
    h.node.attempts += 100;
    h.node.hits += 90;
    h.Tick();
  }
  EXPECT_EQ(h.monitor.class_count(IncidentClass::kThrash), 0u)
      << "forwarding hard with a 90% hit rate is load, not thrash";
  // Low hit rate with a modest forward rate: not thrash either.
  MonitorHarness cold;
  ASSERT_TRUE(cold.monitor.Bind());
  cold.Tick();
  for (int i = 0; i < 10; i++) {
    cold.node.putpages_sent += 50;  // 500/s < 2000/s
    cold.node.attempts += 100;
    cold.node.hits += 5;
    cold.Tick();
  }
  EXPECT_EQ(cold.monitor.class_count(IncidentClass::kThrash), 0u)
      << "a cold cache with a quiet forward path must not fire";
  // Both together: fires once, then hysteresis holds until recovery.
  MonitorHarness both;
  ASSERT_TRUE(both.monitor.Bind());
  both.Tick();
  for (int i = 0; i < 10; i++) {
    both.node.putpages_sent += 500;
    both.node.attempts += 100;
    both.node.hits += 5;
    both.Tick();
  }
  EXPECT_EQ(both.monitor.class_count(IncidentClass::kThrash), 1u)
      << both.monitor.ToJson();
}

TEST(HealthMonitorTest, IncidentsRecordTraceRecordsWhenTracerAttached) {
  if (!kTraceCompiledIn) {
    GTEST_SKIP() << "tracer compiled out (GMS_TRACE=OFF)";
  }
  MonitorHarness h;
  Tracer tracer(/*num_nodes=*/1, /*ring_capacity=*/64);
  tracer.set_enabled(true);
  h.monitor.set_tracer(&tracer);
  ASSERT_TRUE(h.monitor.Bind());
  h.Tick();
  h.node.getpage_retries += 100;  // storm
  h.node.dups_dropped += 50;      // spike (fires after EWMA warmup)
  h.Tick();
  for (int i = 0; i < 10; i++) {
    h.Tick();
  }
  h.node.dups_dropped += 80;
  h.Tick();
  tracer.Flush();
  EXPECT_GE(h.monitor.incidents().size(), 2u);
  EXPECT_EQ(tracer.digest().records, h.monitor.incidents().size())
      << "every stored incident must also land in the trace";
}

TEST(HealthMonitorTest, IncidentStorageCapsAtMaxButKeepsCounting) {
  HealthConfig config;
  config.max_incidents = 3;
  MonitorHarness h(config);
  ASSERT_TRUE(h.monitor.Bind());
  h.Tick();
  for (int i = 0; i < 8; i++) {
    h.node.getpage_retries += 100;  // 1000/s: a storm every tick resets CUSUM
    h.Tick();
  }
  EXPECT_EQ(h.monitor.incidents().size(), 3u);
  EXPECT_GT(h.monitor.incidents_dropped(), 0u);
  EXPECT_EQ(h.monitor.class_count(IncidentClass::kRetryStorm),
            h.monitor.incidents().size() + h.monitor.incidents_dropped());
  // The report stays arithmetically consistent (check_health.py asserts
  // stored + dropped == total).
  const std::string json = h.monitor.ToJson();
  EXPECT_NE(json.find("\"incidents_dropped\": "), std::string::npos);
}

TEST(HealthMonitorTest, ReportIsByteIdenticalAcrossIdenticalRuns) {
  auto run = [] {
    MonitorHarness h;
    EXPECT_TRUE(h.monitor.Bind());
    h.Tick();
    for (int i = 0; i < 60; i++) {
      h.node.getpage_retries += i % 7 == 0 ? 90 : 2;
      h.node.dups_dropped += i % 13 == 0 ? 40 : 0;
      h.node.putpages_sent += i % 2 == 0 ? 30 : 0;
      h.node.putpages_received += i % 2 == 1 ? 30 : 0;
      for (int s = 0; s < 20; s++) {
        h.node.hit_ns.Record(i % 11 == 0 ? Milliseconds(3) : Microseconds(90));
      }
      h.Tick();
    }
    EXPECT_FALSE(h.monitor.incidents().empty());
    return h.monitor.ToJson();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b) << "identical sample streams must serialize identically";
}

// --------------------------------------------------------------------------
// End-to-end: the chaos cluster with the monitor wired in
// --------------------------------------------------------------------------

std::string RunChaosHealthReport(const ChaosCase& chaos, bool with_partition,
                                 uint64_t* incident_count = nullptr,
                                 uint64_t* samples = nullptr) {
  ObsConfig obs;
  obs.health = true;
  auto cluster = BuildChaosCluster(chaos, with_partition, obs);
  cluster->StartWorkloads();
  EXPECT_TRUE(cluster->RunUntilWorkloadsDone(Seconds(600)));
  const HealthMonitor* health = cluster->health();
  EXPECT_NE(health, nullptr);
  if (incident_count != nullptr) {
    *incident_count =
        health->incidents().size() + health->incidents_dropped();
  }
  if (samples != nullptr) {
    *samples = health->samples();
  }
  return health->ToJson();
}

TEST(HealthClusterTest, CleanSteadyStateRunIsIncidentFree) {
  uint64_t incidents = 0;
  uint64_t samples = 0;
  const std::string report = RunChaosHealthReport(
      ChaosCase{1, 0.0}, /*with_partition=*/false, &incidents, &samples);
  EXPECT_GT(samples, 10u) << "the monitor never sampled";
  EXPECT_EQ(incidents, 0u)
      << "a fault-free steady-state run fired a detector (false positive):\n"
      << report;
}

TEST(HealthClusterTest, LossyChaosRunFlagsRetryStormAndDupSpike) {
  ObsConfig obs;
  obs.health = true;
  auto cluster = BuildChaosCluster(ChaosCase{5, 0.05}, /*with_partition=*/true,
                                   obs);
  cluster->StartWorkloads();
  ASSERT_TRUE(cluster->RunUntilWorkloadsDone(Seconds(600)));
  const HealthMonitor* health = cluster->health();
  ASSERT_NE(health, nullptr);
  EXPECT_GT(health->class_count(IncidentClass::kRetryStorm), 0u)
      << "5% loss with a partition must register as a retry storm:\n"
      << health->ToJson();
  EXPECT_GT(health->class_count(IncidentClass::kDupSpike), 0u)
      << "2.5% duplication must register as a duplicate spike:\n"
      << health->ToJson();
}

TEST(HealthClusterTest, IncidentsLandInTraceAsRecords) {
  if (!kTraceCompiledIn) {
    GTEST_SKIP() << "tracer compiled out (GMS_TRACE=OFF)";
  }
  const std::string path = ::testing::TempDir() + "/health_incidents.trc";
  ObsConfig obs;
  obs.health = true;
  obs.trace = true;
  obs.trace_path = path;
  auto cluster = BuildChaosCluster(ChaosCase{5, 0.05}, /*with_partition=*/true,
                                   obs);
  cluster->StartWorkloads();
  ASSERT_TRUE(cluster->RunUntilWorkloadsDone(Seconds(600)));
  const HealthMonitor* health = cluster->health();
  ASSERT_NE(health, nullptr);
  ASSERT_NE(cluster->tracer(), nullptr);
  cluster->tracer()->Finish();

  SpanForest forest;
  std::string error;
  ASSERT_TRUE(SpanForest::FromFile(path, &forest, &error)) << error;
  ASSERT_EQ(health->incidents_dropped(), 0u);
  ASSERT_EQ(forest.incidents.size(), health->incidents().size())
      << "trace and report disagree on the incident count";
  // File order interleaves per-node ring flushes, so compare as sorted sets.
  using Key = std::tuple<SimTime, uint16_t, uint16_t, double>;
  std::vector<Key> from_trace;
  std::vector<Key> from_report;
  for (const SpanForest::Incident& inc : forest.incidents) {
    from_trace.emplace_back(inc.time, inc.node, inc.cls, inc.value);
  }
  for (const HealthIncident& inc : health->incidents()) {
    from_report.emplace_back(inc.time, inc.node,
                             static_cast<uint16_t>(inc.cls), inc.value);
  }
  std::sort(from_trace.begin(), from_trace.end());
  std::sort(from_report.begin(), from_report.end());
  EXPECT_EQ(from_trace, from_report)
      << "trace records and report entries disagree";
  // The Perfetto export carries them as instant events.
  const std::string perfetto = PerfettoJson(forest);
  EXPECT_NE(perfetto.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(perfetto.find("\"cat\":\"health\""), std::string::npos);
  std::remove(path.c_str());
}

// The monitor reads stats and records outside the event queue, so enabling
// it must not perturb the simulation it watches (same bar as tracing).
TEST(HealthClusterTest, MonitoringDoesNotPerturbTheSimulation) {
  const ChaosCase chaos{7, 0.01};
  std::string dumps[2];
  for (int monitored = 0; monitored < 2; monitored++) {
    ObsConfig obs;
    obs.health = monitored != 0;
    auto cluster = BuildChaosCluster(chaos, /*with_partition=*/true, obs);
    cluster->StartWorkloads();
    ASSERT_TRUE(cluster->RunUntilWorkloadsDone(Seconds(600)));
    ASSERT_TRUE(cluster->RunUntilQuiescent(Seconds(30)));
    dumps[monitored] = ChaosStatsDump(*cluster);
  }
  EXPECT_EQ(dumps[0], dumps[1])
      << "the health monitor changed the simulation it was observing";
  EXPECT_FALSE(dumps[0].empty());
}

}  // namespace
}  // namespace gms
