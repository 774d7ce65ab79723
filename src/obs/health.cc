#include "src/obs/health.h"

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "src/obs/json_append.h"

namespace gms {

const char* IncidentClassName(IncidentClass cls) {
  switch (cls) {
    case IncidentClass::kGetpageSlo:
      return "getpage_slo";
    case IncidentClass::kRetryStorm:
      return "retry_storm";
    case IncidentClass::kDupSpike:
      return "dup_spike";
    case IncidentClass::kEpochStale:
      return "epoch_stale";
    case IncidentClass::kDonorFlap:
      return "donor_flap";
    case IncidentClass::kThrash:
      return "thrash";
  }
  return "unknown";
}

HealthMonitor::NodeState::NodeState(uint32_t window_capacity,
                                    const HealthConfig& config)
    : retries(window_capacity),
      dups(window_capacity, config.dup_ewma_alpha),
      putpages_sent(window_capacity),
      putpages_received(window_capacity),
      getpage_attempts(window_capacity),
      getpage_hits(window_capacity) {
  slo_rule.limit = static_cast<double>(config.getpage_slo);
  retry_rule.drift = config.retry_drift_per_s;
  retry_rule.h = config.retry_cusum_h;
  dup_rule.alpha = config.dup_ewma_alpha;
  dup_rule.k = config.dup_deviation_k;
  dup_rule.floor = config.dup_floor;
  thrash_rule.limit = config.thrash_forward_per_s;
}

HealthMonitor::HealthMonitor(const MetricsRegistry* registry,
                             uint32_t num_nodes, HealthConfig config)
    : registry_(registry), num_nodes_(num_nodes), config_(config) {}

bool HealthMonitor::Bind() {
  nodes_.clear();
  nodes_.reserve(num_nodes_);
  incidents_.reserve(config_.max_incidents);
  bool all_bound = true;
  char name[64];
  for (uint32_t i = 0; i < num_nodes_; i++) {
    nodes_.emplace_back(config_.window_capacity, config_);
    NodeState& st = nodes_.back();
    struct Binding {
      const char* suffix;
      size_t NodeState::* idx;
    };
    static constexpr Binding kBindings[] = {
        {"svc/getpage_hit_ns", &NodeState::idx_getpage_hit_ns},
        {"svc/getpage_retries", &NodeState::idx_getpage_retries},
        {"svc/duplicate_msgs_dropped", &NodeState::idx_dup_dropped},
        {"svc/putpages_sent", &NodeState::idx_putpages_sent},
        {"svc/putpages_received", &NodeState::idx_putpages_received},
        {"svc/getpage_attempts", &NodeState::idx_getpage_attempts},
        {"svc/getpage_hits", &NodeState::idx_getpage_hits},
        {"svc/epoch", &NodeState::idx_epoch},
    };
    for (const Binding& b : kBindings) {
      std::snprintf(name, sizeof(name), "node%u/%s", i, b.suffix);
      const size_t idx = registry_->IndexOf(name);
      st.*(b.idx) = idx;
      if (idx == MetricsRegistry::kInvalidIndex) {
        all_bound = false;
      }
    }
  }
  bound_ = true;
  return all_bound;
}

void HealthMonitor::RecordIncident(SimTime now, uint16_t node,
                                   IncidentClass cls, double value,
                                   double threshold) {
  class_counts_[static_cast<size_t>(cls)]++;
  if (incidents_.size() < config_.max_incidents) {
    incidents_.push_back(HealthIncident{now, node, cls, value, threshold});
  } else {
    incidents_dropped_++;
  }
  TraceEventRaw(tracer_, now, NodeId{node}, TraceEventKind::kHealthIncident,
                static_cast<uint64_t>(cls), std::bit_cast<uint64_t>(value),
                threshold < 0 ? 0 : static_cast<uint64_t>(threshold));
}

void HealthMonitor::SampleNode(SimTime now, uint16_t node, NodeState& st) {
  const MetricsRegistry& reg = *registry_;
  constexpr size_t kUnbound = MetricsRegistry::kInvalidIndex;

  // getpage SLO: p99 of this interval's successful getpages.
  if (st.idx_getpage_hit_ns != kUnbound) {
    const LatencyHistogram* h = reg.LatencyAt(st.idx_getpage_hit_ns);
    if (h != nullptr) {
      st.getpage_hit_win.Push(*h);
      if (st.getpage_hit_win.count() >= config_.slo_min_samples) {
        const double p99 =
            static_cast<double>(st.getpage_hit_win.Quantile(0.99));
        if (st.slo_rule.Step(p99)) {
          RecordIncident(now, node, IncidentClass::kGetpageSlo, p99,
                         static_cast<double>(config_.getpage_slo));
        }
      }
    }
  }

  // Retry storm: CUSUM over the getpage retry rate (control retransmissions
  // are congestion noise in this universe — see HealthConfig).
  if (st.idx_getpage_retries != kUnbound) {
    st.retries.Push(now, reg.ValueAt(st.idx_getpage_retries));
    if (st.retries.total_samples() > 0 &&
        st.retry_rule.Step(st.retries.last_rate_per_s())) {
      RecordIncident(now, node, IncidentClass::kRetryStorm,
                     st.retries.last_rate_per_s(), config_.retry_drift_per_s);
    }
  }

  // Duplicate-delivery spike: EWMA deviation over per-window dup drops.
  if (st.idx_dup_dropped != kUnbound) {
    st.dups.Push(now, reg.ValueAt(st.idx_dup_dropped));
    if (st.dups.total_samples() > 0 &&
        st.dup_rule.Step(st.dups.last_delta())) {
      RecordIncident(now, node, IncidentClass::kDupSpike, st.dups.last_delta(),
                     config_.dup_deviation_k * config_.dup_floor);
    }
  }

  // Epoch staleness: the node adopted epochs before, then stopped.
  if (st.idx_epoch != kUnbound && config_.epoch_period > 0) {
    const uint64_t epoch = reg.ValueAt(st.idx_epoch);
    if (epoch != st.last_epoch) {
      st.last_epoch = epoch;
      st.last_epoch_change = now;
      st.epoch_stale_fired = false;
    } else if (epoch > 0 && !st.epoch_stale_fired) {
      const double age = static_cast<double>(now - st.last_epoch_change);
      const double limit = config_.epoch_stale_factor *
                           static_cast<double>(config_.epoch_period);
      if (age > limit) {
        st.epoch_stale_fired = true;  // once per stall, re-arms on adoption
        RecordIncident(now, node, IncidentClass::kEpochStale, age, limit);
      }
    }
  }

  // Donor/consumer flap + thrash share the putpage windows.
  const bool have_put = st.idx_putpages_sent != kUnbound &&
                        st.idx_putpages_received != kUnbound;
  if (have_put) {
    st.putpages_sent.Push(now, reg.ValueAt(st.idx_putpages_sent));
    st.putpages_received.Push(now, reg.ValueAt(st.idx_putpages_received));
    const double sent = st.putpages_sent.last_delta();
    const double recv = st.putpages_received.last_delta();
    // Flap: count sign changes of the net putpage direction across active
    // windows; fire when enough changes land inside one horizon.
    if (sent + recv >= static_cast<double>(config_.flap_min_pages)) {
      const int sign = recv > sent ? 1 : (sent > recv ? -1 : 0);
      if (sign != 0) {
        if (st.last_flap_sign != 0 && sign != st.last_flap_sign) {
          if (st.flap_changes == 0 ||
              now - st.flap_first_change > config_.flap_horizon) {
            st.flap_changes = 0;
            st.flap_first_change = now;
          }
          st.flap_changes++;
          if (st.flap_changes >= config_.flap_min_alternations) {
            RecordIncident(now, node, IncidentClass::kDonorFlap,
                           static_cast<double>(st.flap_changes),
                           static_cast<double>(config_.flap_min_alternations));
            st.flap_changes = 0;
          }
        }
        st.last_flap_sign = sign;
      }
    }
  }

  // Thrash: forwards streaming out while the windowed global hit rate sits
  // below the bar.
  if (have_put && st.idx_getpage_attempts != kUnbound &&
      st.idx_getpage_hits != kUnbound) {
    st.getpage_attempts.Push(now, reg.ValueAt(st.idx_getpage_attempts));
    st.getpage_hits.Push(now, reg.ValueAt(st.idx_getpage_hits));
    const double attempts = st.getpage_attempts.mean() *
                            static_cast<double>(st.getpage_attempts.samples());
    const double hits = st.getpage_hits.mean() *
                        static_cast<double>(st.getpage_hits.samples());
    const double forward_rate = st.putpages_sent.window_rate_per_s();
    if (attempts >= static_cast<double>(config_.thrash_min_attempts)) {
      const double hit_rate = hits / attempts;
      const bool thrashing = hit_rate < config_.thrash_hit_rate;
      if (st.thrash_rule.Step(thrashing ? forward_rate : 0)) {
        RecordIncident(now, node, IncidentClass::kThrash, forward_rate,
                       config_.thrash_forward_per_s);
      }
    }
  }
}

void HealthMonitor::Sample(SimTime now) {
  if (!bound_) {
    return;
  }
  samples_++;
  for (uint32_t i = 0; i < num_nodes_; i++) {
    SampleNode(now, static_cast<uint16_t>(i), nodes_[i]);
  }
}

std::string HealthMonitor::ToJson() const {
  std::string out;
  out.reserve(1024 + incidents_.size() * 128);
  out += "{\n  \"schema\": 1,\n";
  AppendF(&out, "  \"nodes\": %u,\n", num_nodes_);
  AppendF(&out, "  \"samples\": %" PRIu64 ",\n", samples_);
  AppendF(&out, "  \"total_incidents\": %" PRIu64 ",\n",
          static_cast<uint64_t>(incidents_.size()) + incidents_dropped_);
  AppendF(&out, "  \"incidents_dropped\": %" PRIu64 ",\n",
          incidents_dropped_);
  out += "  \"class_counts\": {";
  // Emitted in enum order (fixed set, stable by construction).
  for (size_t c = 1; c < kNumIncidentClasses; c++) {
    AppendF(&out, "%s\"%s\": %" PRIu64, c == 1 ? "" : ", ",
            IncidentClassName(static_cast<IncidentClass>(c)),
            class_counts_[c]);
  }
  out += "},\n  \"incidents\": [\n";
  for (size_t i = 0; i < incidents_.size(); i++) {
    const HealthIncident& inc = incidents_[i];
    AppendF(&out,
            "    {\"time_ns\": %lld, \"node\": %u, \"class\": \"%s\", "
            "\"value\": %.6g, \"threshold\": %.6g}%s\n",
            static_cast<long long>(inc.time),
            static_cast<unsigned>(inc.node), IncidentClassName(inc.cls),
            inc.value, inc.threshold, i + 1 < incidents_.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace gms
