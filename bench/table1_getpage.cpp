// Table 1: performance of the getpage operation (microseconds).
//
// Reproduces the paper's four cases — non-shared/shared x miss/hit — by
// placing a page in the corresponding directory state on an otherwise idle
// 8-node cluster and timing a single instrumented getpage end to end. The
// per-step rows come from the calibrated cost model; the Total row is the
// measured simulation latency, which validates that the protocol takes the
// right hops in each case (e.g. the non-shared miss never touches the
// network).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/cluster/cluster.h"
#include "src/common/table.h"
#include "src/core/directory.h"

namespace gms {
namespace {

struct CaseResult {
  double request_generation = 0;
  double reply_receipt = 0;
  double gcd_processing = 0;
  double network = 0;
  double target_processing = 0;
  double measured_total = 0;
  bool hit = false;
};

double MeasureGetPage(Cluster& cluster, NodeId requester, const Uid& uid,
                      bool* hit) {
  bool done = false;
  const SimTime t0 = cluster.sim().now();
  SimTime t1 = t0;
  cluster.service(requester).GetPage(uid, [&](GetPageResult result) {
    done = true;
    t1 = cluster.sim().now();
    *hit = result.hit;
  });
  while (!done) {
    cluster.sim().RunFor(Microseconds(10));
  }
  return ToMicroseconds(t1 - t0);
}

}  // namespace
}  // namespace gms

int main(int argc, char** argv) {
  using namespace gms;
  PaperScale s = BenchScale(argc, argv);
  BenchHeader("Table 1: getpage latency breakdown (us)", s);

  ClusterConfig config;
  config.num_nodes = 8;
  config.policy = PolicyKind::kGms;
  config.frames = 2048;
  config.seed = s.seed;
  ApplyObsFlags(argc, argv, &config.obs);
  ApplyTierFlags(argc, argv, &config);
  Cluster cluster(config);
  cluster.Start();
  cluster.sim().RunFor(Seconds(1));  // settle the first epoch

  const CostModel& cm = config.gms.costs;
  const NodeId a{0};
  const double net_small =
      ToMicroseconds(cluster.net().TransferLatency(cm.small_message_bytes()));
  const double net_page =
      ToMicroseconds(cluster.net().TransferLatency(cm.page_message_bytes()));

  CaseResult results[4];

  // --- non-shared miss: private page, nowhere cached; GCD is local.
  {
    const Uid uid = MakeAnonUid(a, 500, 1);
    CaseResult& r = results[0];
    r.request_generation = ToMicroseconds(cm.get_request_local);
    r.gcd_processing = ToMicroseconds(cm.gcd_lookup);
    r.measured_total = MeasureGetPage(cluster, a, uid, &r.hit);
  }

  // --- non-shared hit: private page of A housed as a global page on B.
  {
    const Uid uid = MakeAnonUid(a, 500, 2);
    const NodeId b{1};
    Frame* frame = cluster.frames(b).AllocateWithAge(uid, PageLocation::kGlobal,
                                                     cluster.sim().now());
    (void)frame;
    cluster.gms_agent(a)->ApplyGcdLocal(
        GcdUpdate{uid, GcdUpdate::kAdd, b, true});
    CaseResult& r = results[1];
    r.request_generation =
        ToMicroseconds(cm.get_request_local + cm.get_request_remote_extra);
    r.reply_receipt = ToMicroseconds(cm.get_reply_receipt_data);
    r.gcd_processing = ToMicroseconds(cm.gcd_lookup + cm.gcd_forward_extra);
    r.network = net_small + net_page;
    r.target_processing = ToMicroseconds(cm.receive_isr + cm.get_target);
    r.measured_total = MeasureGetPage(cluster, a, uid, &r.hit);
  }

  // --- shared miss: file page whose GCD section is on another node.
  {
    Uid uid;
    for (uint32_t off = 0;; off++) {
      uid = MakeFileUid(NodeId{2}, 60, off);
      if (cluster.gms_agent(a)->pod().GcdNodeFor(uid) != a) {
        break;
      }
    }
    CaseResult& r = results[2];
    r.request_generation =
        ToMicroseconds(cm.get_request_local + cm.get_request_remote_extra);
    r.reply_receipt = ToMicroseconds(cm.get_reply_receipt_miss);
    r.gcd_processing = ToMicroseconds(cm.receive_isr + cm.gcd_lookup);
    r.network = 2 * net_small;
    r.measured_total = MeasureGetPage(cluster, a, uid, &r.hit);
  }

  // --- shared hit: file page cached in C's local memory, GCD on D.
  {
    const NodeId c{2};
    Uid uid;
    for (uint32_t off = 100;; off++) {
      uid = MakeFileUid(c, 61, off);
      const NodeId gcd = cluster.gms_agent(a)->pod().GcdNodeFor(uid);
      if (gcd != a && gcd != c) {
        Frame* frame = cluster.frames(c).Allocate(uid, PageLocation::kLocal,
                                                  cluster.sim().now());
        frame->set_shared(true);
        cluster.gms_agent(gcd)->ApplyGcdLocal(
            GcdUpdate{uid, GcdUpdate::kAdd, c, false});
        break;
      }
    }
    CaseResult& r = results[3];
    r.request_generation =
        ToMicroseconds(cm.get_request_local + cm.get_request_remote_extra);
    r.reply_receipt = ToMicroseconds(cm.get_reply_receipt_data);
    r.gcd_processing =
        ToMicroseconds(cm.receive_isr + cm.gcd_lookup + cm.gcd_forward_extra);
    r.network = 2 * net_small + net_page;
    r.target_processing = ToMicroseconds(cm.receive_isr + cm.get_target);
    r.measured_total = MeasureGetPage(cluster, a, uid, &r.hit);
  }

  const bool expected_hit[4] = {false, true, false, true};
  for (int i = 0; i < 4; i++) {
    if (results[i].hit != expected_hit[i]) {
      std::printf("WARNING: case %d resolved unexpectedly (hit=%d)\n", i,
                  results[i].hit);
    }
  }

  TablePrinter table({"Operation", "NonShared Miss", "NonShared Hit",
                      "Shared Miss", "Shared Hit"});
  auto row = [&](const std::string& label, auto getter) {
    std::vector<double> values;
    for (const CaseResult& r : results) {
      values.push_back(getter(r));
    }
    table.AddNumericRow(label, values, 0);
  };
  row("Request Generation", [](const CaseResult& r) { return r.request_generation; });
  row("Reply Receipt", [](const CaseResult& r) { return r.reply_receipt; });
  row("GCD Processing", [](const CaseResult& r) { return r.gcd_processing; });
  row("Network HW&SW", [](const CaseResult& r) { return r.network; });
  row("Target Processing", [](const CaseResult& r) { return r.target_processing; });
  row("Total (measured)", [](const CaseResult& r) { return r.measured_total; });
  table.Print(std::cout);
  std::printf("\nPaper totals:        15           1440          340          1558\n");
  return WriteObsOutputs(argc, argv, cluster);
}
