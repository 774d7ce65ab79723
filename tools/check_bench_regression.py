#!/usr/bin/env python3
"""Compare a fresh BENCH_core.json against the committed baseline.

Usage:
    tools/check_bench_regression.py CURRENT.json [BASELINE.json]
                                    [--max-regression 0.25]
    tools/check_bench_regression.py SCALEOUT.json [BASE_SCALEOUT.json]
                                    --max-epoch-root-cost 40
                                    [--max-peak-rss-mb MB]
                                    [--max-wall-ratio 1.15]

Exits nonzero if the headline events/sec figure regressed by more than
--max-regression, or any per-bench items_per_sec by more than the looser
--max-bench-regression. Improvements and small wobbles are reported but
never fail.

The committed baseline (bench/BENCH_core.json) is recorded on a quiet
machine at --scale=1; CI runs at --scale=0.1 on shared runners, so the
thresholds are deliberately loose — they exist to catch "we reintroduced a
per-event allocation" (2-3x), not 5% noise. Per-bench figures come from
shorter windows than the headline, hence their wider band.

A separate, much tighter check guards the policy/mechanism split: the
getpage bench runs through CacheEngine's virtual ReplacementPolicy seam,
so any dispatch cost the refactor added shows up as getpage slowing down
relative to the raw event loop. The check compares the getpage/event_loop
throughput ratio between current and baseline — normalizing by event_loop
cancels machine speed, leaving only per-operation overhead — and fails if
the ratio dropped by more than --max-dispatch-overhead (default 3%, the
refactor's acceptance bound on a quiet machine; CI passes a looser value
because the two figures wobble independently on shared runners).
"""

import argparse
import json
import os
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != 1:
        sys.exit(f"{path}: unsupported or missing schema (want 1)")
    return doc


def check_epoch_cost(path, doc, max_root_cost):
    """Gate a schema-2 epoch_cost grid (bench/epoch_cost --emit_bench_json).

    The bound applies to every tree point (fanout > 0): the root must absorb
    ~fanout summaries per epoch, never O(N). Flat points are printed for the
    contrast but unbounded — their linear growth is the baseline the tree is
    measured against.
    """
    if max_root_cost is None:
        sys.exit(f"{path}: epoch_cost doc requires --max-epoch-root-cost")
    failures = []
    for p in doc.get("points", []):
        msgs = p.get("root_summary_msgs_per_epoch")
        tag = f"nodes={p.get('nodes')} fanout={p.get('fanout')}"
        print(f"epoch_cost: {tag} epochs={p.get('epochs')} "
              f"root_summary_msgs_per_epoch={msgs}")
        if p.get("epochs", 0) < 1:
            failures.append(f"{tag}: no epoch completed")
        elif p.get("fanout", 0) > 0 and msgs is not None \
                and msgs > max_root_cost:
            failures.append(
                f"{tag}: root summary msgs/epoch {msgs:.1f} exceeds "
                f"--max-epoch-root-cost {max_root_cost:.1f}"
            )
    if not doc.get("points"):
        failures.append(f"{path}: no points in epoch_cost doc")
    if failures:
        print("\nFAIL: epoch cost bound violated:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nOK: every tree point's root cost bounded by fanout")
    return 0


def check_wall_ratio(doc, base_path, max_wall_ratio):
    """Host seconds of an epoch_scaleout run against the same run at the
    base commit on the same machine: the change's wall_s may be at most
    max_wall_ratio times the base's. Returns a list of failures. A base
    built before the doc recorded wall_s has nothing to compare, which is
    reported and passes.
    """
    with open(base_path) as f:
        base = json.load(f)
    shape = ("nodes", "fanout", "epochs")
    if base.get("kind") != "epoch_scaleout":
        return [f"{base_path}: not an epoch_scaleout doc to compare wall_s "
                "with"]
    if any(base.get(k) != doc.get(k) for k in shape):
        return [f"{base_path}: base ran {[base.get(k) for k in shape]}, the "
                f"change {[doc.get(k) for k in shape]} (nodes, fanout, "
                "epochs); wall times of different runs do not compare"]
    cur, old = doc.get("wall_s"), base.get("wall_s")
    if cur is None:
        return ["missing wall_s"]
    if old is None:
        print(f"epoch_scaleout: wall_s={cur:.4f} s; {base_path} records no "
              "wall_s (older fig7_scaleout), wall gate skipped")
        return []
    ratio = cur / old if old > 0 else float("inf")
    print(f"epoch_scaleout: wall_s={cur:.4f} s vs base {old:.4f} s "
          f"({ratio:.2f}x, limit {max_wall_ratio:.2f}x)")
    if ratio > max_wall_ratio:
        return [f"wall_s {cur:.4f} s is {ratio:.2f}x the base's {old:.4f} s, "
                f"over --max-wall-ratio {max_wall_ratio:.2f}: the epoch path "
                "got slower on the host"]
    return []


def check_epoch_scaleout(path, doc, max_root_cost, max_peak_rss_mb=None,
                         max_wall_ratio=None, base_path=None):
    """Gate a schema-2 epoch_scaleout doc (fig7_scaleout --scaleout_nodes).

    The root-cost bound is absolute: the initiator's summary traffic per
    epoch must stay at the tree's fanout (plus straggler re-requests), never
    at O(N). A missing bound is an error so CI cannot silently run the job
    unguarded. With --max-peak-rss-mb the process's peak RSS is bounded too:
    per-node epoch state that grows with N shows up there first (O(N^2)
    bytes in total), and so does a metrics snapshot store that grows faster
    than what changes. With --max-wall-ratio the doc's host wall_s is
    compared with the same run of the base commit (the BASELINE argument),
    so epoch-path host time is gated on the runner that measured both.
    """
    if max_root_cost is None:
        sys.exit(f"{path}: epoch_scaleout doc requires --max-epoch-root-cost")
    failures = []
    epochs = doc.get("epochs", 0)
    msgs = doc.get("root_summary_msgs_per_epoch")
    print(f"epoch_scaleout: nodes={doc.get('nodes')} "
          f"fanout={doc.get('fanout')} epochs={epochs} "
          f"root_summary_msgs_per_epoch={msgs} "
          f"root_epoch_cpu_us_per_epoch="
          f"{doc.get('root_epoch_cpu_us_per_epoch')}")
    if epochs < 1:
        failures.append(f"{path}: no epoch completed")
    if msgs is None:
        failures.append(f"{path}: missing root_summary_msgs_per_epoch")
    elif msgs > max_root_cost:
        failures.append(
            f"root summary msgs/epoch {msgs:.1f} exceeds "
            f"--max-epoch-root-cost {max_root_cost:.1f}: the initiator's "
            "traffic is scaling with N, not fanout"
        )
    if max_peak_rss_mb is not None:
        rss = doc.get("peak_rss_mb")
        print(f"epoch_scaleout: peak_rss_mb={rss} "
              f"(limit {max_peak_rss_mb:.0f})")
        if rss is None:
            failures.append(f"{path}: missing peak_rss_mb")
        elif rss > max_peak_rss_mb:
            failures.append(
                f"peak RSS {rss:.1f} MB exceeds --max-peak-rss-mb "
                f"{max_peak_rss_mb:.0f}: per-node epoch state is growing "
                "with N, or the metrics snapshots with run length"
            )
    if max_wall_ratio is not None:
        failures += check_wall_ratio(doc, base_path, max_wall_ratio)
    if failures:
        print("\nFAIL: epoch scale-out bound violated:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nOK: root epoch cost bounded by fanout")
    return 0


def check_policy_tournament(path, doc, tolerance):
    """Gate a schema-2 policy_tournament doc (bench/policy_tournament
    --json_out) by delegating to tools/check_tournament.py's validator:
    full-grid coverage, score/league consistency, the Hedge regret bound,
    and the ensemble-vs-best-fixed-policy phase-change acceptance.
    """
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from check_tournament import check_doc
    failures = check_doc(doc, path, phase_change_tolerance=tolerance)
    if failures:
        print("\nFAIL: tournament doc invalid:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nOK: tournament doc complete, scored consistently, regret bounded")
    return 0


def check_tier_sweep(path, doc):
    """Gate a schema-2 tier_sweep doc (bench/tier_sweep --json_out) by
    delegating to tools/check_tiers.py's validator: fill counters partition
    the misses, per-level latencies respect global < far < disk, the
    far/disk fill crossover exists, and the fluctuating-capacity chaos case
    passed the cluster invariant checker.
    """
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from check_tiers import check_doc
    failures = check_doc(doc, path)
    if failures:
        print("\nFAIL: tier sweep invalid:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nOK: memory hierarchy ordered, fills accounted, chaos "
          "invariants hold")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="freshly generated BENCH_core.json")
    parser.add_argument(
        "baseline",
        nargs="?",
        default="bench/BENCH_core.json",
        help="committed baseline (default: bench/BENCH_core.json)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional drop in headline events/sec (default 0.25)",
    )
    parser.add_argument(
        "--max-bench-regression",
        type=float,
        default=0.5,
        help="allowed fractional drop per individual bench (default 0.5)",
    )
    parser.add_argument(
        "--max-dispatch-overhead",
        type=float,
        default=0.03,
        help="allowed fractional drop in the getpage/event_loop throughput "
        "ratio vs baseline (default 0.03); catches per-operation overhead "
        "such as the policy seam's virtual dispatch independent of machine "
        "speed",
    )
    parser.add_argument(
        "--max-epoch-root-cost",
        type=float,
        default=None,
        help="for schema-2 epoch_scaleout docs (fig7_scaleout "
        "--scaleout_nodes --emit_bench_json): maximum allowed root summary "
        "messages per epoch — an absolute bound proving the hierarchical "
        "aggregation keeps initiator traffic O(fanout), not O(N); such docs "
        "skip the baseline comparison entirely",
    )
    parser.add_argument(
        "--max-peak-rss-mb",
        type=float,
        default=None,
        help="for schema-2 epoch_scaleout docs: maximum allowed peak RSS of "
        "the fig7_scaleout process in MB (the doc's peak_rss_mb field)",
    )
    parser.add_argument(
        "--max-wall-ratio",
        type=float,
        default=None,
        help="for schema-2 epoch_scaleout docs: maximum allowed ratio of the "
        "doc's host wall_s to the BASELINE doc's, the same fig7_scaleout run "
        "at the base commit on the same machine (skipped when the base "
        "predates the wall_s field)",
    )
    parser.add_argument(
        "--phase-change-tolerance",
        type=float,
        default=0.05,
        help="for schema-2 policy_tournament docs (bench/policy_tournament "
        "--json_out): allowed fractional slack for the ensemble policy vs "
        "the best fixed policy on the phase_change scenario; such docs skip "
        "the baseline comparison entirely",
    )
    parser.add_argument(
        "--expect-tracing-disabled",
        action="store_true",
        help="fail unless the current JSON was produced by a build with the "
        "src/obs tracer compiled out (-DGMS_TRACE=OFF); that configuration "
        "must match the pre-tracing baseline, so no allowance is made for "
        "tracer call sites",
    )
    args = parser.parse_args()

    with open(args.current) as f:
        cur_raw = json.load(f)
    if cur_raw.get("schema") == 2 and cur_raw.get("kind") == "epoch_scaleout":
        return check_epoch_scaleout(args.current, cur_raw,
                                    args.max_epoch_root_cost,
                                    args.max_peak_rss_mb,
                                    args.max_wall_ratio, args.baseline)
    if cur_raw.get("schema") == 2 and cur_raw.get("kind") == "epoch_cost":
        return check_epoch_cost(args.current, cur_raw,
                                args.max_epoch_root_cost)
    if cur_raw.get("schema") == 2 and \
            cur_raw.get("kind") == "policy_tournament":
        return check_policy_tournament(args.current, cur_raw,
                                       args.phase_change_tolerance)
    if cur_raw.get("schema") == 2 and cur_raw.get("kind") == "tier_sweep":
        return check_tier_sweep(args.current, cur_raw)

    cur = load(args.current)
    base = load(args.baseline)

    failures = []
    if args.expect_tracing_disabled and cur.get("trace_compiled_in") is not False:
        failures.append(
            f"{args.current}: trace_compiled_in="
            f"{cur.get('trace_compiled_in')!r}; expected false — was the "
            "bench built with -DGMS_TRACE=OFF?"
        )
    rows = [("events_per_sec", cur["events_per_sec"], base["events_per_sec"],
             args.max_regression)]
    for name, b in sorted(base.get("benches", {}).items()):
        c = cur.get("benches", {}).get(name)
        if c is None:
            failures.append(f"bench '{name}' missing from {args.current}")
            continue
        rows.append((name, c["items_per_sec"], b["items_per_sec"],
                     args.max_bench_regression))

    for name, cur_v, base_v, limit in rows:
        ratio = cur_v / base_v if base_v else float("inf")
        status = "ok"
        if ratio < 1.0 - limit:
            status = "REGRESSED"
            failures.append(
                f"{name}: {cur_v:.0f}/s vs baseline {base_v:.0f}/s "
                f"({ratio:.2f}x, limit {1.0 - limit:.2f}x)"
            )
        print(f"{name:24s} {cur_v:15.0f}/s  baseline {base_v:15.0f}/s  "
              f"{ratio:5.2f}x  {status}")

    def norm_ratio(doc):
        benches = doc.get("benches", {})
        if "getpage" not in benches or "event_loop" not in benches:
            return None
        return benches["getpage"]["items_per_sec"] / \
            benches["event_loop"]["items_per_sec"]

    cur_norm, base_norm = norm_ratio(cur), norm_ratio(base)
    if cur_norm is not None and base_norm is not None:
        rel = cur_norm / base_norm
        overhead = 1.0 - rel
        status = "ok"
        if overhead > args.max_dispatch_overhead:
            status = "REGRESSED"
            failures.append(
                f"dispatch overhead: getpage/event_loop ratio {cur_norm:.6f} "
                f"vs baseline {base_norm:.6f} ({overhead:+.1%} overhead, "
                f"limit {args.max_dispatch_overhead:.1%})"
            )
        print(f"{'getpage/event_loop':24s} {cur_norm:15.6f}    baseline "
              f"{base_norm:15.6f}  {rel:5.2f}x  {status}")

    if failures:
        print("\nFAIL: throughput regression beyond limit:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nOK: no bench regressed beyond its limit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
