#!/usr/bin/env python3
"""Checks that the benchmark is steady enough to judge a change by.

Runs every workload (or those named) once per seed through perfbench/run.py
and reports, for each end-to-end metric of BENCHMARK.json, the spread of its
values across seeds: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A spread above
the metric's bound fails; above a third of it is flagged. setup_s is
reported but its spread is not judged.

With --sets 2 the whole round runs twice and each metric's second median
must not be worse than the first by more than the bound. Runs of the same
workload and seed must agree exactly on every simulated metric and on the
sim_digest line; with one set, the first seed runs twice to check that.

    python3 perfbench/steadiness.py --seeds 10
    python3 perfbench/steadiness.py --workloads epoch_scaleout --seeds 5

Exit code 0 when every check holds. Raw values go to
.bench_build/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# End-to-end metrics read from the simulated cluster: they must repeat
# exactly for a seed.
SIM_METRICS = ("sim_elapsed_s", "fault_p50_us", "fault_p99_us")
UNJUDGED_SPREAD = ("setup_s",)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    lines = result.stdout.strip().split("\n")
    digest = next((l.split()[1] for l in lines if l.startswith("sim_digest ")),
                  None)
    try:
        out = json.loads(lines[-1])
    except ValueError:
        out = None
    if result.returncode != 0 or out is None or not out.get("correct"):
        return None
    values = {k: v["value"] for k, v in out["metrics"].items()}
    return {"values": values, "digest": digest}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first, second, better):
    """Relative change of `second` against `first` in the worse direction."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    metrics = bench["end_to_end"]
    # results[set][workload] = list of (seed, run)
    results = [{w: [] for w in args.workloads} for _ in range(args.sets)]
    failures = []
    for s in range(args.sets):
        order = [(seed, w) for seed in seeds for w in args.workloads]
        if args.sets == 1:
            order += [(seeds[0], w) for w in args.workloads]  # repeat check
        for seed, w in order:
            run = run_once(w, seed, args.seconds)
            if run is None:
                failures.append(f"{w} seed {seed}: run failed")
                continue
            results[s][w].append((seed, run))
            print(f"set {s + 1} {w} seed {seed}: " + " ".join(
                f"{m['name']}={run['values'].get(m['name'], float('nan')):.6g}"
                for m in metrics), flush=True)

    # Same workload and seed: identical simulated outcome.
    for w in args.workloads:
        by_seed = {}
        for s in range(args.sets):
            for seed, run in results[s][w]:
                key = (tuple(run["values"].get(m) for m in SIM_METRICS),
                       run["digest"])
                by_seed.setdefault(seed, set()).add(key)
        for seed, keys in by_seed.items():
            if len(keys) > 1:
                failures.append(f"{w} seed {seed}: simulated outcome differs "
                                f"between runs of the same seed")

    print(f"\n{'workload':<15} {'metric':<17} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}  status")
    for w in args.workloads:
        medians = []
        for s in range(args.sets):
            # One value per seed (the repeat run only checks determinism).
            runs = {}
            for seed, run in results[s][w]:
                runs.setdefault(seed, run)
            medians.append({})
            for m in metrics:
                vals = [r["values"][m["name"]] for r in runs.values()
                        if m["name"] in r["values"]]
                if len(vals) < 2:
                    failures.append(f"{w} {m['name']}: too few values")
                    continue
                q1, med, q3, sp = spread(vals)
                medians[s][m["name"]] = med
                if m["name"] in UNJUDGED_SPREAD:
                    status = "not judged"
                elif sp > m["bound"]:
                    status = "FAIL"
                    failures.append(f"{w} {m['name']}: spread {sp:.4f} > "
                                    f"bound {m['bound']}")
                elif sp > m["bound"] / 3:
                    status = "above bound/3"
                else:
                    status = "ok"
                print(f"{w:<15} {m['name']:<17} {med:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {sp:>8.4f} {m['bound']:>6}  "
                      f"{status} (set {s + 1})")
        if args.sets == 2:
            for m in metrics:
                a, b = medians[0].get(m["name"]), medians[1].get(m["name"])
                if a is None or b is None:
                    continue
                drift = worse_by(a, b, m["better"])
                flag = "FAIL" if drift > m["bound"] else "ok"
                if flag == "FAIL":
                    failures.append(f"{w} {m['name']}: second median worse "
                                    f"by {drift:.4f} > bound {m['bound']}")
                print(f"{w:<15} {m['name']:<17} median drift {drift:+.4f} "
                      f"(bound {m['bound']})  {flag}")

    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "steadiness.json"), "w") as f:
        json.dump({"seeds": seeds, "seconds": args.seconds,
                   "results": results}, f, indent=1)
    for msg in failures:
        print("FAIL: " + msg)
    print("steady" if not failures else f"{len(failures)} failure(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
