#!/usr/bin/env python3
"""Analyze a GMS binary event trace (src/obs/trace.h, magic GMSTRC00).

Usage:
    tools/trace_stats.py TRACE.bin                # human-readable report
    tools/trace_stats.py TRACE.bin --digest       # print fnv1a digest only
    tools/trace_stats.py TRACE.bin --json         # machine-readable summary
    tools/trace_stats.py TRACE.bin --traffic-bucket-ms 500

Recomputes, purely from the trace:
  * per-kind event counts,
  * Table 1/2-style latency breakdowns (getpage hit/miss, fault, local hit,
    disk read/write) as mean/p50/p95 microseconds,
  * a Figure 11-style traffic curve: bytes on the wire per time bucket,
    split by message type,
  * the FNV-1a digest over the raw record stream, bit-identical to
    gms::TraceDigest — CI compares it against the TRACE_DIGEST line the
    producing bench printed.

Exits nonzero on a malformed file (bad magic, unknown version, wrong record
size, truncated record): schema drift must fail loudly, not parse as noise.
"""

import argparse
import json
import struct
import sys

MAGIC = b"GMSTRC00"
VERSION = 1
HEADER = struct.Struct("<8sIIII")   # magic, version, record_size, nodes, rsvd
RECORD = struct.Struct("<qQQIHH")   # time, a, b, value, node, kind
FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
MASK64 = (1 << 64) - 1

KIND_NAMES = {
    1: "local_hit",
    2: "fault",
    3: "fault_done",
    4: "getpage_issue",
    5: "getpage_hit",
    6: "getpage_miss",
    7: "putpage_send",
    8: "putpage_recv",
    9: "disk_read",
    10: "disk_write",
    11: "net_send",
    12: "epoch_start",
    13: "epoch_params",
    14: "nfs_read",
    15: "writeback_recv",
    16: "span_begin",
    17: "span_step",
    18: "span_end",
    19: "health_incident",
    20: "far_read",
    21: "far_write",
}
# Kinds above the highest known value come from a newer writer: they are
# counted under a generic "kindN" name and otherwise skipped — never treated
# as latencies or traffic, never fatal (forward compatibility).

# Kinds whose `value` field is a latency in nanoseconds.
LATENCY_KINDS = {
    "local_hit": 1,
    "fault_done": 3,
    "getpage_hit": 5,
    "getpage_miss": 6,
    "disk_read": 9,
    "disk_write": 10,
}


def fail(msg):
    sys.exit(f"trace_stats: {msg}")


def read_trace(path):
    """Returns (num_nodes, records, digest, raw_record_count)."""
    with open(path, "rb") as f:
        head = f.read(HEADER.size)
        if len(head) != HEADER.size:
            fail(f"{path}: truncated header ({len(head)} bytes)")
        magic, version, record_size, num_nodes, _ = HEADER.unpack(head)
        if magic != MAGIC:
            fail(f"{path}: bad magic {magic!r} (want {MAGIC!r})")
        if version != VERSION:
            fail(f"{path}: unsupported version {version} (want {VERSION})")
        if record_size != RECORD.size:
            fail(f"{path}: record size {record_size} (want {RECORD.size})")
        body = f.read()
    if len(body) % RECORD.size != 0:
        fail(f"{path}: {len(body)} record bytes is not a multiple of "
             f"{RECORD.size} (truncated write?)")

    # The tracer's digest is per-node: each node's record stream (in file
    # order, which is that node's ring-flush order) is FNV-1a hashed on its
    # own, then the per-node (fnv1a, count) pairs are folded in node order —
    # empty nodes included. This makes the digest independent of how ring
    # flushes from different nodes interleaved in the file (ring capacity).
    node_digest = [FNV_OFFSET] * num_nodes
    node_count = [0] * num_nodes
    records = list(RECORD.iter_unpack(body))
    for i, rec in enumerate(records):
        node = rec[4]
        if node >= num_nodes:
            fail(f"record {i}: node {node} out of range (header says "
                 f"{num_nodes} nodes)")
        h = node_digest[node]
        for byte in body[i * RECORD.size:(i + 1) * RECORD.size]:
            h = ((h ^ byte) * FNV_PRIME) & MASK64
        node_digest[node] = h
        node_count[node] += 1
    digest = FNV_OFFSET
    for node in range(num_nodes):
        for byte in struct.pack("<QQ", node_digest[node], node_count[node]):
            digest = ((digest ^ byte) * FNV_PRIME) & MASK64
    return num_nodes, records, digest, len(records)


def quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


def summarize(num_nodes, records, bucket_ms):
    counts = {}
    latencies = {name: [] for name in LATENCY_KINDS}
    kind_to_lat = {v: k for k, v in LATENCY_KINDS.items()}
    traffic = {}          # bucket index -> {msg_type: bytes}
    per_node = {}         # node -> event count
    t_max = 0
    bucket_ns = bucket_ms * 1_000_000
    for time, a, b, value, node, kind in records:
        name = KIND_NAMES.get(kind, f"kind{kind}")
        counts[name] = counts.get(name, 0) + 1
        per_node[node] = per_node.get(node, 0) + 1
        t_max = max(t_max, time)
        lat_name = kind_to_lat.get(kind)
        if lat_name is not None:
            latencies[lat_name].append(value)
        if kind == 11:  # net_send: value=bytes, a=dst, b=msg type
            bucket = time // bucket_ns
            by_type = traffic.setdefault(bucket, {})
            by_type[b] = by_type.get(b, 0) + value

    lat_summary = {}
    for name, values in latencies.items():
        if not values:
            continue
        values.sort()
        lat_summary[name] = {
            "count": len(values),
            "mean_us": sum(values) / len(values) / 1000.0,
            "p50_us": quantile(values, 0.50) / 1000.0,
            "p95_us": quantile(values, 0.95) / 1000.0,
        }

    curve = []
    for bucket in sorted(traffic):
        by_type = traffic[bucket]
        curve.append({
            "t_ms": bucket * bucket_ms,
            "bytes": sum(by_type.values()),
            "by_type": {str(k): v for k, v in sorted(by_type.items())},
        })

    return {
        "num_nodes": num_nodes,
        "records": len(records),
        "duration_ms": t_max / 1_000_000,
        "counts": dict(sorted(counts.items())),
        "events_per_node": {str(n): c for n, c in sorted(per_node.items())},
        "latency_us": lat_summary,
        "traffic_curve": curve,
    }


def print_report(s, bucket_ms):
    print(f"nodes={s['num_nodes']} records={s['records']} "
          f"duration={s['duration_ms']:.1f} ms")
    print("\nevent counts:")
    for name, count in s["counts"].items():
        print(f"  {name:16s} {count:10d}")
    if s["latency_us"]:
        print("\nlatency breakdown (us):        count       mean        "
              "p50        p95")
        for name, lat in sorted(s["latency_us"].items()):
            print(f"  {name:16s} {lat['count']:15d} {lat['mean_us']:10.1f} "
                  f"{lat['p50_us']:10.1f} {lat['p95_us']:10.1f}")
    if s["traffic_curve"]:
        peak = max(b["bytes"] for b in s["traffic_curve"])
        print(f"\ntraffic curve ({bucket_ms} ms buckets, "
              f"peak {peak / 1e6:.2f} MB):")
        for b in s["traffic_curve"]:
            bar = "#" * max(1, round(40 * b["bytes"] / peak)) if peak else ""
            print(f"  {b['t_ms']:8.0f} ms {b['bytes'] / 1e6:8.3f} MB  {bar}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trace", help="binary trace file (GMSTRC00)")
    parser.add_argument("--digest", action="store_true",
                        help="print only the fnv1a digest line and exit")
    parser.add_argument("--json", action="store_true",
                        help="print the summary as JSON")
    parser.add_argument("--traffic-bucket-ms", type=int, default=250,
                        help="traffic curve bucket width (default 250 ms)")
    parser.add_argument("--expect-digest",
                        help="fail unless the digest equals this "
                             "fnv1a:<hex>:<count> string")
    args = parser.parse_args()

    num_nodes, records, digest, count = read_trace(args.trace)
    digest_str = f"fnv1a:{digest:016x}:{count}"

    if args.expect_digest and digest_str != args.expect_digest:
        fail(f"digest mismatch: trace has {digest_str}, "
             f"expected {args.expect_digest}")

    if args.digest:
        print(digest_str)
        return 0

    summary = summarize(num_nodes, records, args.traffic_bucket_ms)
    summary["digest"] = digest_str
    if args.json:
        json.dump(summary, sys.stdout, indent=2)
        print()
    else:
        print(f"digest {digest_str}")
        print_report(summary, args.traffic_bucket_ms)
    return 0


if __name__ == "__main__":
    sys.exit(main())
