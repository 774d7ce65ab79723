#include "src/obs/span.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "src/obs/health.h"

namespace gms {

namespace {

// A span's begin/steps/end are all recorded on the span's owning node, so
// they share one ring and appear in time order relative to each other even
// though the file as a whole interleaves rings in flush order. Records for
// *different* spans of one trace can arrive in any order; spans are created
// on demand and back-filled when their begin record shows up.
Span& GetSpan(Trace& trace, uint64_t trace_id, uint32_t span_id,
              SimTime first_seen) {
  auto [it, inserted] = trace.spans.try_emplace(span_id);
  Span& span = it->second;
  if (inserted) {
    span.trace = trace_id;
    span.id = span_id;
    span.begin = first_seen;
    span.synthetic_begin = true;
  }
  return span;
}

}  // namespace

void SpanForest::Consume(const TraceRecord& rec) {
  const auto kind = static_cast<TraceEventKind>(rec.kind);
  if (kind == TraceEventKind::kHealthIncident) {
    incidents.push_back(Incident{rec.time, rec.node,
                                 static_cast<uint16_t>(rec.a),
                                 std::bit_cast<double>(rec.b), rec.value});
    return;
  }
  if (kind != TraceEventKind::kSpanBegin && kind != TraceEventKind::kSpanStep &&
      kind != TraceEventKind::kSpanEnd) {
    if (rec.kind > static_cast<uint16_t>(TraceEventKind::kFarWrite)) {
      unknown_kind_records++;  // a future kind: skip, never fail
    } else {
      other_records++;
    }
    return;
  }
  span_records++;
  const uint32_t span_id = static_cast<uint32_t>(rec.b >> 32);
  const uint32_t lo = static_cast<uint32_t>(rec.b);
  Trace& trace = traces[rec.a];
  trace.id = rec.a;
  Span& span = GetSpan(trace, rec.a, span_id, rec.time);
  switch (kind) {
    case TraceEventKind::kSpanBegin:
      span.parent = lo;
      span.node = rec.node;
      span.label = rec.value;
      span.begin = rec.time;
      span.synthetic_begin = false;
      break;
    case TraceEventKind::kSpanStep:
      span.segments.push_back(SpanSegment{span.last_stamp(), rec.time,
                                          static_cast<SpanComp>(lo),
                                          rec.value});
      break;
    case TraceEventKind::kSpanEnd:
      span.has_end = true;
      span.status = static_cast<SpanStatus>(lo);
      span.end_time = rec.time;
      // The trace's end is its *latest* kSpanEnd (a replicated putpage ends
      // once per target; an epoch ends at the last adopting node). Ties keep
      // the first-seen span for determinism.
      if (!trace.has_end || rec.time > trace.end_time) {
        trace.has_end = true;
        trace.end_span = span_id;
        trace.end_time = rec.time;
        trace.end_status = span.status;
      }
      break;
    default:
      break;
  }
}

void SpanForest::Link() {
  for (auto& [id, trace] : traces) {
    // The root is the earliest parentless span (ties: lowest span id, which
    // std::map order gives us for free).
    trace.root = 0;
    for (auto& [sid, span] : trace.spans) {
      if (span.parent != 0) {
        continue;
      }
      if (trace.root == 0 || span.begin < trace.spans.at(trace.root).begin) {
        trace.root = sid;
      }
    }
    // Other parentless spans (epoch participants adopting broadcast params)
    // hang off the root: the broadcast is their causal parent even though
    // the epoch params payload cannot carry the root's span id.
    if (trace.root != 0) {
      for (auto& [sid, span] : trace.spans) {
        if (span.parent == 0 && sid != trace.root) {
          span.parent = trace.root;
        }
      }
    }
    for (auto& [sid, span] : trace.spans) {
      if (span.parent == 0) {
        continue;
      }
      auto parent = trace.spans.find(span.parent);
      if (parent != trace.spans.end()) {
        parent->second.children.push_back(sid);
      }
    }
  }
}

bool SpanForest::FromFile(const std::string& path, SpanForest* out,
                          std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  TraceFileHeader header{};
  bool ok = std::fread(&header, sizeof(header), 1, f) == 1 &&
            std::memcmp(header.magic, kTraceMagic, sizeof(kTraceMagic)) == 0 &&
            header.version == kTraceVersion &&
            header.record_size >= sizeof(TraceRecord);
  if (!ok) {
    if (error != nullptr) {
      *error = "not a GMSTRC00 v" + std::to_string(kTraceVersion) +
               " trace: " + path;
    }
    std::fclose(f);
    return false;
  }
  // Stride by the header's record size: a future writer may append fields,
  // and the leading 32 bytes stay meaningful.
  std::vector<char> rec(header.record_size);
  while (std::fread(rec.data(), rec.size(), 1, f) == 1) {
    TraceRecord r;
    std::memcpy(&r, rec.data(), sizeof(r));
    out->Consume(r);
  }
  std::fclose(f);
  out->Link();
  return true;
}

CriticalPath ComputeCriticalPath(const Trace& trace) {
  CriticalPath cp;
  if (!trace.has_end) {
    cp.orphan = true;  // requester crashed or the run was cut short
    return cp;
  }
  if (trace.root == 0) {
    cp.truncated = true;
    return cp;
  }
  // Resolving chain: end span -> parent links -> root.
  std::vector<uint32_t> rev;
  uint32_t cur = trace.end_span;
  while (cur != 0 && rev.size() <= trace.spans.size()) {
    auto it = trace.spans.find(cur);
    if (it == trace.spans.end()) {
      cp.truncated = true;  // parent lost: cannot anchor at the root
      break;
    }
    rev.push_back(cur);
    cur = it->second.parent;
  }
  cp.path.assign(rev.rbegin(), rev.rend());
  const Span& root = trace.spans.at(cp.path.front());
  if (cp.path.front() != trace.root) {
    cp.truncated = true;
  }
  cp.e2e = trace.end_time - root.begin;

  // Telescoping walk: one cursor sweeps from the root's begin to the end
  // time, so the attributed intervals tile [root begin, end] exactly by
  // construction. Per span, stamps in (cursor, boundary] are on the critical
  // path; the hop into the next span's begin is wire time; anything past the
  // boundary is an off-path tail absorbed into the edge it branched from.
  auto attribute = [&cp](SimTime from, SimTime to, SpanComp comp,
                         uint64_t detail) {
    if (to <= from) {
      return;
    }
    cp.timeline.push_back(SpanSegment{from, to, comp, detail});
    cp.components[static_cast<size_t>(comp)] += to - from;
  };
  SimTime cursor = root.begin;
  for (size_t i = 0; i < cp.path.size(); ++i) {
    const Span& span = trace.spans.at(cp.path[i]);
    if (span.synthetic_begin) {
      cp.truncated = true;
    }
    if (i > 0 && span.begin > cursor) {
      attribute(cursor, span.begin, SpanComp::kWire, span.id);
      cursor = span.begin;
    }
    const SimTime boundary = (i + 1 < cp.path.size())
                                 ? trace.spans.at(cp.path[i + 1]).begin
                                 : trace.end_time;
    for (const SpanSegment& seg : span.segments) {
      if (seg.end <= cursor) {
        continue;  // pre-handoff work already covered (or off-path sibling)
      }
      if (seg.end > boundary) {
        break;  // stamped after the hand-off: off-path tail
      }
      attribute(cursor, seg.end, seg.comp, seg.detail);
      cursor = seg.end;
    }
    if (i + 1 == cp.path.size() && cursor < boundary) {
      // The producer always co-times the end record with its last stamp;
      // keep the tiling exact even if a future producer does not.
      attribute(cursor, boundary, SpanComp::kWire, span.id);
      cursor = boundary;
    }
  }
  cp.complete = (cursor == trace.end_time);
  return cp;
}

const char* SpanCompName(SpanComp comp) {
  switch (comp) {
    case SpanComp::kFaultCpu: return "fault_cpu";
    case SpanComp::kReqGen: return "req_gen";
    case SpanComp::kQueueIsr: return "queue";
    case SpanComp::kService: return "service";
    case SpanComp::kDiskWait: return "disk_wait";
    case SpanComp::kDiskService: return "disk_service";
    case SpanComp::kRetryWait: return "retry_wait";
    case SpanComp::kOrderWait: return "order_wait";
    case SpanComp::kDupDrop: return "dup_drop";
    case SpanComp::kReclaim: return "reclaim";
    case SpanComp::kNfsWait: return "nfs_wait";
    case SpanComp::kWire: return "wire";
    case SpanComp::kFarWait: return "far_wait";
    case SpanComp::kFarService: return "far_service";
  }
  return "comp?";
}

const char* SpanOpName(SpanOp op) {
  switch (op) {
    case SpanOp::kFault: return "fault";
    case SpanOp::kPutPage: return "putpage";
    case SpanOp::kEpoch: return "epoch";
    case SpanOp::kGetPage: return "getpage";
  }
  return "op?";
}

const char* SpanStatusName(SpanStatus status) {
  switch (status) {
    case SpanStatus::kHit: return "hit";
    case SpanStatus::kMiss: return "miss";
    case SpanStatus::kDone: return "done";
    case SpanStatus::kAbsorbed: return "absorbed";
    case SpanStatus::kBounced: return "bounced";
    case SpanStatus::kAdopted: return "adopted";
  }
  return "status?";
}

namespace {

void AppendSpanLine(const Trace& trace, const Span& span, int depth,
                    std::string* out) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%*sspan %08" PRIx32 " node=%u +%" PRId64
                                  "ns",
                depth * 2, "", span.id, span.node,
                span.begin - trace.spans.at(trace.root).begin);
  *out += buf;
  if (span.synthetic_begin) {
    *out += " (begin lost)";
  }
  for (const SpanSegment& seg : span.segments) {
    std::snprintf(buf, sizeof(buf), " [%s %" PRId64 "ns]",
                  SpanCompName(seg.comp), seg.end - seg.begin);
    *out += buf;
  }
  if (span.has_end) {
    std::snprintf(buf, sizeof(buf), " => %s@+%" PRId64 "ns",
                  SpanStatusName(span.status),
                  span.end_time - trace.spans.at(trace.root).begin);
    *out += buf;
  }
  *out += '\n';
}

void RenderSubtree(const Trace& trace, uint32_t span_id, int depth,
                   std::vector<uint32_t>* visited, std::string* out) {
  if (std::find(visited->begin(), visited->end(), span_id) != visited->end()) {
    return;
  }
  visited->push_back(span_id);
  const Span& span = trace.spans.at(span_id);
  AppendSpanLine(trace, span, depth, out);
  for (uint32_t child : span.children) {
    RenderSubtree(trace, child, depth + 1, visited, out);
  }
}

}  // namespace

std::string RenderTraceTree(const Trace& trace) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "trace %016" PRIx64 " op=%s spans=%zu",
                trace.id, SpanOpName(trace.op()), trace.spans.size());
  out += buf;
  if (trace.has_end) {
    std::snprintf(buf, sizeof(buf), " end=%s", SpanStatusName(trace.end_status));
    out += buf;
  } else {
    out += " ORPHAN";
  }
  const CriticalPath cp = ComputeCriticalPath(trace);
  if (cp.complete) {
    std::snprintf(buf, sizeof(buf), " e2e=%" PRId64 "ns", cp.e2e);
    out += buf;
  }
  out += '\n';
  std::vector<uint32_t> visited;
  if (trace.root != 0) {
    RenderSubtree(trace, trace.root, 1, &visited, &out);
  }
  // Unreachable spans (a parent record was lost) are still reported.
  for (const auto& [sid, span] : trace.spans) {
    if (std::find(visited.begin(), visited.end(), sid) == visited.end() &&
        trace.spans.find(span.parent) == trace.spans.end()) {
      RenderSubtree(trace, sid, 1, &visited, &out);
    }
  }
  if (cp.complete) {
    out += "  critical path:";
    for (size_t c = 1; c < kNumSpanComps; ++c) {
      if (cp.components[c] != 0) {
        std::snprintf(buf, sizeof(buf), " %s=%" PRId64 "ns",
                      SpanCompName(static_cast<SpanComp>(c)),
                      cp.components[c]);
        out += buf;
      }
    }
    out += '\n';
  }
  return out;
}

namespace {

struct Lane {
  SimTime busy_until = 0;
};

void AppendEvent(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (!out->empty()) {
    *out += ",\n";
  }
  *out += buf;
}

}  // namespace

std::string PerfettoJson(const SpanForest& forest) {
  // Greedy lane assignment: per node, overlapping spans go on distinct tids
  // so concurrent requests render side by side instead of on top of each
  // other. Spans are placed in (begin, trace, id) order for determinism.
  struct Placed {
    const Trace* trace;
    const Span* span;
    uint32_t tid = 0;
  };
  std::vector<Placed> placed;
  for (const auto& [tid_, trace] : forest.traces) {
    for (const auto& [sid, span] : trace.spans) {
      placed.push_back(Placed{&trace, &span});
    }
  }
  std::stable_sort(placed.begin(), placed.end(),
                   [](const Placed& x, const Placed& y) {
                     if (x.span->node != y.span->node) {
                       return x.span->node < y.span->node;
                     }
                     if (x.span->begin != y.span->begin) {
                       return x.span->begin < y.span->begin;
                     }
                     if (x.trace->id != y.trace->id) {
                       return x.trace->id < y.trace->id;
                     }
                     return x.span->id < y.span->id;
                   });
  std::map<uint16_t, std::vector<Lane>> lanes_by_node;
  std::map<std::pair<uint64_t, uint32_t>, uint32_t> tid_of;
  for (Placed& p : placed) {
    auto& lanes = lanes_by_node[p.span->node];
    uint32_t lane = 0;
    while (lane < lanes.size() && lanes[lane].busy_until > p.span->begin) {
      lane++;
    }
    if (lane == lanes.size()) {
      lanes.push_back(Lane{});
    }
    lanes[lane].busy_until = p.span->extent_end() + 1;
    p.tid = lane + 1;
    tid_of[{p.trace->id, p.span->id}] = p.tid;
  }

  std::string ev;
  for (const auto& [node, lanes] : lanes_by_node) {
    AppendEvent(&ev,
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                "\"args\":{\"name\":\"node %u\"}}",
                node, node);
  }
  auto us = [](SimTime t) { return static_cast<double>(t) / 1000.0; };
  for (const Placed& p : placed) {
    const Span& s = *p.span;
    AppendEvent(&ev,
                "{\"name\":\"%s %08" PRIx32
                "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                "\"pid\":%u,\"tid\":%u,\"args\":{\"trace\":\"%016" PRIx64
                "\",\"status\":\"%s\"}}",
                SpanOpName(p.trace->op()), s.id, us(s.begin),
                us(s.extent_end() - s.begin), s.node, p.tid,
                p.trace->id, s.has_end ? SpanStatusName(s.status) : "open");
    for (const SpanSegment& seg : s.segments) {
      AppendEvent(&ev,
                  "{\"name\":\"%s\",\"cat\":\"seg\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":%u,\"tid\":%u}",
                  SpanCompName(seg.comp), us(seg.begin),
                  us(seg.end - seg.begin), s.node, p.tid);
    }
    // One flow per parent edge, keyed by the child span id (globally unique):
    // "s" leaves the parent at the hand-off point, "f" lands at our begin.
    if (s.parent != 0) {
      auto parent_it = p.trace->spans.find(s.parent);
      auto parent_tid = tid_of.find({p.trace->id, s.parent});
      if (parent_it != p.trace->spans.end() &&
          parent_tid != tid_of.end()) {
        const Span& parent = parent_it->second;
        const SimTime leave =
            std::min(std::max(parent.begin, s.begin), parent.extent_end());
        AppendEvent(&ev,
                    "{\"name\":\"hop\",\"cat\":\"flow\",\"ph\":\"s\","
                    "\"id\":%" PRIu32 ",\"ts\":%.3f,\"pid\":%u,\"tid\":%u}",
                    s.id, us(leave), parent.node, parent_tid->second);
        AppendEvent(&ev,
                    "{\"name\":\"hop\",\"cat\":\"flow\",\"ph\":\"f\","
                    "\"bp\":\"e\",\"id\":%" PRIu32
                    ",\"ts\":%.3f,\"pid\":%u,\"tid\":%u}",
                    s.id, us(s.begin), s.node, p.tid);
      }
    }
  }
  // Health incidents as process-scoped instant events: the vertical markers
  // line up against the node's span lanes at the detection time.
  for (const SpanForest::Incident& inc : forest.incidents) {
    AppendEvent(&ev,
                "{\"name\":\"%s\",\"cat\":\"health\",\"ph\":\"i\","
                "\"ts\":%.3f,\"pid\":%u,\"tid\":0,\"s\":\"p\","
                "\"args\":{\"value\":%.6g,\"threshold\":%" PRIu32 "}}",
                IncidentClassName(static_cast<IncidentClass>(inc.cls)),
                us(inc.time), inc.node, inc.value, inc.threshold);
  }
  return "{\"traceEvents\":[\n" + ev + "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace gms
