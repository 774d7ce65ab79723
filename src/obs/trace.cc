#include "src/obs/trace.h"

#include <cstring>

namespace gms {

void TraceDigest::Update(const TraceRecord* recs, size_t n) {
  // FNV-1a 64 over the raw bytes, record by record. TraceRecord has no
  // padding (32 bytes of fields), so hashing the object representation is
  // hashing the wire format.
  const unsigned char* bytes = reinterpret_cast<const unsigned char*>(recs);
  uint64_t h = fnv1a;
  for (size_t i = 0; i < n * sizeof(TraceRecord); i++) {
    h ^= bytes[i];
    h *= 1099511628211ULL;  // FNV-1a 64 prime
  }
  fnv1a = h;
  records += n;
}

std::string TraceDigest::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "fnv1a:%016llx:%llu",
                static_cast<unsigned long long>(fnv1a),
                static_cast<unsigned long long>(records));
  return buf;
}

Tracer::Tracer(uint32_t num_nodes, size_t ring_capacity) {
  rings_.resize(num_nodes);
  trace_seq_.assign(num_nodes, 0);
  span_seq_.assign(num_nodes, 0);
  if (ring_capacity == 0) {
    ring_capacity = 1;
  }
  for (Ring& ring : rings_) {
    ring.buf.resize(ring_capacity);
  }
}

Tracer::~Tracer() { Finish(); }

bool Tracer::OpenFile(const std::string& path) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  TraceFileHeader header{};
  std::memcpy(header.magic, kTraceMagic, sizeof(header.magic));
  header.version = kTraceVersion;
  header.record_size = sizeof(TraceRecord);
  header.num_nodes = static_cast<uint32_t>(rings_.size());
  if (std::fwrite(&header, sizeof(header), 1, f) != 1) {
    std::fclose(f);
    return false;
  }
  file_ = f;
  return true;
}

void Tracer::FlushRing(Ring& ring) {
  if (ring.used == 0) {
    return;
  }
  // The digest is the ring's own: it certifies the record order *within one
  // node*, whatever order the rings flush in.
  ring.digest.Update(ring.buf.data(), ring.used);
  if (file_ != nullptr) {
    std::fwrite(ring.buf.data(), sizeof(TraceRecord), ring.used, file_);
  }
  ring.used = 0;
}

const TraceDigest& Tracer::digest() const {
  // Fold the per-ring digests in node order: FNV-1a over each ring's
  // (fnv1a, records) pair as 16 little-endian bytes, empty rings included.
  // tools/trace_stats.py mirrors this fold from the file contents.
  TraceDigest combined;
  uint64_t h = combined.fnv1a;
  for (const Ring& ring : rings_) {
    const uint64_t pair[2] = {ring.digest.fnv1a, ring.digest.records};
    const unsigned char* bytes = reinterpret_cast<const unsigned char*>(pair);
    for (size_t i = 0; i < sizeof(pair); i++) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
    combined.records += ring.digest.records;
  }
  combined.fnv1a = h;
  combined_ = combined;
  return combined_;
}

void Tracer::Flush() {
  for (Ring& ring : rings_) {
    FlushRing(ring);
  }
  if (file_ != nullptr) {
    std::fflush(file_);
  }
}

void Tracer::Finish() {
  Flush();
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace gms
