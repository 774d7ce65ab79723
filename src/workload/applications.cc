#include "src/workload/applications.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "src/core/directory.h"
#include "src/workload/patterns.h"

namespace gms {

namespace {

// Distinct inode numbers per application region; arbitrary but stable.
constexpr uint64_t kCadDatabaseInode = 100;
constexpr uint64_t kRenderSceneInode = 200;
constexpr uint64_t kWebIndexInode = 300;
constexpr uint64_t kCompileHeadersInode = 400;
constexpr uint64_t kCompileSourceInodeBase = 1000;
constexpr uint64_t kCompileObjectInodeBase = 2000;
constexpr uint64_t kCompileTempInodeBase = 3000;
constexpr uint64_t kCompileBinaryInode = 900;
constexpr uint64_t kOO7Region = 1;
constexpr uint64_t kVlsiRegion = 2;

uint64_t Scaled(double scale, uint64_t value) {
  const uint64_t v = static_cast<uint64_t>(static_cast<double>(value) * scale);
  return std::max<uint64_t>(v, 16);
}

PageSet AnonSet(NodeId node, uint64_t region, uint64_t pages) {
  return PageSet{MakeAnonUid(node, region, 0), pages};
}

PageSet FileSet(NodeId server, uint64_t inode, uint64_t pages) {
  return PageSet{MakeFileUid(server, inode, 0), pages};
}

// Boeing CAD: replay of a synthesized page-level trace against a shared
// database file. The original traces recorded eight engineers working on a
// 500 MB parts database over four hours; the synthesis models an engineer's
// session as bursts: pick a region of interest (Zipf over the database),
// scan a contiguous run of part pages, occasionally revisit recent regions,
// with think-time compute between bursts. The session is generated as it is
// replayed, from its own seeded Rng, so no trace buffer (32 bytes per op) is
// held for the run.
class CadSessionPattern final : public AccessPattern {
 public:
  CadSessionPattern(PageSet db, uint64_t total_ops, uint64_t seed)
      : db_(db),
        remaining_(total_ops),
        regions_(std::max<uint64_t>(db.pages / 48, 1)),
        rng_(seed ^ 0xCAD) {}

  std::optional<AccessOp> Next(Rng& rng) override {
    (void)rng;
    if (remaining_ == 0) {
      return std::nullopt;
    }
    remaining_--;
    if (burst_left_ == 0) {
      StartBurst();
    }
    AccessOp op;
    op.compute = Microseconds(static_cast<int64_t>(
        30 + rng_.NextBelow(60)));  // trace replay: little compute per page
    // A part assembly's pages are adjacent in the object graph but
    // scattered on disk (no readahead win), like a real parts database.
    op.uid = db_.at((base_ + burst_pos_ * 769) % db_.pages);
    op.write = rng_.NextBool(0.04);  // occasional part updates
    burst_pos_++;
    burst_left_--;
    return op;
  }

 private:
  void StartBurst() {
    // Engineers roam the whole database; half the bursts revisit a part
    // assembly worked on earlier in the session (long reuse distance — the
    // pages have usually left local memory by then).
    uint64_t region;
    if (!recent_.empty() && rng_.NextBool(0.72)) {
      region = recent_[rng_.NextBelow(recent_.size())];
    } else {
      region = rng_.NextBelow(regions_);
      recent_.push_back(region);
      if (recent_.size() > 192) {
        recent_.erase(recent_.begin());
      }
    }
    base_ = (region * 48) % db_.pages;
    burst_left_ = 4 + rng_.NextBelow(24);
    burst_pos_ = 0;
  }

  PageSet db_;
  uint64_t remaining_;
  uint64_t regions_;
  Rng rng_;
  std::vector<uint64_t> recent_;
  uint64_t base_ = 0;
  uint64_t burst_pos_ = 0;
  uint64_t burst_left_ = 0;
};

}  // namespace

const char* AppName(AppKind kind) {
  switch (kind) {
    case AppKind::kBoeingCad:
      return "Boeing CAD";
    case AppKind::kVlsiRouter:
      return "VLSI Router";
    case AppKind::kCompileAndLink:
      return "Compile and Link";
    case AppKind::kOO7:
      return "OO7";
    case AppKind::kRender:
      return "Render";
    case AppKind::kWebQuery:
      return "Web Query Server";
  }
  return "?";
}

AppSpec MakeApp(AppKind kind, NodeId self, NodeId file_server, double scale,
                uint64_t seed) {
  switch (kind) {
    case AppKind::kBoeingCad:
      return MakeBoeingCad(self, file_server, scale, seed);
    case AppKind::kVlsiRouter:
      return MakeVlsiRouter(self, scale);
    case AppKind::kCompileAndLink:
      return MakeCompileAndLink(self, scale);
    case AppKind::kOO7:
      return MakeOO7(self, scale);
    case AppKind::kRender:
      return MakeRender(self, file_server, scale);
    case AppKind::kWebQuery:
      return MakeWebQueryServer(self, scale);
  }
  return {};
}

// Boeing CAD: see CadSessionPattern.
AppSpec MakeBoeingCad(NodeId self, NodeId file_server, double scale,
                      uint64_t seed) {
  (void)self;
  const uint64_t db_pages = Scaled(scale, 24576);  // 192 MB slice of the DB
  AppSpec spec;
  spec.name = AppName(AppKind::kBoeingCad);
  spec.footprint_pages = db_pages;
  spec.pattern = std::make_unique<CadSessionPattern>(
      FileSet(file_server, kCadDatabaseInode, db_pages),
      Scaled(scale, 320000), seed);
  return spec;
}

// VLSI Router: a memory-intensive anonymous heap. Routing a net touches a
// localized run of grid pages at a random location; significant paging on a
// small-memory machine.
AppSpec MakeVlsiRouter(NodeId self, double scale) {
  const uint64_t heap_pages = Scaled(scale, 18432);  // 144 MB heap
  const uint64_t total_ops = Scaled(scale, 80000);
  AppSpec spec;
  spec.name = AppName(AppKind::kVlsiRouter);
  spec.footprint_pages = heap_pages;
  // Grid cells adjacent in a route are scattered across the heap (and so
  // across swap): routing gets no readahead help, like the real router.
  spec.pattern = std::make_unique<ClusteredWalkPattern>(
      AnonSet(self, kVlsiRegion, heap_pages), total_ops,
      /*compute=*/Microseconds(600), /*mean_run=*/3.0,
      /*write_fraction=*/0.25, /*stride=*/397);
  return spec;
}

// Compile and Link: dominated by file I/O. Per compilation unit: scan the
// source, hit the shared headers (Zipf reuse), write the object file; a
// final link phase scans every object and the libraries sequentially and
// writes the binary.
AppSpec MakeCompileAndLink(NodeId self, double scale) {
  const uint64_t units = std::max<uint64_t>(Scaled(scale, 160), 6);
  const uint64_t header_pages = Scaled(scale, 12288);  // 96 MB of headers
  const uint64_t library_pages = Scaled(scale, 4096);  // 32 MB of libraries
  const uint64_t source_pages = 24;
  const uint64_t object_pages = 16;
  const uint64_t temp_pages = 24;
  const SimTime io_compute = Microseconds(120);

  std::vector<std::unique_ptr<AccessPattern>> phases;
  const PageSet headers = FileSet(self, kCompileHeadersInode, header_pages);
  for (uint64_t u = 0; u < units; u++) {
    const PageSet source =
        FileSet(self, kCompileSourceInodeBase + u, source_pages);
    const PageSet object =
        FileSet(self, kCompileObjectInodeBase + u, object_pages);
    const PageSet temp = FileSet(self, kCompileTempInodeBase + u, temp_pages);
    phases.push_back(std::make_unique<SequentialPattern>(
        source, source_pages, io_compute));
    // Header working set spans the whole build and exceeds local memory;
    // low skew makes the reuse distance long (the GMS win for this app).
    phases.push_back(std::make_unique<ZipfPattern>(
        headers, /*total_ops=*/360, Microseconds(150), /*theta=*/0.3));
    // cc1 writes the .s temp; the assembler reads it back and writes the
    // object.
    phases.push_back(std::make_unique<SequentialPattern>(
        temp, temp_pages, io_compute, /*write_fraction=*/1.0));
    phases.push_back(std::make_unique<SequentialPattern>(
        temp, temp_pages, io_compute));
    phases.push_back(std::make_unique<SequentialPattern>(
        object, object_pages, io_compute, /*write_fraction=*/1.0));
  }
  // Link: read every object and the libraries, write the binary.
  for (uint64_t u = 0; u < units; u++) {
    phases.push_back(std::make_unique<SequentialPattern>(
        FileSet(self, kCompileObjectInodeBase + u, object_pages), object_pages,
        io_compute));
  }
  phases.push_back(std::make_unique<SequentialPattern>(
      FileSet(self, kCompileBinaryInode + 1, library_pages), library_pages,
      io_compute));
  phases.push_back(std::make_unique<SequentialPattern>(
      FileSet(self, kCompileBinaryInode, units * object_pages),
      units * object_pages, io_compute, /*write_fraction=*/1.0));

  AppSpec spec;
  spec.name = AppName(AppKind::kCompileAndLink);
  spec.footprint_pages =
      header_pages + library_pages +
      units * (source_pages + temp_pages + 2 * object_pages);
  spec.pattern = std::make_unique<ChainPattern>(std::move(phases));
  return spec;
}

// OO7: builds a parts-assembly database in virtual memory (sequential
// writes), then performs traversals — pointer-chasing with modest locality,
// read-mostly, over a database larger than local memory.
AppSpec MakeOO7(NodeId self, double scale) {
  const uint64_t db_pages = Scaled(scale, 20480);  // 160 MB in VM
  const uint64_t traversal_ops = Scaled(scale, 60000);
  const PageSet db = AnonSet(self, kOO7Region, db_pages);

  std::vector<std::unique_ptr<AccessPattern>> phases;
  phases.push_back(std::make_unique<SequentialPattern>(
      db, db_pages, Microseconds(150), /*write_fraction=*/1.0));
  phases.push_back(std::make_unique<ZipfPattern>(
      db, traversal_ops, Microseconds(450), /*theta=*/0.35,
      /*write_fraction=*/0.02));

  AppSpec spec;
  spec.name = AppName(AppKind::kOO7);
  spec.footprint_pages = db_pages;
  spec.pattern = std::make_unique<ChainPattern>(std::move(phases));
  return spec;
}

// Render: displays a scene from a pre-computed database; as the viewpoint
// moves closer, the working set slides through the 178 MB file with heavy
// reuse inside the current view.
AppSpec MakeRender(NodeId self, NodeId file_server, double scale) {
  (void)self;
  const uint64_t scene_pages = Scaled(scale, 22784);  // 178 MB
  const uint64_t total_ops = Scaled(scale, 240000);
  AppSpec spec;
  spec.name = AppName(AppKind::kRender);
  spec.footprint_pages = scene_pages;
  spec.pattern = std::make_unique<SlidingWindowPattern>(
      FileSet(file_server, kRenderSceneInode, scene_pages), total_ops,
      /*compute=*/Microseconds(180), /*window_pages=*/Scaled(scale, 12288),
      /*advance_every=*/8, /*theta=*/0.4);
  return spec;
}

// Web Query Server: 150 typical user queries against a full-text index;
// query popularity is Zipf, so the index's hot spine stays cached while the
// long tail pages in.
AppSpec MakeWebQueryServer(NodeId self, double scale) {
  const uint64_t index_pages = Scaled(scale, 19200);  // 150 MB index
  const uint64_t total_ops = Scaled(scale, 140000);
  AppSpec spec;
  spec.name = AppName(AppKind::kWebQuery);
  spec.footprint_pages = index_pages;
  spec.pattern = std::make_unique<ZipfPattern>(
      FileSet(self, kWebIndexInode, index_pages), total_ops,
      /*compute=*/Microseconds(350), /*theta=*/0.6);
  return spec;
}

}  // namespace gms
