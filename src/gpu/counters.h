/// \file counters.h
/// \brief Work-proportional performance counters for the simulated device.
///
/// On a machine whose core count differs from the paper's testbed, wall
/// clock alone cannot reproduce speedup *ratios*. These counters meter the
/// algorithmic work each join variant performs (fragments shaded, PIP tests,
/// bytes transferred host→device, atomic accumulations), which is machine
/// independent and determines the paper's performance ordering.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace rj::gpu {

/// Plain-value copy of a Counters instance at one point in time. Copyable
/// (unlike Counters, whose atomics pin it in place), so QueryService can
/// attach per-query accounting snapshots to futures-based results.
struct CountersSnapshot {
  /// Fragments shaded: one per point a point pass draws, plus one per
  /// pixel a polygon pass scans. The raster joins scissor the polygon
  /// pass to the pixels their scan's points can reach, so a sharded query
  /// counts each shard's own region, not S whole canvases.
  std::uint64_t fragments = 0;
  std::uint64_t vertices = 0;
  std::uint64_t bytes_transferred = 0;
  std::uint64_t atomic_adds = 0;
  std::uint64_t pip_tests = 0;
  std::uint64_t render_passes = 0;
  std::uint64_t batches = 0;
  std::uint64_t blocks_scanned = 0;  ///< zone-map decisions: block read
  std::uint64_t blocks_pruned = 0;   ///< zone-map decisions: block skipped
  std::uint64_t shards_routed = 0;   ///< routing decisions: shard executed
  std::uint64_t shards_skipped = 0;  ///< routing decisions: shard skipped

  /// Per-field difference (work performed between two snapshots).
  CountersSnapshot DeltaSince(const CountersSnapshot& earlier) const {
    CountersSnapshot d;
    d.fragments = fragments - earlier.fragments;
    d.vertices = vertices - earlier.vertices;
    d.bytes_transferred = bytes_transferred - earlier.bytes_transferred;
    d.atomic_adds = atomic_adds - earlier.atomic_adds;
    d.pip_tests = pip_tests - earlier.pip_tests;
    d.render_passes = render_passes - earlier.render_passes;
    d.batches = batches - earlier.batches;
    d.blocks_scanned = blocks_scanned - earlier.blocks_scanned;
    d.blocks_pruned = blocks_pruned - earlier.blocks_pruned;
    d.shards_routed = shards_routed - earlier.shards_routed;
    d.shards_skipped = shards_skipped - earlier.shards_skipped;
    return d;
  }

  /// Per-field sum (the dual of DeltaSince; pool totals and sharded
  /// gather both merge snapshots with this, so the field list lives in
  /// exactly one place besides DeltaSince).
  CountersSnapshot Plus(const CountersSnapshot& other) const {
    CountersSnapshot s;
    s.fragments = fragments + other.fragments;
    s.vertices = vertices + other.vertices;
    s.bytes_transferred = bytes_transferred + other.bytes_transferred;
    s.atomic_adds = atomic_adds + other.atomic_adds;
    s.pip_tests = pip_tests + other.pip_tests;
    s.render_passes = render_passes + other.render_passes;
    s.batches = batches + other.batches;
    s.blocks_scanned = blocks_scanned + other.blocks_scanned;
    s.blocks_pruned = blocks_pruned + other.blocks_pruned;
    s.shards_routed = shards_routed + other.shards_routed;
    s.shards_skipped = shards_skipped + other.shards_skipped;
    return s;
  }
};

/// Aggregated counters for one query execution. Thread-safe increments.
class Counters {
 public:
  void Reset();

  /// Point-in-time copy of every counter (thread-safe reads).
  CountersSnapshot Snapshot() const {
    CountersSnapshot s;
    s.fragments = fragments();
    s.vertices = vertices();
    s.bytes_transferred = bytes_transferred();
    s.atomic_adds = atomic_adds();
    s.pip_tests = pip_tests();
    s.render_passes = render_passes();
    s.batches = batches();
    s.blocks_scanned = blocks_scanned();
    s.blocks_pruned = blocks_pruned();
    s.shards_routed = shards_routed();
    s.shards_skipped = shards_skipped();
    return s;
  }

  void AddFragments(std::uint64_t n) { fragments_ += n; }
  void AddVerticesProcessed(std::uint64_t n) { vertices_ += n; }
  void AddBytesTransferred(std::uint64_t n) { bytes_transferred_ += n; }
  void AddAtomicAdds(std::uint64_t n) { atomic_adds_ += n; }
  void AddPipTests(std::uint64_t n) { pip_tests_ += n; }
  void AddRenderPasses(std::uint64_t n) { render_passes_ += n; }
  void AddBatches(std::uint64_t n) { batches_ += n; }
  void AddBlocksScanned(std::uint64_t n) { blocks_scanned_ += n; }
  void AddBlocksPruned(std::uint64_t n) { blocks_pruned_ += n; }
  void AddShardsRouted(std::uint64_t n) { shards_routed_ += n; }
  void AddShardsSkipped(std::uint64_t n) { shards_skipped_ += n; }

  std::uint64_t fragments() const { return fragments_; }
  std::uint64_t vertices() const { return vertices_; }
  std::uint64_t bytes_transferred() const { return bytes_transferred_; }
  std::uint64_t atomic_adds() const { return atomic_adds_; }
  std::uint64_t pip_tests() const { return pip_tests_; }
  std::uint64_t render_passes() const { return render_passes_; }
  std::uint64_t batches() const { return batches_; }
  std::uint64_t blocks_scanned() const { return blocks_scanned_; }
  std::uint64_t blocks_pruned() const { return blocks_pruned_; }
  std::uint64_t shards_routed() const { return shards_routed_; }
  std::uint64_t shards_skipped() const { return shards_skipped_; }

  std::string ToString() const;

 private:
  std::atomic<std::uint64_t> fragments_{0};
  std::atomic<std::uint64_t> vertices_{0};
  std::atomic<std::uint64_t> bytes_transferred_{0};
  std::atomic<std::uint64_t> atomic_adds_{0};
  std::atomic<std::uint64_t> pip_tests_{0};
  std::atomic<std::uint64_t> render_passes_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> blocks_scanned_{0};
  std::atomic<std::uint64_t> blocks_pruned_{0};
  std::atomic<std::uint64_t> shards_routed_{0};
  std::atomic<std::uint64_t> shards_skipped_{0};
};

}  // namespace rj::gpu
