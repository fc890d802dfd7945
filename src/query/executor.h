/// \file executor.h
/// \brief Query executor: prepares polygon data, places the query on the
/// dataset's shards, runs the chosen join operator on each, and gathers.
///
/// Owns the polygon processing the paper measures in Table 1
/// (triangulation, grid indexes, the accurate variant's boundary masks) —
/// built once per dataset, lazily, on first use — and the device(s) it
/// executes on.
///
/// One execution shape: a dataset is a list of shards, each a
/// data::PointBlockSource plus its zone map and home device — the batched
/// point stream the paper treats resident, out-of-core and disk-resident
/// data as (§5). An in-memory table is one shard, a block file one disk
/// shard, a data::ShardedTable one shard per partition (home device
/// s mod pool size). Every query — solo or a fusion group — runs the same
/// placement → scatter → ordered-merge path:
///
///  * placement (PlanPlacement) skips shards whose zone map provably cannot
///    contribute — no bbox overlap with the query's region (the polygon
///    extent, padded by one canvas pixel for the raster variants), or no
///    row can pass its filters (join::ZoneMapCanMatch, conservative-exact)
///    — reuses cached per-shard partials, and picks each executing shard's
///    device among its home and hot-shard read replicas (least loaded
///    wins). Disk shards prune their blocks against the same region;
///  * scatter runs each placed shard's join on its device — in parallel,
///    or on the calling thread when exactly one shard executes;
///  * gather merges partials through agg::MergePartials in ascending shard
///    order, so results are bitwise identical for any shard, worker or
///    replica count in the integer-weight regime (docs/SERVICE.md
///    "Determinism under sharding").
///
/// Where shard kinds differ it is data, not a code path: a RAM shard cuts
/// its rows into grant-sized batches per query, a disk shard streams its
/// blocks as batches.
///
/// Thread-safety contract (docs/SERVICE.md): one Executor may serve
/// concurrent Execute() calls from many threads. The preprocessing caches
/// (triangulation, grid indexes, boundary masks) are built once under an
/// internal mutex and then shared read-only; everything else in Execute()
/// works on per-call state. Mutating cost_params() while queries are in
/// flight is not synchronized — configure it before serving traffic.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "data/point_block_source.h"
#include "data/sharded_table.h"
#include "gpu/device.h"
#include "gpu/device_pool.h"
#include "index/grid_index.h"
#include "join/fused_join.h"
#include "join/join_common.h"
#include "query/optimizer.h"
#include "query/query.h"
#include "query/query_spec.h"
#include "query/result.h"
#include "raster/fbo.h"
#include "triangulate/triangulation.h"

namespace rj {

namespace query {
class ResultCache;   // result_cache.h — result memoization (optional)
class PlanCache;     // result_cache.h — admission/batch-plan memoization
struct PlanCacheStats;
}  // namespace query

/// Device-memory footprint of one query, in the units the admission
/// controller reserves. All sizes derive from the upload stride (x, y plus
/// referenced attribute columns, float32 each) and the fixed per-query
/// uploads (the triangle VBO for the bounded raster variant).
///
/// These are **per-shard** figures: every executing shard uploads its own
/// triangle VBO and runs its own batch pipeline on its device, so a device
/// hosting k executing shards needs k× the grant (ShardPlacement::hosted
/// gives the shape; QueryService multiplies).
struct AdmissionPlan {
  /// Interleaved VBO bytes per point (0 when the variant never touches
  /// device memory, e.g. the CPU index join).
  std::size_t bytes_per_point = 0;
  /// Batch-independent peak allocation (triangle VBO upload).
  std::size_t fixed_bytes = 0;
  /// Smallest grant the query can make progress with: the smallest
  /// batches its shards can take (one point for a RAM shard, one block for
  /// a disk shard) plus the fixed uploads. A query whose min_bytes exceed
  /// the device budget can never run and must be rejected, not queued.
  std::size_t min_bytes = 0;
  /// Grant that needs no further batching: the largest RAM shard resident,
  /// or (disk shards) the in-flight blocks.
  std::size_t full_bytes = 0;
};

/// Executes spatial aggregation queries against one (points, polygons)
/// pair. Polygon preprocessing (triangulation, grid indexes, boundary
/// masks) is computed lazily and cached across queries and shards: it
/// depends only on the immutable polygons, the world and the resolution,
/// so a query's results and counters do not depend on whether it ran cold
/// or warm.
class Executor {
 public:
  /// In-memory table: one RAM shard on `device`. Neither `points` nor
  /// `polys` are copied; both must outlive this. Polygon ids must be
  /// 0..n-1 (use AssignSequentialIds if needed).
  Executor(gpu::Device* device, const PointTable* points,
           const PolygonSet* polys);

  /// Block source (typically an mmap-backed data::BlockFileReader — the
  /// disk-resident registration path): one shard on `device` whose
  /// region-selected blocks stream as zero-copy views through the
  /// two-stage upload pipeline; results are bitwise identical to an
  /// in-memory executor over data::MaterializeBlocks(*source). Neither
  /// `source` nor `polys` are copied; both must outlive this.
  Executor(gpu::Device* device, const data::PointBlockSource* source,
           const PolygonSet* polys);

  /// Sharded table: one RAM shard per partition, shard s homed on pool
  /// device s mod pool->size(). `pool`, `shards`, and `polys` must outlive
  /// this. The pool must have a uniform max_fbo_dim (validated per query)
  /// so all shards rasterize on one pixel grid.
  Executor(gpu::DevicePool* pool, const data::ShardedTable* shards,
           const PolygonSet* polys);

  ~Executor();

  /// Runs the query and returns finalized per-polygon values. Thread-safe;
  /// concurrent calls share the preprocessing caches. When
  /// query.device_memory_cap_bytes is set, point batches are sized so each
  /// shard's device allocations stay within that grant. With a result
  /// cache attached (set_result_cache), repeats of a semantically-equal
  /// query are served from the cache (single-flight: concurrent identical
  /// queries execute once) with scrubbed diagnostics and cache_hit set;
  /// the semantic payload is bitwise identical.
  Result<QueryResult> Execute(const SpatialAggQuery& query);

  /// Public-API form: validates the spec's column references against this
  /// dataset, converts, and executes. Prefer this (with QuerySpecBuilder)
  /// over poking SpatialAggQuery fields.
  Result<QueryResult> Execute(const QuerySpec& spec,
                              const ExecPolicy& policy = {});

  /// One query's (or fusion group's) shard placement: which shards
  /// execute (and where), which are routing-skipped, and which reuse
  /// cached partials. `hosted` is the grant-multiplication shape for
  /// exactly the devices that will execute — admission covers placed work
  /// only, never skipped or cached shards.
  struct ShardPlacement {
    /// Sentinels in `device_of_shard` for shards that do not execute.
    static constexpr std::size_t kSkipped = static_cast<std::size_t>(-1);
    static constexpr std::size_t kCached = static_cast<std::size_t>(-2);
    /// Per shard: the device index that executes it, or a sentinel.
    std::vector<std::size_t> device_of_shard;
    /// Per shard, per member: the pinned cached partials (set iff kCached).
    /// Pinned at plan time so a concurrent eviction cannot strand the
    /// execution.
    std::vector<std::vector<std::shared_ptr<const QueryResult>>> cached;
    /// Executing shards per device, in device order — what QueryService
    /// multiplies per-shard grants by (all-or-nothing reservation over
    /// exactly the devices doing work, replicas included).
    std::vector<std::size_t> hosted;
    /// The query's spatial region: shards route and disk blocks prune
    /// against it (see PruningRegion).
    BBox region;
    std::size_t executed = 0;    ///< shards that will run a join
    std::size_t cache_hits = 0;  ///< shards served from the partial cache
    std::size_t skipped = 0;     ///< shards pruned by routing
  };

  /// Plans routing, per-shard cache reuse, and replica-aware device
  /// placement for a fusion group (see the file comment). A shard is
  /// skipped only when no member can match it, and served from the cache
  /// only when every member's partial is cached. When every shard would be
  /// skipped, shard 0 is kept on its home device so the merge always sees
  /// one correctly-shaped partial. Thread-safe.
  Result<ShardPlacement> PlanFusedPlacement(
      const std::vector<SpatialAggQuery>& queries);
  /// PlanFusedPlacement of the group {query}.
  Result<ShardPlacement> PlanPlacement(const SpatialAggQuery& query);

  /// Executes a fusion group — compatible queries over this dataset (same
  /// resolved variant; a group of two or more needs a raster variant with
  /// equal ε for bounded or equal canvas_dim for accurate; aggregates,
  /// filters and §5-range requests are free per member) — as ONE shared
  /// scan per shard: one upload pipeline, one vertex stage per point,
  /// per-member fragment accumulation targets (join/fused_join.h). A group
  /// of one runs the member's own join, any variant. Returns one
  /// QueryResult per query, in input order, each bitwise identical to
  /// running that query alone — values, arrays, and §5 ranges — for any
  /// worker/shard count.
  ///
  /// `placement` may be null (planned internally); otherwise it must come
  /// from PlanFusedPlacement of a semantically-equal group — QueryService
  /// plans first so the grant covers exactly the executing devices.
  ///
  /// Group-level diagnostics: timing, counters, and total_seconds describe
  /// the shared execution and are replicated across members (per-member
  /// attribution of a shared scan would be fiction). The first member's
  /// execution knobs (device_memory_cap_bytes, overlap_transfers, routing,
  /// pruning) govern the shared scan; knobs never change result bits.
  /// Never consults the whole-query result cache.
  Result<std::vector<QueryResult>> ExecuteFused(
      const std::vector<SpatialAggQuery>& queries,
      const ShardPlacement* placement = nullptr);

  /// ExecuteFused of the group {query}: always runs the join (the whole-
  /// query result cache is not consulted; routing and the per-shard
  /// partial cache apply unless the query disables them). The uncached
  /// baseline for tests/benches, and the compute path a caching layer
  /// that does its own key lookup (QueryService) wraps.
  Result<QueryResult> ExecuteUncached(const SpatialAggQuery& query,
                                      const ShardPlacement* placement =
                                          nullptr);

  /// Installs the read-replica map: `replicas[s]` lists extra device
  /// indexes that may execute shard s in addition to its home device.
  /// QueryService maintains this from its EWMA shard heat; placement picks
  /// the least-loaded candidate. Replicas never change result bits — every
  /// device runs the identical shard join. Thread-safe; an empty vector
  /// (or entry) means home-only.
  void SetShardReplicas(std::vector<std::vector<std::size_t>> replicas)
      RJ_EXCLUDES(replica_mutex_);
  std::vector<std::vector<std::size_t>> shard_replicas() const
      RJ_EXCLUDES(replica_mutex_);

  /// Admission footprint of a fusion group, per shard: the upload stride
  /// of the UNION of all members' referenced columns (the shared scan
  /// ships one interleaved VBO covering every member — see
  /// FusedUploadColumns), the triangle VBO for the bounded variant, and
  /// each shard's batch rule (grant-sized for RAM shards, one block for
  /// disk shards). Builds (and caches) the triangulation when the bounded
  /// variant needs its VBO size. Thread-safe.
  Result<AdmissionPlan> PlanFusedAdmission(
      const std::vector<SpatialAggQuery>& queries);
  /// PlanFusedAdmission of the group {query}.
  Result<AdmissionPlan> PlanAdmission(const SpatialAggQuery& query);

  /// Resolves kAuto to a concrete variant via the cost model; other
  /// variants pass through unchanged.
  JoinVariant ResolveVariant(const SpatialAggQuery& query) const;

  std::size_t num_shards() const { return shards_.size(); }
  /// Devices shards execute on (the pool, or the one device).
  std::size_t num_devices() const { return pool_->size(); }

  /// World extent used for the canvas: polygon extent ∪ point extent.
  const BBox& world() const { return world_; }

  /// The object this executor was constructed over (point table, block
  /// source, or sharded table): the dataset identity QueryService
  /// deduplicates re-registrations by.
  const void* backing() const { return backing_; }
  /// The block source, when constructed over one; null otherwise.
  const data::PointBlockSource* block_source() const {
    return shards_.size() == 1 && shards_[0].table == nullptr
               ? shards_[0].source
               : nullptr;
  }
  /// Rows across every shard.
  std::size_t num_points() const { return num_points_; }
  /// True when some shard's blocks live on disk.
  bool disk_resident() const;
  /// Attribute columns of the dataset (uniform across shards), the bound
  /// submit-time validation checks filter/aggregate columns against.
  std::size_t num_attribute_columns() const {
    return shards_[0].source->num_attributes();
  }
  const PolygonSet* polys() const { return polys_; }
  /// Device 0: the single device, or the pool's primary device (hosts
  /// gather-phase work such as the result-range recomputation).
  gpu::Device* device() const { return pool_->primary(); }

  /// Cached triangulation (built on first raster-variant query).
  [[nodiscard]] Result<const TriangleSoup*> GetTriangulation()
      RJ_EXCLUDES(prep_mutex_);

  /// Cached exact-geometry CPU grid index at `resolution`.
  [[nodiscard]] Result<const GridIndex*> GetCpuIndex(std::int32_t resolution)
      RJ_EXCLUDES(prep_mutex_);

  /// Cached MBR-mode grid index, shared by the device index-join variant
  /// and the accurate raster join's boundary points. The paper rebuilds it
  /// per query; caching it across queries (it is a pure function of the
  /// immutable polygon set, world, and resolution) removes the rebuild
  /// from repeated traffic without changing results — both joins consume
  /// it prebuilt.
  [[nodiscard]] Result<const GridIndex*> GetDeviceIndex(
      std::int32_t resolution) RJ_EXCLUDES(prep_mutex_);

  /// Cached boundary mask of the accurate variant's dim × dim canvas over
  /// world() (BuildBoundaryMask; step 1 of §4.3), built on the primary
  /// device's pool. Its outline fragments are preprocessing: they are
  /// metered into a private counter, never into a query's counters.
  /// InvalidArgument unless 0 < dim <= max_fbo_dim. The cache holds at
  /// most kBoundaryMaskCacheBytes of masks (always at least the newest),
  /// evicting the least recently used, so a client cycling through dims
  /// cannot grow it; a caller's reference outlives an eviction.
  [[nodiscard]] Result<std::shared_ptr<const raster::Fbo>> GetBoundaryMask(
      std::int32_t dim) RJ_EXCLUDES(prep_mutex_);

  /// Byte budget of the boundary-mask cache: four 1024² masks.
  static constexpr std::size_t kBoundaryMaskCacheBytes = std::size_t{64}
                                                         << 20;

  /// Bytes of boundary masks cached now (at most kBoundaryMaskCacheBytes,
  /// or one mask when a single mask is larger).
  std::size_t boundary_mask_cache_bytes() RJ_EXCLUDES(prep_mutex_);

  /// Cost-model parameters for the kAuto variant. Not synchronized:
  /// configure before serving concurrent queries.
  CostModelParams* cost_params() { return &cost_params_; }

  /// Attaches a (non-owning, shared) result cache; Execute() then serves
  /// repeated queries from it, and multi-shard executions keep per-shard
  /// partials in it. `dataset_key` is this dataset's identity within the
  /// cache (several executors may share one cache under distinct keys).
  /// Not synchronized: attach before serving traffic.
  void set_result_cache(query::ResultCache* cache,
                        std::uint64_t dataset_key = 0) {
    result_cache_ = cache;
    dataset_cache_key_ = dataset_key;
  }
  query::ResultCache* result_cache() const { return result_cache_; }
  std::uint64_t dataset_cache_key() const { return dataset_cache_key_; }

  /// Monotone dataset version, part of every cache key: bump it whenever
  /// the underlying data changes (re-registration, out-of-band mutation)
  /// and all prior cached results become unreachable (they age out of the
  /// LRU). BumpDatasetVersion also drops the memoized admission/batch
  /// plans, whose full-working-set term depends on the point count.
  /// Thread-safe.
  std::uint64_t dataset_version() const {
    return dataset_version_.load(std::memory_order_acquire);
  }
  void BumpDatasetVersion();

  /// Plan-cache counters (admission/batch-plan memoization hits).
  query::PlanCacheStats plan_cache_stats() const;

 private:
  /// One partition of the dataset.
  struct Shard {
    const data::PointBlockSource* source = nullptr;
    /// RAM shards: the rows, re-cut per query into grant-sized batches.
    /// Null for block sources, whose blocks are the batches.
    const PointTable* table = nullptr;
    /// Routing zone map; null = never skipped.
    const data::BlockZoneMap* zone = nullptr;
    std::size_t home = 0;  ///< device index
  };

  /// Per-group preamble: aggregate validation, variant resolution and
  /// group compatibility, the union upload stride, and the preprocessing
  /// the resolved variant needs (triangulation, index, boundary mask).
  struct GroupSetup {
    JoinVariant variant = JoinVariant::kAuto;
    std::vector<FusedMemberSpec> members;
    /// Union upload stride (0 for kIndexCpu, which uploads nothing).
    std::size_t stride = 0;
    const TriangleSoup* soup = nullptr;       ///< raster variants
    const GridIndex* cpu_index = nullptr;     ///< kIndexCpu
    const GridIndex* device_index = nullptr;  ///< kIndexDevice, kAccurateRaster
    /// kAccurateRaster: the canvas's boundary mask (held for the group's
    /// execution; the cache may evict it meanwhile).
    std::shared_ptr<const raster::Fbo> boundary_mask;
  };

  /// Shared constructor head: the device pool, polygons, plan cache.
  Executor(std::unique_ptr<gpu::DevicePool> owned_pool,
           gpu::DevicePool* pool, const PolygonSet* polys);
  /// Shared constructor tail: world extent and cost-model inputs.
  void InitWorldAndCosts(const BBox& points_extent);
  /// Appends a RAM shard over `table` (routing zone `zone`, may be null).
  void AddTableShard(const PointTable* table,
                     const data::BlockZoneMap* zone, std::size_t home);

  Result<GroupSetup> PrepareGroup(
      const std::vector<SpatialAggQuery>& queries);

  /// True when the group reads and writes per-shard partials: a
  /// multi-shard dataset with a cache attached, and every member
  /// cacheable (a §5-ranges member needs the shard FBOs, which are not
  /// stored; a bypass must not read stale entries either).
  bool UsesShardCache(const std::vector<SpatialAggQuery>& queries,
                      JoinVariant variant) const;

  /// The query's spatial region, computed once per query for shard routing
  /// and disk-block pruning alike: the polygon set's extent inflated by
  /// one canvas pixel for the raster variants (a contributing point's
  /// pixel must touch a polygon-covered pixel, so it lies within one
  /// pixel of the polygon extent; the index variants are PIP-exact and
  /// need no pad). Conservative by construction — rows outside this
  /// region provably contribute nothing.
  Result<BBox> PruningRegion(JoinVariant variant,
                             const SpatialAggQuery& query) const;

  /// Runs the group's join over one shard on `device`: picks the shard's
  /// scan (grant-sized batches of a RAM shard, or the region-selected
  /// blocks of a disk shard), then the variant's group core for a raster
  /// group of any size, or RunIndexJoin.
  Result<FusedJoinOutput> JoinShard(gpu::Device* device, const Shard& shard,
                                    const GroupSetup& setup,
                                    const std::vector<SpatialAggQuery>& queries,
                                    const BBox& region);

  /// The index joins (a group of one): the group's single member over
  /// blocks `scan` of `source`.
  Result<JoinResult> RunIndexJoin(gpu::Device* device,
                                  const data::PointBlockSource& source,
                                  std::vector<std::size_t> scan, bool overlap,
                                  const GroupSetup& setup,
                                  const SpatialAggQuery& query) const;

  std::unique_ptr<gpu::DevicePool> owned_pool_;  ///< single-device ctors
  gpu::DevicePool* pool_;
  const PolygonSet* polys_;
  std::vector<Shard> shards_;
  /// Sources of the RAM shards (their Shard::source points here).
  std::vector<std::unique_ptr<data::TableBlockSource>> table_sources_;
  std::size_t num_points_ = 0;
  const void* backing_ = nullptr;  ///< see backing()
  query::ResultCache* result_cache_ = nullptr;
  std::uint64_t dataset_cache_key_ = 0;
  std::atomic<std::uint64_t> dataset_version_{0};
  /// Memoizes admission footprints and grant-capped batch plans across
  /// queries (internally synchronized; see result_cache.h).
  std::unique_ptr<query::PlanCache> plan_cache_;
  BBox world_;
  BBox polygon_extent_;
  CostModelParams cost_params_;
  /// Computed once at construction (datasets are immutable); makes kAuto
  /// resolution O(1) on the per-query dispatch path.
  CostModelInputs cost_inputs_;

  /// Guards the lazily-built caches below. Once built they are immutable
  /// (indexes are per-resolution map entries with stable addresses), so
  /// the pointers Get* return under the lock stay valid — and safely
  /// readable without it — for the Executor's lifetime; boundary masks,
  /// which the cache may evict, are handed out as shared references. The
  /// analysis cannot see that build-once contract, which is why the
  /// escaping pointers (not the guarded containers) are handed to callers.
  Mutex prep_mutex_;
  bool soup_built_ RJ_GUARDED_BY(prep_mutex_) = false;
  TriangleSoup soup_ RJ_GUARDED_BY(prep_mutex_);
  double triangulation_seconds_ RJ_GUARDED_BY(prep_mutex_) = 0.0;
  std::map<std::int32_t, std::unique_ptr<GridIndex>> cpu_indexes_
      RJ_GUARDED_BY(prep_mutex_);
  /// MBR-mode indexes (device and accurate variants), cached like
  /// cpu_indexes_.
  std::map<std::int32_t, std::unique_ptr<GridIndex>> device_indexes_
      RJ_GUARDED_BY(prep_mutex_);
  /// Accurate-variant boundary masks, one per canvas dim, LRU-bounded by
  /// kBoundaryMaskCacheBytes (GetBoundaryMask).
  struct CachedMask {
    std::shared_ptr<const raster::Fbo> mask;
    std::uint64_t last_used = 0;  ///< mask_clock_ at the last lookup
  };
  std::map<std::int32_t, CachedMask> boundary_masks_
      RJ_GUARDED_BY(prep_mutex_);
  std::size_t boundary_mask_bytes_ RJ_GUARDED_BY(prep_mutex_) = 0;
  std::uint64_t mask_clock_ RJ_GUARDED_BY(prep_mutex_) = 0;

  /// Guards the replica map (written by QueryService's heat tracker while
  /// queries are in flight; read by every placement).
  mutable Mutex replica_mutex_;
  std::vector<std::vector<std::size_t>> shard_replicas_
      RJ_GUARDED_BY(replica_mutex_);
};

/// Sets poly[i].id = i for all i.
void AssignSequentialIds(PolygonSet* polys);

}  // namespace rj
