#include "query/executor.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <thread>
#include <utility>

#include "agg/merge_partials.h"
#include "join/index_join.h"
#include "join/raster_join_accurate.h"
#include "join/raster_join_bounded.h"
#include "query/result_cache.h"
#include "raster/viewport.h"

namespace rj {

namespace {

/// Pixel-wise accumulation of one shard's point FBO into the gather
/// canvas, channel-appropriately: count/sum add, min/max blend. Because
/// every channel's per-shard partial is exactly representable in the
/// integer-weight regime, the accumulated FBO is bitwise identical to the
/// one a single shard would have produced from the whole point stream.
void AccumulateFbo(raster::Fbo* dst, const raster::Fbo& src) {
  raster::Fbo::Pixels& d = dst->mutable_data();
  const raster::Fbo::Pixels& s = src.data();
  for (std::size_t i = 0; i < d.size(); ++i) {
    switch (static_cast<int>(i % raster::kChannels)) {
      case raster::kChannelMin:
        d[i] = std::min(d[i], s[i]);
        break;
      case raster::kChannelMax:
        d[i] = std::max(d[i], s[i]);
        break;
      default:  // kChannelCount, kChannelSum
        d[i] += s[i];
        break;
    }
  }
}

/// Per-member half of a fusion group, derived from the queries. The §5
/// range request is honored for the bounded variant only, the one join
/// that computes ranges.
std::vector<FusedMemberSpec> FusedMembers(
    const std::vector<SpatialAggQuery>& queries, JoinVariant variant) {
  std::vector<FusedMemberSpec> members(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    members[i].weight_column = queries[i].EffectiveAggregateColumn();
    members[i].filters = queries[i].filters;
    members[i].compute_result_ranges =
        queries[i].with_result_ranges &&
        variant == JoinVariant::kBoundedRaster;
  }
  return members;
}

/// Upload stride of a group's shared scan: the union of the members'
/// columns (FusedUploadColumns, the definition the fused joins ship), or 0
/// for the CPU index join, which uploads nothing.
std::size_t UnionStride(const std::vector<FusedMemberSpec>& members,
                        JoinVariant variant) {
  if (variant == JoinVariant::kIndexCpu) return 0;
  return UploadStrideBytes(FusedUploadColumns(members));
}

/// The members' filter sets, the per-member half of the pruning rule
/// (AnyZoneMapMatch).
std::vector<FilterSet> MemberFilters(
    const std::vector<SpatialAggQuery>& queries) {
  std::vector<FilterSet> filters;
  filters.reserve(queries.size());
  for (const SpatialAggQuery& q : queries) filters.push_back(q.filters);
  return filters;
}

}  // namespace

void AssignSequentialIds(PolygonSet* polys) {
  for (std::size_t i = 0; i < polys->size(); ++i) {
    (*polys)[i].set_id(static_cast<std::int64_t>(i));
  }
}

Executor::Executor(std::unique_ptr<gpu::DevicePool> owned_pool,
                   gpu::DevicePool* pool, const PolygonSet* polys)
    : owned_pool_(std::move(owned_pool)),
      pool_(pool != nullptr ? pool : owned_pool_.get()),
      polys_(polys),
      plan_cache_(std::make_unique<query::PlanCache>()) {}

Executor::Executor(gpu::Device* device, const PointTable* points,
                   const PolygonSet* polys)
    : Executor(std::make_unique<gpu::DevicePool>(
                   std::vector<gpu::Device*>{device}),
               nullptr, polys) {
  backing_ = points;
  AddTableShard(points, /*zone=*/nullptr, /*home=*/0);
  InitWorldAndCosts(shards_[0].source->extent());
}

Executor::Executor(gpu::Device* device, const data::PointBlockSource* source,
                   const PolygonSet* polys)
    : Executor(std::make_unique<gpu::DevicePool>(
                   std::vector<gpu::Device*>{device}),
               nullptr, polys) {
  backing_ = source;
  shards_.push_back(Shard{source, nullptr, nullptr, 0});
  num_points_ = static_cast<std::size_t>(source->num_rows());
  // The source's extent is part of its header/metadata (O(1)), so the
  // registration-time cost here is the polygon scan only — no block reads.
  InitWorldAndCosts(source->extent());
}

Executor::Executor(gpu::DevicePool* pool, const data::ShardedTable* shards,
                   const PolygonSet* polys)
    : Executor(nullptr, pool, polys) {
  backing_ = shards;
  for (std::size_t s = 0; s < shards->num_shards(); ++s) {
    AddTableShard(&shards->shard(s), &shards->shard_zone(s),
                  s % pool->size());
  }
  // The sharded world must equal the single-device world for the same
  // dataset — shards->extent() is the *whole* dataset's extent, so the
  // canvas (and every rasterized pixel) lines up bitwise with an unsharded
  // run.
  InitWorldAndCosts(shards->extent());
}

Executor::~Executor() = default;

void Executor::AddTableShard(const PointTable* table,
                             const data::BlockZoneMap* zone,
                             std::size_t home) {
  // One block: the registered source describes the shard; every query
  // re-cuts the rows into batches sized to its grant (JoinShard).
  table_sources_.push_back(std::make_unique<data::TableBlockSource>(
      table, std::max<std::size_t>(table->size(), 1)));
  shards_.push_back(Shard{table_sources_.back().get(), table, zone, home});
  num_points_ += table->size();
}

void Executor::InitWorldAndCosts(const BBox& points_extent) {
  polygon_extent_ = ComputeExtent(*polys_);
  world_ = polygon_extent_;
  world_.Expand(points_extent);
  // Inflate a hair so max-coordinate points land inside the last pixel
  // rather than exactly on the canvas edge.
  const double pad =
      1e-9 * std::max(1.0, std::max(world_.Width(), world_.Height()));
  world_ = world_.Inflated(pad);

  // Cost-model inputs depend only on the (immutable) datasets and device,
  // so the O(total vertices) scan runs once here instead of per kAuto
  // query — ResolveVariant is on the per-query dispatch path twice
  // (admission planning and execution).
  cost_inputs_.num_points = num_points_;
  cost_inputs_.num_polygons = polys_->size();
  cost_inputs_.total_polygon_vertices = TotalVertices(*polys_);
  cost_inputs_.world = world_;
  for (const Polygon& poly : *polys_) {
    cost_inputs_.total_perimeter += poly.OuterPerimeter();
  }
  cost_inputs_.max_fbo_dim = device()->options().max_fbo_dim;
}

query::PlanCacheStats Executor::plan_cache_stats() const {
  return plan_cache_->stats();
}

void Executor::BumpDatasetVersion() {
  dataset_version_.fetch_add(1, std::memory_order_acq_rel);
  // The dataset changed, so memoized plans may be stale too: full_bytes
  // derives from the point count, and serving an old full-working-set
  // figure would mis-size grants for every future query of that shape.
  plan_cache_->Clear();
}

bool Executor::disk_resident() const {
  for (const Shard& shard : shards_) {
    if (shard.source->disk_resident()) return true;
  }
  return false;
}

Result<const TriangleSoup*> Executor::GetTriangulation() {
  MutexLock lock(prep_mutex_);
  if (!soup_built_) {
    Timer t;
    RJ_ASSIGN_OR_RETURN(soup_, TriangulatePolygonSet(*polys_));
    triangulation_seconds_ = t.ElapsedSeconds();
    soup_built_ = true;
  }
  return &soup_;
}

Result<const GridIndex*> Executor::GetCpuIndex(std::int32_t resolution) {
  MutexLock lock(prep_mutex_);
  auto it = cpu_indexes_.find(resolution);
  if (it == cpu_indexes_.end()) {
    RJ_ASSIGN_OR_RETURN(GridIndex index,
                        GridIndex::Build(*polys_, world_, resolution,
                                         GridAssignMode::kExactGeometry));
    it = cpu_indexes_
             .emplace(resolution, std::make_unique<GridIndex>(std::move(index)))
             .first;
  }
  return it->second.get();
}

Result<const GridIndex*> Executor::GetDeviceIndex(std::int32_t resolution) {
  MutexLock lock(prep_mutex_);
  auto it = device_indexes_.find(resolution);
  if (it == device_indexes_.end()) {
    // Identical construction parameters to the per-query build inside
    // IndexJoinDevice (MBR assignment over the executor's world), so the
    // prebuilt index is bit-for-bit the one each query would have built.
    RJ_ASSIGN_OR_RETURN(GridIndex index,
                        GridIndex::Build(*polys_, world_, resolution,
                                         GridAssignMode::kMbr));
    it = device_indexes_
             .emplace(resolution, std::make_unique<GridIndex>(std::move(index)))
             .first;
  }
  return it->second.get();
}

Result<std::shared_ptr<const raster::Fbo>> Executor::GetBoundaryMask(
    std::int32_t dim) {
  RJ_RETURN_NOT_OK(ValidateAccurateCanvasDim(*device(), dim));
  MutexLock lock(prep_mutex_);
  auto it = boundary_masks_.find(dim);
  if (it == boundary_masks_.end()) {
    gpu::Counters preprocessing;  // not any query's work
    auto mask = std::make_shared<const raster::Fbo>(BuildBoundaryMask(
        *polys_, world_, dim, &preprocessing, &device()->pool()));
    boundary_mask_bytes_ += mask->size_bytes();
    it = boundary_masks_.emplace(dim, CachedMask{std::move(mask), 0}).first;
    // Evict least recently used masks past the budget, never the new one.
    // A query still running on an evicted mask holds its own reference.
    while (boundary_mask_bytes_ > kBoundaryMaskCacheBytes &&
           boundary_masks_.size() > 1) {
      auto lru = boundary_masks_.end();
      for (auto e = boundary_masks_.begin(); e != boundary_masks_.end(); ++e) {
        if (e != it && (lru == boundary_masks_.end() ||
                        e->second.last_used < lru->second.last_used)) {
          lru = e;
        }
      }
      boundary_mask_bytes_ -= lru->second.mask->size_bytes();
      boundary_masks_.erase(lru);
    }
  }
  it->second.last_used = ++mask_clock_;
  return it->second.mask;
}

std::size_t Executor::boundary_mask_cache_bytes() {
  MutexLock lock(prep_mutex_);
  return boundary_mask_bytes_;
}

void Executor::SetShardReplicas(std::vector<std::vector<std::size_t>> replicas) {
  MutexLock lock(replica_mutex_);
  shard_replicas_ = std::move(replicas);
}

std::vector<std::vector<std::size_t>> Executor::shard_replicas() const {
  MutexLock lock(replica_mutex_);
  return shard_replicas_;
}

JoinVariant Executor::ResolveVariant(const SpatialAggQuery& query) const {
  if (query.variant != JoinVariant::kAuto) return query.variant;
  return ChooseRasterVariant(cost_params_, cost_inputs_, query.epsilon);
}

Result<AdmissionPlan> Executor::PlanAdmission(const SpatialAggQuery& query) {
  return PlanFusedAdmission({query});
}

Result<AdmissionPlan> Executor::PlanFusedAdmission(
    const std::vector<SpatialAggQuery>& queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("fusion group is empty");
  }
  const JoinVariant variant = ResolveVariant(queries[0]);
  if (variant == JoinVariant::kIndexCpu) {
    return AdmissionPlan{};  // never touches device memory
  }
  // Everything below is a pure function of (variant, stride, overlap) for
  // this dataset — the triangle-VBO term depends only on the immutable
  // polygon set — so repeats skip the triangulation-cache mutex entirely.
  query::PlanCache::AdmissionKey key;
  key.variant = variant;
  key.bytes_per_point = UnionStride(FusedMembers(queries, variant), variant);
  key.overlap = queries[0].overlap_transfers;
  return plan_cache_->GetAdmission(key, [&]() -> Result<AdmissionPlan> {
    AdmissionPlan plan;
    plan.bytes_per_point = key.bytes_per_point;
    if (variant == JoinVariant::kBoundedRaster) {
      RJ_ASSIGN_OR_RETURN(const TriangleSoup* soup, GetTriangulation());
      plan.fixed_bytes = TriangleVboBytes(soup->size());
    }
    // The triangle VBO is uploaded and freed before the point pipeline
    // starts, so the peak is the max of the fixed upload and the point
    // batches in flight — 2 when transfers overlap the draw (BatchPipeline
    // keeps batches b and b+1 resident), 1 serialized. A RAM shard's
    // smallest batch is one point and its largest the whole shard (a
    // single full batch never double-buffers). A disk shard's batch IS its
    // block (not grant-tunable), so its floor is in_flight blocks — which
    // is also its peak: the pipeline keeps at most in_flight block VBOs
    // resident (disk-staged loading slots hold host rows, no VBO).
    const std::size_t in_flight = key.overlap ? 2 : 1;
    std::size_t floor_points = 1;
    std::size_t full_points = 0;
    for (const Shard& shard : shards_) {
      const auto rows = static_cast<std::size_t>(shard.source->num_rows());
      if (shard.table != nullptr) {
        full_points = std::max(full_points, rows);
        continue;
      }
      const std::size_t block = std::max<std::size_t>(
          std::min(shard.source->block_capacity(), rows), 1);
      floor_points = std::max(floor_points, block);
      full_points = std::max(full_points, block);
    }
    plan.min_bytes = std::max(plan.fixed_bytes,
                              in_flight * floor_points * plan.bytes_per_point);
    plan.full_bytes =
        std::max({plan.fixed_bytes, full_points * plan.bytes_per_point,
                  plan.min_bytes});
    return plan;
  });
}

Result<BBox> Executor::PruningRegion(JoinVariant variant,
                                     const SpatialAggQuery& query) const {
  double pad = 0.0;
  const std::int32_t max_fbo_dim = device()->options().max_fbo_dim;
  if (variant == JoinVariant::kBoundedRaster) {
    // One canvas pixel, from the very canvas plan the shards will render
    // on (the widest pixel across tiles, applied on both axes — strictly
    // conservative).
    RJ_ASSIGN_OR_RETURN(std::vector<raster::CanvasTile> tiles,
                        raster::PlanCanvas(world_, query.epsilon, max_fbo_dim));
    for (const raster::CanvasTile& t : tiles) {
      pad = std::max({pad, t.world.Width() / t.width,
                      t.world.Height() / t.height});
    }
  } else if (variant == JoinVariant::kAccurateRaster) {
    // One pixel of the accurate canvas, over-approximated with the longer
    // world side (the canvas is square over the world extent).
    const std::int32_t dim =
        AccurateCanvasDim(*device(), query.accurate_canvas_dim);
    pad = std::max(world_.Width(), world_.Height()) /
          static_cast<double>(std::max<std::int32_t>(dim, 1));
  }
  // Index variants are PIP-exact: a contributing point lies inside a
  // polygon, hence inside the unpadded extent (Intersects is closed).
  return polygon_extent_.Inflated(pad);
}

bool Executor::UsesShardCache(const std::vector<SpatialAggQuery>& queries,
                              JoinVariant variant) const {
  if (result_cache_ == nullptr || shards_.size() < 2) return false;
  for (const SpatialAggQuery& q : queries) {
    const bool want_ranges =
        q.with_result_ranges && variant == JoinVariant::kBoundedRaster;
    if (!q.enable_shard_cache || q.bypass_result_cache || want_ranges) {
      return false;
    }
  }
  return true;
}

Result<Executor::ShardPlacement> Executor::PlanPlacement(
    const SpatialAggQuery& query) {
  return PlanFusedPlacement({query});
}

Result<Executor::ShardPlacement> Executor::PlanFusedPlacement(
    const std::vector<SpatialAggQuery>& queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("fusion group is empty");
  }
  const SpatialAggQuery& lead = queries[0];
  const JoinVariant variant = ResolveVariant(lead);
  const std::size_t num_shards = shards_.size();
  const std::size_t num_devices = pool_->size();
  ShardPlacement p;
  p.device_of_shard.assign(num_shards, 0);
  p.cached.resize(num_shards);
  p.hosted.assign(num_devices, 0);
  RJ_ASSIGN_OR_RETURN(p.region, PruningRegion(variant, lead));

  std::vector<query::CacheKey> keys;
  if (UsesShardCache(queries, variant)) {
    for (const SpatialAggQuery& q : queries) {
      keys.push_back(query::MakeCacheKey(dataset_cache_key_,
                                         dataset_version(), q, variant));
    }
  }

  const std::vector<FilterSet> filters = MemberFilters(queries);
  std::vector<std::vector<std::size_t>> replicas = shard_replicas();

  // Placement-local load: executing shards assigned so far per device. The
  // tie-break (lowest device index) keeps placement deterministic for a
  // fixed replica map.
  std::vector<std::size_t> load(num_devices, 0);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const Shard& shard = shards_[s];
    if (lead.enable_shard_routing && shard.zone != nullptr &&
        !AnyZoneMapMatch(*shard.zone, filters, &p.region)) {
      p.device_of_shard[s] = ShardPlacement::kSkipped;
      ++p.skipped;
      continue;
    }
    if (!keys.empty()) {
      std::vector<std::shared_ptr<const QueryResult>> hits;
      for (query::CacheKey key : keys) {
        key.shard = s;
        std::shared_ptr<const QueryResult> hit = result_cache_->Lookup(key);
        if (hit == nullptr) break;
        hits.push_back(std::move(hit));
      }
      if (hits.size() == keys.size()) {
        p.device_of_shard[s] = ShardPlacement::kCached;
        p.cached[s] = std::move(hits);
        ++p.cache_hits;
        continue;
      }
    }
    std::size_t best = shard.home;
    if (s < replicas.size()) {
      for (const std::size_t d : replicas[s]) {
        if (d >= num_devices) continue;  // stale map from a larger pool
        if (load[d] < load[best] || (load[d] == load[best] && d < best)) {
          best = d;
        }
      }
    }
    p.device_of_shard[s] = best;
    ++load[best];
    ++p.hosted[best];
    ++p.executed;
  }

  if (p.executed == 0 && p.cache_hits == 0) {
    // Forced keep: every shard was routed away, but the merge (and a
    // ranges gather) still needs one correctly-shaped partial. Shard 0 on
    // its home device joins zero-contributing rows — the result is the
    // same all-zero aggregate, bitwise.
    p.device_of_shard[0] = shards_[0].home;
    --p.skipped;
    ++p.hosted[shards_[0].home];
    ++p.executed;
  }
  return p;
}

Result<QueryResult> Executor::Execute(const QuerySpec& spec,
                                      const ExecPolicy& policy) {
  RJ_RETURN_NOT_OK(ValidateSpecColumns(spec, num_attribute_columns()));
  return Execute(spec.ToQuery(policy));
}

Result<QueryResult> Executor::Execute(const SpatialAggQuery& query) {
  if (result_cache_ == nullptr || query.bypass_result_cache) {
    return ExecuteUncached(query);
  }

  // Cached path: key on semantics only (execution knobs excluded — results
  // are bitwise identical across them), single-flight on misses.
  Timer fetch;
  const query::CacheKey key = query::MakeCacheKey(
      dataset_cache_key_, dataset_version(), query, ResolveVariant(query));
  bool hit = false;
  RJ_ASSIGN_OR_RETURN(
      std::shared_ptr<const QueryResult> shared,
      result_cache_->GetOrCompute(
          key, [&] { return ExecuteUncached(query); }, &hit,
          // Publish guard: never cache a result whose key version was
          // outrun by a concurrent dataset bump (invalidation,
          // re-registration) while the flight computed.
          [&] { return dataset_version() == key.version; }));
  QueryResult out = *shared;
  if (hit) {
    // A hit performed no device work: scrub the miss's diagnostics so the
    // caller never mistakes replayed stats for this call's execution.
    out.cache_hit = true;
    out.timing = PhaseTimer();
    out.counters = gpu::CountersSnapshot();
    out.total_seconds = fetch.ElapsedSeconds();
  }
  return out;
}

Result<Executor::GroupSetup> Executor::PrepareGroup(
    const std::vector<SpatialAggQuery>& queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("fusion group is empty");
  }
  GroupSetup setup;
  setup.variant = ResolveVariant(queries[0]);
  for (const SpatialAggQuery& q : queries) {
    if (q.aggregate != AggregateKind::kCount &&
        q.EffectiveAggregateColumn() == PointTable::npos) {
      return Status::InvalidArgument(
          "non-COUNT aggregates require aggregate_column");
    }
  }
  const bool raster = setup.variant == JoinVariant::kBoundedRaster ||
                      setup.variant == JoinVariant::kAccurateRaster;
  if (!raster && queries.size() > 1) {
    return Status::InvalidArgument(
        "fusion requires a raster variant (bounded or accurate)");
  }
  // Re-check structural compatibility here even though the service's
  // grouping predicate enforces it — the invariant that every member
  // shares one canvas must hold locally for the shared scan to be valid.
  for (const SpatialAggQuery& q : queries) {
    const bool same_canvas =
        setup.variant == JoinVariant::kBoundedRaster
            ? q.epsilon == queries[0].epsilon
            : q.accurate_canvas_dim == queries[0].accurate_canvas_dim;
    if (ResolveVariant(q) != setup.variant || !same_canvas) {
      return Status::InvalidArgument(
          "incompatible fusion group: members must share the resolved "
          "variant and canvas");
    }
  }
  setup.members = FusedMembers(queries, setup.variant);
  setup.stride = UnionStride(setup.members, setup.variant);
  if (raster) {
    RJ_ASSIGN_OR_RETURN(setup.soup, GetTriangulation());
  }
  if (setup.variant == JoinVariant::kIndexCpu) {
    RJ_ASSIGN_OR_RETURN(setup.cpu_index,
                        GetCpuIndex(IndexJoinOptions{}.index_resolution));
  }
  if (setup.variant == JoinVariant::kIndexDevice ||
      setup.variant == JoinVariant::kAccurateRaster) {
    // The paper's per-query device index (§6.2 baseline; the accurate
    // join's boundary points, at the same 1024² MBR construction), hoisted
    // into the prep cache: repeated queries and sibling shards skip the
    // rebuild.
    RJ_ASSIGN_OR_RETURN(setup.device_index,
                        GetDeviceIndex(IndexJoinOptions{}.index_resolution));
  }
  if (setup.variant == JoinVariant::kAccurateRaster) {
    const std::int32_t dim =
        AccurateCanvasDim(*device(), queries[0].accurate_canvas_dim);
    RJ_ASSIGN_OR_RETURN(setup.boundary_mask, GetBoundaryMask(dim));
  }
  return setup;
}

Result<JoinResult> Executor::RunIndexJoin(
    gpu::Device* device, const data::PointBlockSource& source,
    std::vector<std::size_t> scan, bool overlap, const GroupSetup& setup,
    const SpatialAggQuery& query) const {
  // PrepareGroup admits the index variants in groups of one only.
  IndexJoinOptions options;
  options.weight_column = setup.members[0].weight_column;
  options.filters = setup.members[0].filters;
  switch (setup.variant) {
    case JoinVariant::kIndexDevice:
      options.overlap_transfers = overlap;
      options.prebuilt_index = setup.device_index;
      return IndexJoinDevice(device, source, std::move(scan), *polys_, world_,
                             options);
    case JoinVariant::kIndexCpu:
      options.assign_mode = GridAssignMode::kExactGeometry;
      return IndexJoinCpu(source, scan, *polys_, *setup.cpu_index, options,
                          query.cpu_threads);
    default:
      break;
  }
  return Status::Internal("not an index variant");
}

Result<FusedJoinOutput> Executor::JoinShard(
    gpu::Device* device, const Shard& shard, const GroupSetup& setup,
    const std::vector<SpatialAggQuery>& queries, const BBox& region) {
  const SpatialAggQuery& lead = queries[0];
  const std::size_t cap = lead.device_memory_cap_bytes;
  bool overlap = lead.overlap_transfers;

  // The shard's scan. A RAM shard cuts its rows into batches sized to the
  // grant (each shard batches within its own grant slice; no grant = the
  // device's free budget). A disk shard's batches are its blocks, selected
  // against the query region; the grant only decides double buffering — a
  // grant too small for two in-flight blocks downgrades to the serialized
  // path instead of overshooting, mirroring PlanUpload's downgrade rule.
  std::optional<data::TableBlockSource> batches;
  const data::PointBlockSource* source = shard.source;
  std::vector<std::size_t> scan;
  if (shard.table != nullptr) {
    const std::size_t rows = shard.table->size();
    const auto plan_within = [&](std::size_t budget) {
      return PlanUpload(budget, setup.stride, rows, overlap);
    };
    const UploadPlan plan =
        cap == 0 ? plan_within(device->bytes_free())
                 : plan_cache_->GetUpload({cap, setup.stride, rows, overlap},
                                          [&] { return plan_within(cap); });
    // The registered source already holds the shard's extent: handing it
    // over keeps the re-cut O(1) even for a table whose extent was never
    // cached.
    batches.emplace(shard.table, plan.batch_size, source->extent());
    source = &*batches;
    scan = AllBlocks(*source);
    overlap = plan.overlap_transfers;
  } else {
    const std::size_t block_bytes =
        std::min<std::size_t>(source->block_capacity(), source->num_rows()) *
        setup.stride;
    overlap = overlap && (cap == 0 || 2 * block_bytes <= cap);
    BlockSelection sel = SelectBlocks(*source, MemberFilters(queries),
                                      &region, lead.enable_block_pruning);
    device->counters().AddBlocksScanned(sel.scanned);
    device->counters().AddBlocksPruned(sel.pruned);
    scan = std::move(sel.blocks);
  }

  if (setup.soup != nullptr) {  // a raster variant
    FusedJoinOptions options;
    options.epsilon = lead.epsilon;
    options.canvas_dim = lead.accurate_canvas_dim;
    options.overlap_transfers = overlap;
    return setup.variant == JoinVariant::kBoundedRaster
               ? FusedBoundedRasterJoin(device, *source, std::move(scan),
                                        *polys_, *setup.soup, world_, options,
                                        setup.members)
               : FusedAccurateRasterJoin(device, *source, std::move(scan),
                                         *polys_, *setup.soup, world_,
                                         *setup.boundary_mask,
                                         *setup.device_index, options,
                                         setup.members);
  }
  RJ_ASSIGN_OR_RETURN(JoinResult join,
                      RunIndexJoin(device, *source, std::move(scan), overlap,
                                   setup, lead));
  FusedJoinOutput out;
  out.arrays.push_back(std::move(join.arrays));
  out.ranges.resize(1);
  out.point_fbos.resize(1);
  out.timing = join.timing;
  return out;
}

Result<QueryResult> Executor::ExecuteUncached(
    const SpatialAggQuery& query, const ShardPlacement* placement) {
  RJ_ASSIGN_OR_RETURN(std::vector<QueryResult> out,
                      ExecuteFused({query}, placement));
  return std::move(out[0]);
}

Result<std::vector<QueryResult>> Executor::ExecuteFused(
    const std::vector<SpatialAggQuery>& queries,
    const ShardPlacement* placement) {
  Timer total;
  RJ_ASSIGN_OR_RETURN(GroupSetup setup, PrepareGroup(queries));
  if (!pool_->UniformFboLimit()) {
    // Shards must rasterize on one pixel grid; a pool with mixed FBO
    // limits would tile the canvas differently per shard.
    return Status::InvalidArgument(
        "sharded execution requires a uniform max_fbo_dim across the pool");
  }
  // Routing/cache/replica placement — planned here unless the caller
  // (QueryService) already planned it to size the admission grant.
  ShardPlacement local_placement;
  if (placement == nullptr) {
    RJ_ASSIGN_OR_RETURN(local_placement, PlanFusedPlacement(queries));
    placement = &local_placement;
  }
  const ShardPlacement& place = *placement;
  const std::size_t m = queries.size();
  const std::size_t num_shards = shards_.size();
  const std::size_t num_devices = pool_->size();
  const auto executes = [&](std::size_t s) {
    return place.device_of_shard[s] < num_devices;
  };

  // §5 ranges (bounded variant only). With one executing shard its point
  // FBO is the whole canvas, so the join computes the ranges itself.
  // Otherwise the shards export their point FBOs and the §5 classification
  // runs once over the pixel-wise sum, which is bitwise identical to the
  // one-shard FBO — merging per-shard *intervals* instead would regroup
  // the per-pixel area×count products and drift by FP rounding (see
  // merge_partials.h).
  const bool gather_ranges = place.executed > 1;
  for (FusedMemberSpec& member : setup.members) {
    member.export_point_fbo = gather_ranges && member.compute_result_ranges;
    member.compute_result_ranges =
        !gather_ranges && member.compute_result_ranges;
  }

  // --- Scatter: every placed shard joins on its device. -------------------
  std::vector<FusedJoinOutput> shard_out(num_shards);
  std::vector<Status> shard_status(num_shards, Status::OK());
  const auto run_shard = [&](std::size_t s) {
    Result<FusedJoinOutput> join =
        JoinShard(pool_->device(place.device_of_shard[s]), shards_[s], setup,
                  queries, place.region);
    if (!join.ok()) {
      shard_status[s] = join.status();
      return;
    }
    shard_out[s] = std::move(join).MoveValueUnsafe();
  };

  // Routing metering lands on the primary device *before* the delta
  // windows open, so the per-device deltas below don't re-report it (the
  // total then carries it exactly once via the explicit add after them).
  gpu::Device* primary = device();
  primary->counters().AddShardsRouted(place.executed);
  primary->counters().AddShardsSkipped(place.skipped);

  // Counter attribution is per *device*, not per shard: sibling shards on
  // one device would have overlapping delta windows (double-counting the
  // shared work). Each device with an executing shard gets one window —
  // the total is the true pool delta (exact when no other query
  // overlapped, the same contract as QueryStats).
  std::vector<gpu::CountersSnapshot> before(num_devices);
  for (std::size_t d = 0; d < num_devices; ++d) {
    if (place.hosted[d] > 0) {
      before[d] = pool_->device(d)->counters().Snapshot();
    }
  }
  if (place.executed == 1) {
    // One executing shard runs on the calling thread: no thread spawn, so
    // an unsharded dataset costs what a plain join call costs.
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (executes(s)) run_shard(s);
    }
  } else {
    std::vector<std::thread> threads;
    threads.reserve(place.executed);
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (executes(s)) threads.emplace_back(run_shard, s);
    }
    for (std::thread& t : threads) t.join();
  }
  gpu::CountersSnapshot counters;
  for (std::size_t d = 0; d < num_devices; ++d) {
    if (place.hosted[d] > 0) {
      counters = counters.Plus(
          pool_->device(d)->counters().Snapshot().DeltaSince(before[d]));
    }
  }
  counters.shards_routed += place.executed;
  counters.shards_skipped += place.skipped;

  // First failure in shard order: error reporting stays deterministic no
  // matter which shard thread lost the race.
  for (const Status& st : shard_status) RJ_RETURN_NOT_OK(st);

  // --- Gather: per member, a deterministic merge in ascending shard order.
  // Cached shards contribute their stored arrays as-is (bitwise identical
  // to re-executing them); skipped shards stay default — zero-size arrays
  // the merge skips by contract (merge_partials.h). Shard timings ride
  // member 0's merge once; the group total is not multiplied per member.
  const bool use_cache = UsesShardCache(queries, setup.variant);
  std::vector<QueryResult> out(m);
  PhaseTimer timing;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<agg::ShardPartial> partials(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (place.device_of_shard[s] == ShardPlacement::kCached) {
        partials[s].arrays = place.cached[s][i]->arrays;
      } else if (executes(s)) {
        partials[s].arrays = std::move(shard_out[s].arrays[i]);
        if (i == 0) partials[s].timing = shard_out[s].timing;
      }
    }
    RJ_ASSIGN_OR_RETURN(agg::MergedPartials merged,
                        agg::MergePartials(partials));
    out[i].arrays = std::move(merged.arrays);
    out[i].values = FinalizeAggregate(queries[i].aggregate, out[i].arrays);
    if (i == 0) timing = merged.timing;
    if (use_cache) {
      // Store fresh per-shard partials for pans that re-cover these
      // shards. The version stamp in the key keeps entries from outliving
      // a dataset bump (mirrors the service's publish guard).
      query::CacheKey key = query::MakeCacheKey(
          dataset_cache_key_, dataset_version(), queries[i], setup.variant);
      for (std::size_t s = 0; s < num_shards; ++s) {
        if (!executes(s)) continue;
        key.shard = s;
        QueryResult partial;
        partial.arrays = std::move(partials[s].arrays);
        result_cache_->Insert(key, std::move(partial));
      }
    }
  }

  for (std::size_t i = 0; i < m; ++i) {
    const FusedMemberSpec& member = setup.members[i];
    if (member.compute_result_ranges) {
      for (std::size_t s = 0; s < num_shards; ++s) {
        if (executes(s)) out[i].ranges = std::move(shard_out[s].ranges[i]);
      }
      continue;
    }
    if (!member.export_point_fbo) continue;
    // Accumulate and free shard by shard: canvases are multi-megabyte, so
    // holding all S copies through the range pass would multiply the
    // gather's transient footprint for nothing. Every executing shard
    // exported one (the shard cache is off under ranges); routed-away
    // shards exported none — an all-default FBO accumulates as the
    // identity, so the gathered canvas equals the all-shard one bitwise.
    std::optional<raster::Fbo> gathered;
    for (std::size_t s = 0; s < num_shards; ++s) {
      std::optional<raster::Fbo>& fbo = shard_out[s].point_fbos[i];
      if (!executes(s)) continue;
      if (!gathered.has_value()) {
        gathered = std::move(fbo);
      } else {
        AccumulateFbo(&*gathered, *fbo);
      }
      fbo.reset();
    }
    // Re-derive the (single-tile — the per-shard joins validated that)
    // canvas the shards rendered on.
    RJ_ASSIGN_OR_RETURN(
        std::vector<raster::CanvasTile> tiles,
        raster::PlanCanvas(world_, queries[i].epsilon,
                           primary->options().max_fbo_dim));
    raster::Viewport vp(tiles[0].world, tiles[0].width, tiles[0].height);
    ScopedPhase sp(&timing, phase::kProcessing);
    // The range pass is part of this query's device work too: meter its
    // primary-device delta into the attributed counters, keeping the
    // "exact when no other query overlapped" contract (result.h).
    const gpu::CountersSnapshot gather_before = primary->counters().Snapshot();
    RJ_ASSIGN_OR_RETURN(
        out[i].ranges,
        ComputeResultRanges(vp, *polys_, *setup.soup, *gathered,
                            FinalizeAggregate(AggregateKind::kCount,
                                              out[i].arrays),
                            &primary->counters(), &primary->pool()));
    counters = counters.Plus(
        primary->counters().Snapshot().DeltaSince(gather_before));
  }

  const double seconds = total.ElapsedSeconds();
  for (QueryResult& r : out) {
    r.timing = timing;
    r.counters = counters;
    r.total_seconds = seconds;
  }
  return out;
}

std::string JoinVariantName(JoinVariant variant) {
  switch (variant) {
    case JoinVariant::kBoundedRaster: return "BoundedRaster";
    case JoinVariant::kAccurateRaster: return "AccurateRaster";
    case JoinVariant::kIndexDevice: return "IndexDevice";
    case JoinVariant::kIndexCpu: return "IndexCpu";
    case JoinVariant::kAuto: return "Auto";
  }
  return "?";
}

}  // namespace rj
