#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>

#include "data/point_block_source.h"
#include "join/join_common.h"
#include "net/wire.h"
#include "oracle.h"
#include "raster/fbo_pool.h"
#include "raster/pipeline.h"
#include "raster/viewport.h"

namespace perfbench {

using namespace rj;

namespace {

constexpr double kMB = 1024.0 * 1024.0;

std::string Base(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

/// Outcomes that executed a join (not served from the result cache).
std::vector<const Outcome*> Executed(const PhaseResult& phase) {
  std::vector<const Outcome*> out;
  for (const Outcome& o : phase.outcomes) {
    if (o.ok() && !o.cache_hit) out.push_back(&o);
  }
  return out;
}

/// Distinct request ids of `outcomes`, in first-seen order.
std::vector<std::size_t> Distinct(const std::vector<const Outcome*>& outcomes,
                                  std::size_t cap) {
  std::vector<std::size_t> ids;
  std::set<std::size_t> seen;
  for (const Outcome* o : outcomes) {
    if (ids.size() >= cap) break;
    if (seen.insert(o->request).second) ids.push_back(o->request);
  }
  return ids;
}

/// The join replay: one request at a time on the served executors, so the
/// device-counter deltas are exact (nothing overlaps).
struct JoinReplay {
  std::size_t queries = 0;
  double plan_seconds = 0.0;
  PhaseTimer timing;
  gpu::CountersSnapshot counters;
  std::uint64_t bytes_read = 0;
};

std::uint64_t BytesRead(const std::vector<Executor*>& executors) {
  std::uint64_t bytes = 0;
  for (const Executor* e : executors) {
    if (e->block_source() != nullptr) bytes += e->block_source()->bytes_read();
  }
  return bytes;
}

Result<JoinReplay> ReplayJoins(Stack* stack, const Traffic& traffic,
                               const std::vector<std::size_t>& sample,
                               Tracer* tracer) {
  const std::vector<Executor*> executors = ServedExecutors(stack);
  ExecPolicy policy;
  policy.shard_cache = false;  // the served cache holds these partials
  JoinReplay replay;
  for (std::size_t id : sample) {
    const Request& r = traffic.requests[id];
    Executor* executor = executors[r.layer];
    const SpatialAggQuery query = r.spec.ToQuery(policy);
    const Clock::time_point plan_start = Clock::now();
    {
      const ScopedSpan span(tracer, "query.plan_placement", Tracer::kNoParent,
                            id);
      RJ_RETURN_NOT_OK(executor->PlanPlacement(query).status());
    }
    {
      const ScopedSpan span(tracer, "query.plan_admission", Tracer::kNoParent,
                            id);
      RJ_RETURN_NOT_OK(executor->PlanAdmission(query).status());
    }
    replay.plan_seconds += SecondsBetween(plan_start, Clock::now());

    const gpu::CountersSnapshot before = stack->pool->TotalCounters();
    const std::uint64_t read_before = BytesRead(executors);
    const ScopedSpan span(tracer, "join.execute_uncached", Tracer::kNoParent,
                          id);
    RJ_ASSIGN_OR_RETURN(QueryResult result, executor->ExecuteUncached(query));
    replay.counters =
        replay.counters.Plus(stack->pool->TotalCounters().DeltaSince(before));
    replay.bytes_read += BytesRead(executors) - read_before;
    for (const auto& [phase, seconds] : result.timing.phases()) {
      replay.timing.Add(phase, seconds);
    }
    ++replay.queries;
  }
  return replay;
}

/// The raster passes of one request, timed one call at a time at the
/// request's own canvas size, filters and weight column.
struct RasterCost {
  std::size_t queries = 0;
  double clear = 0.0;
  double points = 0.0;
  double polygons = 0.0;
  double boundaries = 0.0;
  double canvas_bytes = 0.0;
};

Status TimeRasterPasses(const Request& r, Executor* executor,
                        const PointTable& rows, ThreadPool* pool,
                        Tracer* tracer, std::size_t id, RasterCost* cost) {
  const SpatialAggQuery q = r.spec.ToQuery();
  const bool accurate = q.variant == JoinVariant::kAccurateRaster;
  std::vector<raster::CanvasTile> tiles;
  if (accurate) {
    tiles.push_back(raster::SingleCanvas(executor->world(),
                                         q.accurate_canvas_dim,
                                         q.accurate_canvas_dim));
  } else if (q.variant == JoinVariant::kBoundedRaster) {
    RJ_ASSIGN_OR_RETURN(tiles, raster::PlanCanvas(executor->world(), q.epsilon,
                                                  DeviceConfig().max_fbo_dim));
  } else {
    return Status::OK();  // the index joins draw nothing
  }
  RJ_ASSIGN_OR_RETURN(const TriangleSoup* soup, executor->GetTriangulation());
  const std::size_t weight = q.EffectiveAggregateColumn();
  gpu::Counters counters;
  raster::FboPool& fbos = raster::FboPool::Shared();
  auto timed = [&](const char* name, double* total, auto&& fn) {
    const ScopedSpan span(tracer, name, Tracer::kNoParent, id);
    const Clock::time_point start = Clock::now();
    fn();
    *total += SecondsBetween(start, Clock::now());
  };
  for (const raster::CanvasTile& tile : tiles) {
    const raster::Viewport vp(tile.world, tile.width, tile.height);
    raster::FboLease points_fbo;
    raster::FboLease boundary_fbo;
    timed("raster.fbo_acquire", &cost->clear, [&] {
      points_fbo = fbos.Acquire(tile.width, tile.height);
      if (accurate) boundary_fbo = fbos.Acquire(tile.width, tile.height);
    });
    cost->canvas_bytes += static_cast<double>(points_fbo->size_bytes()) *
                          (accurate ? 2.0 : 1.0);
    timed("raster.draw_points", &cost->points, [&] {
      raster::DrawPoints(vp, rows, q.filters, weight, points_fbo.get(),
                         &counters, pool);
    });
    if (accurate) {
      timed("raster.draw_boundaries", &cost->boundaries, [&] {
        raster::DrawBoundaries(vp, *executor->polys(), /*conservative=*/true,
                               boundary_fbo.get(), &counters, pool);
      });
    }
    raster::ResultArrays arrays(executor->polys()->size());
    timed("raster.draw_polygons", &cost->polygons, [&] {
      raster::DrawPolygons(vp, *soup, *points_fbo,
                           accurate ? boundary_fbo.get() : nullptr, &arrays,
                           &counters, pool);
    });
  }
  ++cost->queries;
  return Status::OK();
}

}  // namespace

Snapshot TakeSnapshot(Stack* stack) {
  Snapshot s;
  s.cache = stack->service->stats().cache;
  for (Executor* e : ServedExecutors(stack)) {
    const query::PlanCacheStats p = e->plan_cache_stats();
    s.plan_hits += p.admission_hits + p.upload_hits;
    s.plan_lookups += p.admission_hits + p.admission_misses + p.upload_hits +
                      p.upload_misses;
  }
  s.fbo_hits = raster::FboPool::Shared().hits();
  s.fbo_misses = raster::FboPool::Shared().misses();
  s.counters = stack->pool->TotalCounters();
  s.bytes_read = BytesRead(ServedExecutors(stack));
  return s;
}

Result<std::vector<Metric>> MeasureLayers(Workload workload,
                                          const Inputs& inputs, Stack* stack,
                                          const Traffic& traffic,
                                          const TracedPhases& phases,
                                          Tracer* tracer,
                                          std::size_t replay_cap) {
  std::vector<Metric> m;
  const PhaseResult& http = *phases.http;
  const PhaseResult& replay = *phases.replay;
  const bool disk = workload == Workload::kDiskZoom;
  const bool sharded = workload == Workload::kAdhocSharded;

  // --- net: request parse and response serialize on the workload's own
  // bodies; overhead = client latency − the response's queue + execute.
  {
    std::vector<double> parse;
    for (const Outcome& o : http.outcomes) {
      const ScopedSpan span(tracer, "net.parse", Tracer::kNoParent, o.request);
      const Clock::time_point start = Clock::now();
      RJ_RETURN_NOT_OK(
          ParseQueryRequest(traffic.requests[o.request].body).status());
      parse.push_back(SecondsBetween(start, Clock::now()));
    }
    std::vector<double> serialize;
    for (const Outcome& o : replay.outcomes) {
      if (o.ok()) serialize.push_back(o.serialize_seconds);
    }
    std::vector<double> overhead;
    for (const Outcome& o : http.outcomes) {
      if (o.ok()) {
        overhead.push_back(o.latency() - o.queue_seconds - o.execute_seconds);
      }
    }
    m.push_back({"net.parse_us", Mean(parse) * 1e6, "us",
                 Base("mean of %.0f request bodies", parse.size(), 0)});
    m.push_back({"net.serialize_us", Mean(serialize) * 1e6, "us",
                 Base("mean of %.0f responses", serialize.size(), 0)});
    m.push_back({"net.overhead_ms", Quantile(overhead, 0.5) * 1e3, "ms",
                 Base("median of %.0f responses", overhead.size(), 0)});
  }

  // --- service: QueryStats of the in-process replay and ResultCacheStats
  // across it.
  const std::vector<const Outcome*> executed = Executed(replay);
  {
    std::vector<double> queue, execute;
    for (const Outcome& o : replay.outcomes) {
      if (!o.ok()) continue;
      queue.push_back(o.queue_seconds);
      execute.push_back(o.execute_seconds);
    }
    const query::ResultCacheStats& c0 = phases.before_replay.cache;
    const query::ResultCacheStats& c1 = phases.after_replay.cache;
    const double hits = static_cast<double>(c1.hits - c0.hits);
    const double misses = static_cast<double>(c1.misses - c0.misses);
    double fused = 0, granted = 0;
    for (const Outcome* o : executed) {
      if (o->fused_group_size > 1) ++fused;
      granted += static_cast<double>(o->granted_bytes);
    }
    const double n = static_cast<double>(executed.size());
    m.push_back({"service.queue_ms", Mean(queue) * 1e3, "ms",
                 Base("mean of %.0f responses (p99 %.3f ms)", queue.size(),
                      Quantile(queue, 0.99) * 1e3)});
    m.push_back({"service.execute_ms", Mean(execute) * 1e3, "ms",
                 Base("mean of %.0f responses", execute.size(), 0)});
    m.push_back({"service.cache_hit_ratio", Ratio(hits, hits + misses),
                 "ratio", Base("%.0f hits / %.0f lookups", hits, hits + misses)});
    m.push_back({"service.cache_evictions",
                 static_cast<double>(c1.evictions - c0.evictions), "count",
                 Base("over %.0f replayed requests (%.0f inserts)",
                      replay.outcomes.size(),
                      static_cast<double>(c1.inserts - c0.inserts))});
    m.push_back({"service.shared_flights",
                 static_cast<double>(c1.shared_flights - c0.shared_flights),
                 "count",
                 Base("over %.0f replayed requests", replay.outcomes.size(), 0)});
    m.push_back({"service.fused_share", Ratio(fused, n), "ratio",
                 Base("%.0f fused / %.0f executed", fused, n)});
    m.push_back({"service.granted_mb", Ratio(granted, n) / kMB, "MB",
                 Base("mean grant of %.0f executed requests", n, 0)});
  }

  // --- query: planning time in the join replay below; routing and
  // per-shard cache reuse from the replay's QueryStats.
  std::vector<const Outcome*> http_executed = Executed(http);
  const std::vector<std::size_t> sample = Distinct(http_executed, replay_cap);
  RJ_ASSIGN_OR_RETURN(JoinReplay joins,
                      ReplayJoins(stack, traffic, sample, tracer));
  {
    const double q = static_cast<double>(joins.queries);
    double shards = 0, skipped = 0, cached = 0;
    for (const Outcome* o : executed) {
      shards += static_cast<double>(o->shards_routed + o->shards_skipped +
                                    o->shard_cache_hits);
      skipped += static_cast<double>(o->shards_skipped);
      cached += static_cast<double>(o->shard_cache_hits);
    }
    const Snapshot& s0 = phases.before_replay;
    const Snapshot& s1 = phases.after_replay;
    const double plan_hits = static_cast<double>(s1.plan_hits - s0.plan_hits);
    const double plan_lookups =
        static_cast<double>(s1.plan_lookups - s0.plan_lookups);
    m.push_back({"query.plan_us", Ratio(joins.plan_seconds, q) * 1e6, "us",
                 Base("PlanPlacement + PlanAdmission, mean of %.0f requests",
                      q, 0)});
    m.push_back({"query.plan_cache_hit_ratio", Ratio(plan_hits, plan_lookups),
                 "ratio",
                 Base("%.0f hits / %.0f lookups", plan_hits, plan_lookups)});
    m.push_back({"query.shards_skipped_ratio", Ratio(skipped, shards), "ratio",
                 Base("%.0f skipped / %.0f shard visits", skipped, shards)});
    m.push_back({"query.shard_cache_hit_ratio", Ratio(cached, shards),
                 "ratio",
                 Base("%.0f cached / %.0f shard visits", cached, shards)});
  }

  // --- join: phase times and exact device-counter deltas per request.
  {
    const double q = static_cast<double>(joins.queries);
    const std::string base =
        Base("mean of %.0f requests replayed one at a time", q, 0);
    auto per_query_ms = [&](const char* phase) {
      return Ratio(joins.timing.Get(phase), q) * 1e3;
    };
    auto per_query = [&](std::uint64_t v) {
      return Ratio(static_cast<double>(v), q);
    };
    m.push_back({"join.transfer_ms", per_query_ms(phase::kTransfer), "ms", base});
    m.push_back({"join.processing_ms", per_query_ms(phase::kProcessing), "ms",
                 base});
    m.push_back({"join.disk_read_ms", per_query_ms(phase::kDiskRead), "ms",
                 base});
    m.push_back({"join.index_build_ms", per_query_ms(phase::kIndexBuild), "ms",
                 base});
    m.push_back({"join.fragments", per_query(joins.counters.fragments), "count",
                 base});
    m.push_back({"join.pip_tests", per_query(joins.counters.pip_tests), "count",
                 base});
    m.push_back({"join.bytes_transferred",
                 per_query(joins.counters.bytes_transferred), "bytes", base});
    m.push_back({"join.batches", per_query(joins.counters.batches), "count",
                 base});
  }

  // --- raster: each pass timed alone at the sampled requests' canvases.
  std::optional<PointTable> materialized;
  const std::vector<Executor*> executors = ServedExecutors(stack);
  if (disk) {
    RJ_ASSIGN_OR_RETURN(materialized,
                        data::MaterializeBlocks(*executors[0]->block_source()));
  }
  const PointTable& rows = disk ? *materialized : inputs.table;
  {
    RasterCost cost;
    ThreadPool* pool = &stack->pool->device(0)->pool();
    const std::size_t raster_cap = std::max<std::size_t>(4, replay_cap / 4);
    for (std::size_t i = 0; i < sample.size() && i < raster_cap; ++i) {
      const Request& r = traffic.requests[sample[i]];
      RJ_RETURN_NOT_OK(TimeRasterPasses(r, executors[r.layer], rows, pool,
                                        tracer, sample[i], &cost));
    }
    const double q = static_cast<double>(cost.queries);
    const std::string base = Base("mean of %.0f raster requests", q, 0);
    const double fbo_hits = static_cast<double>(phases.after_replay.fbo_hits -
                                                phases.before_replay.fbo_hits);
    const double fbo_all =
        fbo_hits + static_cast<double>(phases.after_replay.fbo_misses -
                                       phases.before_replay.fbo_misses);
    m.push_back({"raster.clear_ms", Ratio(cost.clear, q) * 1e3, "ms", base});
    m.push_back({"raster.point_pass_ms", Ratio(cost.points, q) * 1e3, "ms",
                 base});
    m.push_back({"raster.polygon_pass_ms", Ratio(cost.polygons, q) * 1e3, "ms",
                 base});
    m.push_back({"raster.boundary_ms", Ratio(cost.boundaries, q) * 1e3, "ms",
                 base});
    m.push_back({"raster.canvas_mb", Ratio(cost.canvas_bytes, q) / kMB, "MB",
                 base});
    m.push_back({"raster.fbo_pool_hit_ratio", Ratio(fbo_hits, fbo_all),
                 "ratio", Base("%.0f hits / %.0f acquires", fbo_hits, fbo_all)});
  }

  // --- gpu: lifetime high-water marks of the busiest device.
  {
    double allocated = 0, reserved = 0;
    for (std::size_t d = 0; d < stack->pool->size(); ++d) {
      const gpu::Device* device = stack->pool->device(d);
      allocated = std::max(allocated,
                           static_cast<double>(device->peak_bytes_allocated()));
      reserved = std::max(reserved,
                          static_cast<double>(device->peak_bytes_reserved()));
    }
    const std::string base =
        Base("max over %.0f devices", static_cast<double>(stack->pool->size()),
             0);
    m.push_back({"gpu.peak_allocated_mb", allocated / kMB, "MB", base});
    m.push_back({"gpu.peak_reserved_mb", reserved / kMB, "MB", base});
  }

  // --- data: block reads and pruning of the served replay; read rate of
  // the join replay (pages come from the OS page cache).
  {
    const Snapshot& s0 = phases.before_replay;
    const Snapshot& s1 = phases.after_replay;
    const gpu::CountersSnapshot d = s1.counters.DeltaSince(s0.counters);
    const double n = static_cast<double>(executed.size());
    const double read = static_cast<double>(s1.bytes_read - s0.bytes_read);
    const double blocks = static_cast<double>(d.blocks_scanned + d.blocks_pruned);
    const double disk_seconds = joins.timing.Get(phase::kDiskRead);
    m.push_back({"data.bytes_read", disk ? Ratio(read, n) : 0.0, "bytes",
                 Base("mean of %.0f executed requests", disk ? n : 0, 0)});
    m.push_back({"data.blocks_pruned_ratio",
                 Ratio(static_cast<double>(d.blocks_pruned), blocks), "ratio",
                 Base("%.0f pruned / %.0f blocks",
                      static_cast<double>(d.blocks_pruned), blocks)});
    m.push_back({"data.read_mb_per_s",
                 Ratio(static_cast<double>(joins.bytes_read) / kMB, disk_seconds),
                 "MB/s",
                 Base("%.0f bytes in %.6f s of disk_read",
                      static_cast<double>(joins.bytes_read), disk_seconds)});
  }

  // --- agg: responses not bitwise equal to single-device in-memory
  // execution over the same rows in the same order.
  {
    gpu::Device device(DeviceConfig());
    std::vector<std::unique_ptr<Executor>> owned;
    std::vector<Executor*> reference;
    for (const Layer& layer : inputs.layers) {
      owned.push_back(std::make_unique<Executor>(&device, &rows, &layer.polys));
      reference.push_back(owned.back().get());
    }
    std::vector<const Outcome*> answered;
    for (const Outcome& o : http.outcomes) {
      if (o.ok()) answered.push_back(&o);
    }
    const std::vector<std::size_t> ids = Distinct(answered, answered.size());
    RJ_ASSIGN_OR_RETURN(ValuesByRequest expected,
                        ComputeValues(reference, traffic, ids, 4));
    double mismatched = 0;
    std::set<std::size_t> mismatched_specs;
    for (const Outcome* o : answered) {
      if (!BitwiseEqual(o->values, expected.at(o->request))) {
        ++mismatched;
        mismatched_specs.insert(o->request);
      }
    }
    char base[200];
    std::snprintf(base, sizeof(base),
                  "%.0f of %zu responses (%zu of %zu distinct specs) differ "
                  "from single-device in-memory execution%s",
                  mismatched, answered.size(), mismatched_specs.size(),
                  ids.size(), sharded ? " over the unsharded rows" : "");
    m.push_back({"agg.layout_mismatch", mismatched, "count", base});
  }

  // --- load: how late the open-loop generator ran.
  m.push_back({"load.gen_lag_p99_ms", Quantile(http.gen_lag, 0.99) * 1e3, "ms",
               Base("p99 of %.0f scheduled sends", http.gen_lag.size(), 0)});
  return m;
}

}  // namespace perfbench
