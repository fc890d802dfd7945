#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/rng.h"
#include "data/block_file.h"
#include "data/datasets.h"
#include "data/region_generator.h"
#include "data/taxi_generator.h"
#include "join/index_join.h"
#include "util.h"

namespace perfbench {

using namespace rj;

Result<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : {Workload::kDashboardZipf, Workload::kAdhocSharded,
                     Workload::kDiskZoom}) {
    if (name == WorkloadName(w)) return w;
  }
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kDashboardZipf: return "dashboard_zipf";
    case Workload::kAdhocSharded: return "adhoc_sharded";
    case Workload::kDiskZoom: return "disk_zoom";
  }
  return "?";
}

// --- Shared server configuration -----------------------------------------
//
// One configuration for every workload: result cache and fusion on, two
// devices with two shader workers each, two dispatchers (dispatchers ×
// device workers = 4, the core count of the reference host).
constexpr std::size_t kDevices = 2;
constexpr std::size_t kDeviceWorkers = 2;
constexpr std::size_t kDispatchers = 2;
constexpr std::size_t kFusionGroup = 4;
// Holds ~770 of dashboard_zipf's 864 catalog results (~10.6 KB each, 9.2 MB
// in all), so the catalog's tail still misses and evicts.
constexpr std::size_t kResultCacheBytes = 8u << 20;
constexpr std::size_t kShards = 4;
// Generator seed of the first zoomed polygon layer.
constexpr std::uint64_t kLayerSeed = 20170406;
// disk_zoom's extra trip columns: the pickup cell (see AddViewFilters).
constexpr std::size_t kPickupCellX = 5;
constexpr std::size_t kPickupCellY = 6;

gpu::DeviceOptions DeviceConfig() {
  gpu::DeviceOptions options;
  options.memory_budget_bytes = 64u << 20;
  options.max_fbo_dim = 4096;
  options.num_workers = kDeviceWorkers;
  return options;
}

WorkloadShape ShapeOf(Workload workload, bool tiny) {
  WorkloadShape shape;
  switch (workload) {
    case Workload::kDashboardZipf:
      shape.rows = 100'000;
      shape.open_loop = true;
      shape.rate_qps = 600.0;
      shape.clients = 4;
      break;
    case Workload::kAdhocSharded:
      shape.rows = 200'000;
      shape.clients = 4;
      break;
    case Workload::kDiskZoom:
      shape.rows = 400'000;
      shape.clients = 3;
      break;
  }
  if (tiny) shape.rows /= 20;
  return shape;
}

namespace {

/// A square window of side `fraction` × the extent's width around `c`,
/// kept inside the extent.
BBox Window(const BBox& extent, const Point& c, double fraction) {
  const double half = 0.5 * fraction * extent.Width();
  const double cx = std::clamp(c.x, extent.min_x + half, extent.max_x - half);
  const double cy = std::clamp(c.y, extent.min_y + half, extent.max_y - half);
  return BBox(cx - half, cy - half, cx + half, cy + half);
}

/// Pickup cell of a location on a kCells × kCells grid over the city.
constexpr int kCells = 16;
float Cell(double v, double lo, double width) {
  return static_cast<float>(
      std::clamp(static_cast<int>((v - lo) / width * kCells), 0, kCells - 1));
}

/// Pickup-cell filters selecting the cells `view` overlaps: the
/// bounding-box predicate a map client sends for a zoomed view. Every row
/// inside the view passes, so results match the unfiltered query's.
void AddViewFilters(QuerySpecBuilder* b, const BBox& view) {
  const BBox extent = NycExtentMeters();
  b->Filter(kPickupCellX, FilterOp::kGreaterEqual,
            Cell(view.min_x, extent.min_x, extent.Width()))
      .Filter(kPickupCellX, FilterOp::kLessEqual,
              Cell(view.max_x, extent.min_x, extent.Width()))
      .Filter(kPickupCellY, FilterOp::kGreaterEqual,
              Cell(view.min_y, extent.min_y, extent.Height()))
      .Filter(kPickupCellY, FilterOp::kLessEqual,
              Cell(view.max_y, extent.min_y, extent.Height()));
}

float Round2(double v) { return static_cast<float>(std::round(v * 100) / 100); }

/// Seeded filter thresholds over the trip columns: one to `max_kinds` of
/// fare, distance, tip, an hour-of-day window and passengers.
void AddAdhocFilters(QuerySpecBuilder* b, Rng* rng, std::size_t max_kinds) {
  int kinds[] = {0, 1, 2, 3, 4};
  for (int i = 4; i > 0; --i) {
    std::swap(kinds[i], kinds[rng->UniformInt(static_cast<std::uint64_t>(i) + 1)]);
  }
  const std::size_t n = 1 + rng->UniformInt(max_kinds);
  for (std::size_t k = 0; k < n; ++k) {
    switch (kinds[k]) {
      case 0:
        b->Filter(kTaxiFare, FilterOp::kGreaterEqual, Round2(rng->Uniform(2, 25)));
        break;
      case 1:
        b->Filter(kTaxiDistance, FilterOp::kLess, Round2(rng->Uniform(1, 15)));
        break;
      case 2:
        b->Filter(kTaxiTip, FilterOp::kGreaterEqual, Round2(rng->Uniform(0, 3)));
        break;
      case 3: {
        if (max_kinds == 1) {  // one conjunct only: the window needs two
          b->Filter(kTaxiHour, FilterOp::kLess, Round2(rng->Uniform(2, 24)));
          break;
        }
        const float lo = Round2(rng->Uniform(0, 20));
        b->Filter(kTaxiHour, FilterOp::kGreaterEqual, lo);
        b->Filter(kTaxiHour, FilterOp::kLess, lo + Round2(rng->Uniform(2, 8)));
        break;
      }
      default:
        b->Filter(kTaxiPassengers, FilterOp::kLessEqual,
                  static_cast<float>(1 + rng->UniformInt(4)));
        break;
    }
  }
}

/// COUNT, or SUM/AVG/MIN/MAX over one of the fractional trip columns.
void AddAdhocAggregate(QuerySpecBuilder* b, Rng* rng) {
  static constexpr AggregateKind kKinds[] = {
      AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kAverage,
      AggregateKind::kMin, AggregateKind::kMax};
  static constexpr std::size_t kColumns[] = {kTaxiFare, kTaxiTip,
                                             kTaxiDistance};
  const AggregateKind kind = kKinds[rng->UniformInt(5)];
  b->Aggregate(kind, kind == AggregateKind::kCount
                         ? PointTable::npos
                         : kColumns[rng->UniformInt(3)]);
}

/// Execution class of a closed-loop request: join variant, canvas, and
/// the layer it targets — layer `layer`, or one of the `alternatives`
/// layers from there on, picked at random.
struct Shape {
  JoinVariant variant;
  double epsilon;
  std::int32_t canvas;
  std::size_t layer;
  std::size_t alternatives;
  int weight;  ///< slots out of the class pattern
  /// Restrict to trips picked up in the layer's view (pickup-cell filters).
  bool in_view = false;
};

/// Stratified mix: each block of sum(weights) requests holds every class
/// exactly `weight` times, in a seeded order, so every seed sends the same
/// class proportions and only the parameters vary.
class ClassPattern {
 public:
  explicit ClassPattern(std::vector<Shape> shapes) : shapes_(std::move(shapes)) {}
  const Shape& Next(Rng* rng) {
    if (cursor_ == block_.size()) {
      block_.clear();
      for (std::size_t s = 0; s < shapes_.size(); ++s) {
        block_.insert(block_.end(), shapes_[s].weight, s);
      }
      for (std::size_t i = block_.size() - 1; i > 0; --i) {
        std::swap(block_[i], block_[rng->UniformInt(i + 1)]);
      }
      cursor_ = 0;
    }
    return shapes_[block_[cursor_++]];
  }

 private:
  std::vector<Shape> shapes_;
  std::vector<std::size_t> block_;
  std::size_t cursor_ = 0;
};

Request MakeRequest(std::size_t layer, const std::string& dataset,
                    QuerySpec spec) {
  Request r;
  r.layer = layer;
  spec.dataset = dataset;
  QueryRequest wire;
  wire.spec = spec;
  r.body = QueryRequestToJson(wire);
  r.spec = std::move(spec);
  return r;
}

/// dashboard_zipf's catalog: every (zoom, hour window, metric) view, ranked
/// by popularity. Zoom walks an ε ladder; pans slide a 2/4/6-hour window
/// over the day; metrics flip COUNT / SUM / AVG of fare. Ranks cycle
/// through the zoom levels (rank r is at level r mod 4) and the views within
/// a level are in a seeded order, so every seed's cache misses carry the
/// same mix of join costs.
Result<std::vector<Request>> DashboardCatalog(const Inputs& inputs, Rng* rng) {
  static constexpr double kZoom[] = {1600.0, 800.0, 400.0, 200.0};
  std::vector<std::vector<Request>> levels;
  for (double eps : kZoom) {
    std::vector<Request>& level = levels.emplace_back();
    for (int lo = 0; lo < 24; ++lo) {
      for (int width : {2, 4, 6}) {
        for (int metric = 0; metric < 3; ++metric) {
          QuerySpecBuilder b;
          b.Variant(JoinVariant::kBoundedRaster)
              .Epsilon(eps)
              .Filter(kTaxiHour, FilterOp::kGreaterEqual,
                      static_cast<float>(lo))
              .Filter(kTaxiHour, FilterOp::kLess,
                      static_cast<float>(lo + width));
          if (metric == 1) b.Sum(kTaxiFare);
          if (metric == 2) b.Average(kTaxiFare);
          RJ_ASSIGN_OR_RETURN(QuerySpec spec, b.Build());
          level.push_back(MakeRequest(0, inputs.layers[0].dataset, spec));
        }
      }
    }
    for (std::size_t i = level.size() - 1; i > 0; --i) {
      std::swap(level[i], level[rng->UniformInt(i + 1)]);
    }
  }
  std::vector<Request> catalog;
  for (std::size_t i = 0; i < levels[0].size(); ++i) {
    for (std::vector<Request>& level : levels) {
      catalog.push_back(std::move(level[i]));
    }
  }
  return catalog;
}

/// Zipf(s) cumulative popularity over `n` ranks.
std::vector<double> ZipfCdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

/// A never-repeating closed-loop stream: execution class and layer from
/// `pattern`, aggregate and filter thresholds from the seed. Duplicates (by
/// wire body) are redrawn.
Result<std::vector<Request>> ClosedStream(const Inputs& inputs,
                                          ClassPattern pattern,
                                          std::size_t length, Rng* rng) {
  std::vector<Request> stream;
  stream.reserve(length);
  std::unordered_set<std::string> seen;
  while (stream.size() < length) {
    const Shape& shape = pattern.Next(rng);
    QuerySpecBuilder b;
    b.Variant(shape.variant);
    if (shape.variant == JoinVariant::kBoundedRaster) b.Epsilon(shape.epsilon);
    if (shape.variant == JoinVariant::kAccurateRaster) b.CanvasDim(shape.canvas);
    AddAdhocAggregate(&b, rng);
    const std::size_t layer = shape.layer + rng->UniformInt(shape.alternatives);
    if (shape.in_view) {
      AddViewFilters(&b, inputs.layers[layer].view);
      AddAdhocFilters(&b, rng, 1);
    } else {
      AddAdhocFilters(&b, rng, 3);
    }
    RJ_ASSIGN_OR_RETURN(QuerySpec spec, b.Build());
    Request r = MakeRequest(layer, inputs.layers[layer].dataset, spec);
    if (seen.insert(r.body).second) stream.push_back(std::move(r));
  }
  return stream;
}

}  // namespace

Result<Inputs> GenerateInputs(Workload workload, std::uint64_t seed,
                              bool tiny) {
  const WorkloadShape shape = ShapeOf(workload, tiny);
  Rng rng(SubSeed(seed, 1));
  Inputs in;
  TaxiGeneratorOptions taxi;
  taxi.seed = rng.Next();
  in.table = GenerateTaxiPoints(shape.rows, taxi);
  const BBox extent = NycExtentMeters();
  if (workload == Workload::kDiskZoom) {
    const std::size_t cx = in.table.AddAttribute("pickup_cell_x");
    const std::size_t cy = in.table.AddAttribute("pickup_cell_y");
    for (std::size_t i = 0; i < in.table.size(); ++i) {
      const Point p = in.table.At(i);
      in.table.mutable_attribute(cx)[i] =
          Cell(p.x, extent.min_x, extent.Width());
      in.table.mutable_attribute(cy)[i] =
          Cell(p.y, extent.min_y, extent.Height());
    }
  }
  in.table.CacheExtent();

  // The geography is fixed: the 260 NYC neighborhoods and zoomed layers
  // from pinned generator seeds. The seed varies the trips and the traffic.
  RJ_ASSIGN_OR_RETURN(PolygonSet city, NycNeighborhoods());
  const char* prefix = workload == Workload::kDiskZoom ? "disk" : "taxi";
  in.layers.push_back({workload == Workload::kDashboardZipf
                           ? std::string("taxi")
                           : std::string(prefix) + "_city",
                       std::move(city), BBox()});
  // Zoomed layers at fixed places of the city frame (fractions of the
  // extent), so every seed routes and prunes alike: adhoc_sharded gets two
  // districts a quarter of the city wide, over the Manhattan-like core and
  // the airport side; disk_zoom a borough (half the width) over the core and
  // a district (a fifth) on the airport side — shard routing and block
  // pruning skip more the further in.
  struct Zoom {
    const char* name;
    double fraction;
    double fx, fy;
    std::size_t polygons;
  };
  static constexpr Zoom kAdhocZooms[] = {{"district_a", 0.25, 0.4, 0.43, 24},
                                         {"district_b", 0.25, 0.67, 0.4, 24}};
  static constexpr Zoom kDiskZooms[] = {{"borough", 0.5, 0.45, 0.45, 60},
                                        {"district", 0.2, 0.7, 0.32, 20}};
  const Zoom* first = nullptr;
  const Zoom* last = nullptr;
  if (workload == Workload::kAdhocSharded) {
    first = std::begin(kAdhocZooms);
    last = std::end(kAdhocZooms);
  } else if (workload == Workload::kDiskZoom) {
    first = std::begin(kDiskZooms);
    last = std::end(kDiskZooms);
  }
  for (const Zoom* z = first; z != last; ++z) {
    const Point centre{extent.min_x + z->fx * extent.Width(),
                       extent.min_y + z->fy * extent.Height()};
    const BBox view = Window(extent, centre, z->fraction);
    RegionGeneratorOptions options;
    options.seed = kLayerSeed + static_cast<std::uint64_t>(z - first);
    RJ_ASSIGN_OR_RETURN(PolygonSet polys,
                        GenerateRegions(z->polygons, view, options));
    in.layers.push_back({std::string(prefix) + "_" + z->name,
                         std::move(polys), view});
  }
  return in;
}

Result<std::unique_ptr<Stack>> BuildStack(Workload workload,
                                          const Inputs& inputs,
                                          const std::string& block_path) {
  auto stack = std::make_unique<Stack>();
  gpu::DevicePoolOptions pool_options;
  pool_options.num_devices = kDevices;
  pool_options.device = DeviceConfig();
  stack->pool = std::make_unique<gpu::DevicePool>(pool_options);

  service::ServiceOptions options;
  options.num_dispatchers = kDispatchers;
  options.max_fusion_group_size = kFusionGroup;
  options.result_cache_bytes = kResultCacheBytes;
  stack->service =
      std::make_unique<service::QueryService>(stack->pool.get(), options);
  service::QueryService& svc = *stack->service;

  switch (workload) {
    case Workload::kDashboardZipf:
      stack->dataset_ids.push_back(svc.RegisterDataset(
          &inputs.table, &inputs.layers[0].polys, inputs.layers[0].dataset));
      break;
    case Workload::kAdhocSharded: {
      data::ShardingOptions sharding;
      sharding.num_shards = kShards;
      sharding.policy = data::ShardPolicy::kHilbert;
      sharding.cut_mode = data::HilbertCutMode::kQuantile;
      RJ_ASSIGN_OR_RETURN(data::ShardedTable shards,
                          data::ShardedTable::Partition(inputs.table, sharding));
      stack->shards = std::make_unique<data::ShardedTable>(std::move(shards));
      for (const Layer& layer : inputs.layers) {
        stack->dataset_ids.push_back(svc.RegisterShardedDataset(
            stack->shards.get(), &layer.polys, layer.dataset));
      }
      break;
    }
    case Workload::kDiskZoom: {
      data::BlockFileOptions file_options;
      file_options.block_capacity = 16384;
      RJ_RETURN_NOT_OK(
          data::BlockFileWriter(file_options).Write(block_path, inputs.table));
      for (const Layer& layer : inputs.layers) {
        RJ_ASSIGN_OR_RETURN(std::size_t id,
                            svc.RegisterDatasetFromFile(block_path,
                                                        &layer.polys,
                                                        layer.dataset));
        stack->dataset_ids.push_back(id);
      }
      break;
    }
  }

  // Warm the lazy preprocessing every query of the workload would
  // otherwise pay on first use.
  for (std::size_t id : stack->dataset_ids) {
    Executor* executor = svc.dataset_executor(id);
    RJ_RETURN_NOT_OK(executor->GetTriangulation().status());
    if (workload == Workload::kAdhocSharded) {
      RJ_RETURN_NOT_OK(
          executor->GetCpuIndex(IndexJoinOptions{}.index_resolution).status());
    }
  }

  net::QueryServerOptions server_options;
  server_options.http.num_workers = ShapeOf(workload, false).clients + 2;
  stack->server = std::make_unique<net::QueryServer>(&svc, server_options);
  RJ_RETURN_NOT_OK(stack->server->Start());
  return stack;
}

Result<Traffic> GenerateTraffic(Workload workload, std::uint64_t seed,
                                const Inputs& inputs, bool tiny,
                                std::size_t stream_length) {
  Traffic traffic;
  traffic.shape = ShapeOf(workload, tiny);
  Rng rng(SubSeed(seed, 2));
  switch (workload) {
    case Workload::kDashboardZipf: {
      RJ_ASSIGN_OR_RETURN(traffic.requests, DashboardCatalog(inputs, &rng));
      traffic.popularity_cdf = ZipfCdf(traffic.requests.size(), 1.2);
      break;
    }
    case Workload::kAdhocSharded: {
      // Layer 0 covers the whole city (no shard is skipped); layers 1-2
      // are the districts (routing skips shards). The city-wide accurate
      // canvas is the one heavy class, 3% of requests, so the p99 falls
      // inside it rather than on a boundary between classes.
      ClassPattern pattern({{JoinVariant::kBoundedRaster, 800, 0, 0, 1, 20},
                            {JoinVariant::kBoundedRaster, 800, 0, 1, 2, 30},
                            {JoinVariant::kBoundedRaster, 400, 0, 0, 1, 20},
                            {JoinVariant::kBoundedRaster, 400, 0, 1, 2, 30},
                            {JoinVariant::kBoundedRaster, 200, 0, 0, 1, 18},
                            {JoinVariant::kBoundedRaster, 200, 0, 1, 2, 26},
                            {JoinVariant::kBoundedRaster, 100, 0, 0, 1, 10},
                            {JoinVariant::kBoundedRaster, 100, 0, 1, 2, 14},
                            {JoinVariant::kBoundedRaster, 50, 0, 1, 2, 6},
                            {JoinVariant::kAccurateRaster, 0, 512, 1, 2, 8},
                            {JoinVariant::kAccurateRaster, 0, 1024, 1, 2, 6},
                            {JoinVariant::kAccurateRaster, 0, 1024, 0, 1, 6},
                            {JoinVariant::kIndexCpu, 0, 0, 0, 1, 2},
                            {JoinVariant::kIndexCpu, 0, 0, 1, 2, 4}});
      RJ_ASSIGN_OR_RETURN(traffic.requests,
                          ClosedStream(inputs, pattern, stream_length, &rng));
      break;
    }
    case Workload::kDiskZoom: {
      // Layers: city (0), borough (1), district (2). Half of the zoomed
      // requests also filter on the view's pickup cells, which zone maps
      // prune to a few blocks; the other requests scan every block. The
      // city-wide accurate canvas is the one heavy class, 3% of requests.
      std::vector<Shape> shapes;
      for (std::size_t layer = 0; layer < 3; ++layer) {
        for (const auto& [eps, weight] : {std::pair<double, int>{800, 8},
                                          {400, 8}, {200, 7}, {100, 5}}) {
          const int in_view = layer == 0 ? 0 : weight / 2;
          shapes.push_back({JoinVariant::kBoundedRaster, eps, 0, layer, 1,
                            weight - in_view});
          if (in_view > 0) {
            shapes.push_back({JoinVariant::kBoundedRaster, eps, 0, layer, 1,
                              in_view, true});
          }
        }
      }
      shapes.push_back({JoinVariant::kBoundedRaster, 50, 0, 1, 2, 3});
      shapes.push_back({JoinVariant::kBoundedRaster, 50, 0, 1, 2, 3, true});
      shapes.push_back({JoinVariant::kAccurateRaster, 0, 512, 1, 2, 4});
      shapes.push_back({JoinVariant::kAccurateRaster, 0, 512, 1, 2, 3, true});
      shapes.push_back({JoinVariant::kAccurateRaster, 0, 512, 0, 1, 3});
      RJ_ASSIGN_OR_RETURN(traffic.requests,
                          ClosedStream(inputs, ClassPattern(std::move(shapes)),
                                       stream_length, &rng));
      break;
    }
  }
  return traffic;
}

}  // namespace perfbench
