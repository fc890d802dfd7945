/// \file workloads.h
/// \brief The benchmark's workloads: inputs generated from the seed, the
/// served stack they run against, and the request traffic they send.
///
/// Every workload runs against the same server configuration (ServerConfig
/// below); each registers its own datasets. The three workloads stress
/// different layers:
///
///  * dashboard_zipf — open loop, Zipf popularity over a catalog larger
///    than the result cache: front end, queueing and cache lookups do most
///    of the work; the join runs on misses only, which set the p99.
///  * adhoc_sharded — closed loop, every request new: the cache sees only
///    inserts and evictions; join, raster, placement/merge, admission and
///    fusion do the work, over Hilbert shards on a two-device pool.
///  * disk_zoom — closed loop over a v2 block file registered at three
///    zoom levels: the only workload that runs the data layer (mmap block
///    reads, the disk stage of the pipeline, zone-map pruning).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/point_table.h"
#include "data/sharded_table.h"
#include "geometry/polygon.h"
#include "gpu/device_pool.h"
#include "net/server.h"
#include "query/query_spec.h"
#include "service/query_service.h"

namespace perfbench {

enum class Workload { kDashboardZipf, kAdhocSharded, kDiskZoom };

rj::Result<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload workload);

/// Row counts and traffic shape of one workload.
struct WorkloadShape {
  std::size_t rows = 0;
  bool open_loop = false;
  /// Open loop: fixed absolute arrival rate (requests per second).
  double rate_qps = 0.0;
  /// Closed loop: clients; open loop: sender threads. One connection each.
  std::size_t clients = 4;
};
WorkloadShape ShapeOf(Workload workload, bool tiny);

/// A polygon layer and the dataset name it is registered under.
struct Layer {
  std::string dataset;
  rj::PolygonSet polys;
  /// The zoomed view the layer covers (empty for the city-wide layer).
  rj::BBox view;
};

/// Everything generated from the seed. Not part of set-up time.
struct Inputs {
  rj::PointTable table;
  std::vector<Layer> layers;  ///< one registered dataset per layer
};
rj::Result<Inputs> GenerateInputs(Workload workload, std::uint64_t seed,
                                  bool tiny);

/// Pool → service → HTTP server, with the workload's datasets registered
/// and their lazy preprocessing warmed. Members are destroyed in reverse
/// order: the server stops before the service drains.
struct Stack {
  std::unique_ptr<rj::gpu::DevicePool> pool;
  std::unique_ptr<rj::data::ShardedTable> shards;
  std::unique_ptr<rj::service::QueryService> service;
  std::unique_ptr<rj::net::QueryServer> server;
  /// Dataset id per input layer, in layer order.
  std::vector<std::size_t> dataset_ids;
};

/// Builds and warms the stack (the timed set-up). `block_path` is where the
/// disk workload writes its block file.
rj::Result<std::unique_ptr<Stack>> BuildStack(Workload workload,
                                              const Inputs& inputs,
                                              const std::string& block_path);

/// Device configuration shared by the served pool and the single-device
/// reference executors.
rj::gpu::DeviceOptions DeviceConfig();

/// One request: the layer (dataset) it targets, its spec, and its v1 body.
struct Request {
  std::size_t layer = 0;
  rj::QuerySpec spec;
  std::string body;
};

/// The workload's traffic. Open loop: `requests` is the catalog, ranked by
/// popularity, sampled through `popularity_cdf`. Closed loop: `requests` is
/// a never-repeating stream consumed in order.
struct Traffic {
  WorkloadShape shape;
  std::vector<Request> requests;
  std::vector<double> popularity_cdf;
};
rj::Result<Traffic> GenerateTraffic(Workload workload, std::uint64_t seed,
                                    const Inputs& inputs, bool tiny,
                                    std::size_t stream_length);

}  // namespace perfbench
