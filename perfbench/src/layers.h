/// \file layers.h
/// \brief The traced run's per-layer breakdown.
///
/// Every number is measured from outside the library: spans around calls
/// into each layer's public functions, counters the layers already expose
/// (QueryStats, ResultCacheStats, plan-cache stats, device counters,
/// PointBlockSource::bytes_read, FboPool hits), and small replays of the
/// workload's own requests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "gpu/counters.h"
#include "load.h"
#include "query/result_cache.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// One reported number. `base` names the counts a ratio or mean rests on.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;
};

/// Library counters read before and after the traced service replay.
struct Snapshot {
  rj::query::ResultCacheStats cache;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_lookups = 0;
  std::uint64_t fbo_hits = 0;
  std::uint64_t fbo_misses = 0;
  rj::gpu::CountersSnapshot counters;
  std::uint64_t bytes_read = 0;
};
Snapshot TakeSnapshot(Stack* stack);

/// The traced run's two traced phases and the counters around the replay.
struct TracedPhases {
  const PhaseResult* http = nullptr;    ///< traced HTTP traffic
  const PhaseResult* replay = nullptr;  ///< QueryService::Submit replay
  Snapshot before_replay;
  Snapshot after_replay;
};

/// Measures every per-layer metric (layers that do no work on this
/// workload report 0 with an empty base). `replay_cap` bounds the
/// sequential join replay; raster passes are timed on a smaller sample.
rj::Result<std::vector<Metric>> MeasureLayers(Workload workload,
                                              const Inputs& inputs,
                                              Stack* stack,
                                              const Traffic& traffic,
                                              const TracedPhases& phases,
                                              Tracer* tracer,
                                              std::size_t replay_cap);

}  // namespace perfbench
