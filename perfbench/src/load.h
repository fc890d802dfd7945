/// \file load.h
/// \brief Load generation: open-loop (Poisson, fixed absolute rate) and
/// closed-loop drivers over the v1 HTTP protocol or, for the traced
/// service replay, straight into QueryService::Submit.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

enum class Channel {
  kHttp,       ///< POST /v1/query over a keep-alive loopback connection
  kInProcess,  ///< QueryService::Submit, to read the full QueryStats
};

/// One sent request and what came back. Times are seconds since the
/// phase started.
struct Outcome {
  std::size_t request = 0;  ///< index into Traffic::requests
  /// When the request was due: its scheduled send (open loop) or its send
  /// (closed loop). Latency is charged from here.
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;  ///< response received and decoded
  int status = 0;     ///< HTTP status; 0 when no response arrived
  bool timed_out = false;
  std::string error;  ///< set when the request did not succeed
  std::vector<double> values;
  // The response's own accounting (QueryStats; queue and execute time and
  // the cache flag also travel on the wire).
  double queue_seconds = 0.0;
  double execute_seconds = 0.0;
  bool cache_hit = false;
  // In-process channel only: QueryStats fields the wire does not carry.
  std::size_t fused_group_size = 1;
  std::size_t granted_bytes = 0;
  std::size_t shards_routed = 0;
  std::size_t shards_skipped = 0;
  std::size_t shard_cache_hits = 0;
  /// net::QueryResponseJson on the response (what the server would send).
  double serialize_seconds = 0.0;

  bool ok() const { return status == 200 && error.empty(); }
  double latency() const { return done - due; }
};

struct PhaseResult {
  std::vector<Outcome> outcomes;
  /// Phase start to the last completion.
  double elapsed = 0.0;
  /// Open loop: per request, how late the generator sent it (seconds).
  std::vector<double> gen_lag;
  /// Closed loop: the stream ran out before the phase ended.
  bool exhausted = false;
};

/// Drives the workload's traffic for `seconds`. Open loop: Poisson
/// arrivals at the shape's fixed rate, views drawn by popularity, both
/// from `schedule_seed`, sent by `clients` sender threads. Closed loop:
/// `clients` clients each send the next request of the stream (`*cursor`)
/// as soon as their previous one returns. With a tracer, each request
/// records a root span and spans around the layer calls it makes; request
/// ids start at `request_id_base`.
rj::Result<PhaseResult> RunPhase(const Traffic& traffic, Stack* stack,
                                 Channel channel, double seconds,
                                 std::uint64_t schedule_seed,
                                 std::atomic<std::size_t>* cursor,
                                 Tracer* tracer,
                                 std::uint64_t request_id_base);

}  // namespace perfbench
