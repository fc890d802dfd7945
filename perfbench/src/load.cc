#include "load.h"

#include <chrono>
#include <cmath>
#include <future>
#include <thread>

#include "common/rng.h"
#include "net/client.h"
#include "net/wire.h"

namespace perfbench {

using namespace rj;

namespace {

// A response slower than this counts as timed out.
constexpr double kResponseTimeoutSeconds = 30.0;
// Open-loop senders spin for the last stretch before a scheduled send.
constexpr std::chrono::microseconds kSpinBeforeDue{300};

struct Arrival {
  double at;
  std::size_t request;
};

/// Poisson arrivals at `rate` over [0, seconds), views by popularity.
std::vector<Arrival> Schedule(const Traffic& traffic, double seconds,
                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Arrival> arrivals;
  const std::vector<double>& cdf = traffic.popularity_cdf;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.Uniform()) / traffic.shape.rate_qps;
    if (t >= seconds) break;
    const double u = rng.Uniform();
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    arrivals.push_back({t, std::min(rank, cdf.size() - 1)});
  }
  return arrivals;
}

/// Sends one request on `channel` and fills `out` (everything but `due`).
void Send(const Request& request, Channel channel, net::HttpClient* client,
          Stack* stack, Tracer* tracer, std::uint64_t id,
          Clock::time_point t0, Outcome* out) {
  const ScopedSpan root(tracer, "load.request", Tracer::kNoParent, id);
  out->sent = SecondsBetween(t0, Clock::now());
  if (channel == Channel::kHttp) {
    Result<net::HttpClientResponse> response = [&] {
      const ScopedSpan span(tracer, "net.post", root.id(), id);
      return client->Post("/v1/query", request.body);
    }();
    if (!response.ok()) {
      out->error = response.status().ToString();
      out->timed_out = out->error.find("timed out") != std::string::npos;
    } else {
      out->status = response.value().status;
      if (out->status != 200) {
        out->error = response.value().body;
      } else {
        const ScopedSpan span(tracer, "net.decode", root.id(), id);
        Result<net::DecodedQueryResponse> decoded =
            net::ParseQueryResponse(response.value().body);
        if (!decoded.ok()) {
          out->error = decoded.status().ToString();
        } else {
          out->values = std::move(decoded.value().values);
          out->queue_seconds = decoded.value().queue_seconds;
          out->execute_seconds = decoded.value().execute_seconds;
          out->cache_hit = decoded.value().cache_hit;
        }
      }
    }
  } else {
    std::future<service::ServiceResponse> future;
    bool ready = false;
    {
      const ScopedSpan span(tracer, "service.submit", root.id(), id);
      future = stack->service->Submit(stack->dataset_ids[request.layer],
                                      request.spec);
      ready = future.wait_for(std::chrono::duration<double>(
                  kResponseTimeoutSeconds)) == std::future_status::ready;
    }
    if (!ready) {
      out->timed_out = true;
      out->error = "service: response timed out";
    } else {
      service::ServiceResponse response = future.get();
      if (!response.result.ok()) {
        out->status = HttpStatusFor(response.result.status().code());
        out->error = response.result.status().ToString();
      } else {
        {
          const ScopedSpan span(tracer, "net.serialize", root.id(), id);
          const Clock::time_point start = Clock::now();
          const std::string body = net::QueryResponseJson(response);
          out->serialize_seconds = SecondsBetween(start, Clock::now());
        }
        out->status = 200;
        out->values = response.result.value().values;
        const service::QueryStats& s = response.stats;
        out->queue_seconds = s.queue_seconds;
        out->execute_seconds = s.execute_seconds;
        out->cache_hit = s.cache_hit;
        out->fused_group_size = s.fused_group_size;
        out->granted_bytes = s.granted_bytes;
        out->shards_routed = s.shards_routed;
        out->shards_skipped = s.shards_skipped;
        out->shard_cache_hits = s.shard_cache_hits;
      }
    }
  }
  out->done = SecondsBetween(t0, Clock::now());
}

}  // namespace

Result<PhaseResult> RunPhase(const Traffic& traffic, Stack* stack,
                             Channel channel, double seconds,
                             std::uint64_t schedule_seed,
                             std::atomic<std::size_t>* cursor, Tracer* tracer,
                             std::uint64_t request_id_base) {
  const WorkloadShape& shape = traffic.shape;
  const std::vector<Arrival> arrivals =
      shape.open_loop ? Schedule(traffic, seconds, schedule_seed)
                      : std::vector<Arrival>();
  // Open loop: one slot per scheduled arrival. Closed loop: each client
  // appends to its own list (merged below).
  std::vector<Outcome> scheduled(arrivals.size());
  std::vector<double> lag(arrivals.size(), 0.0);
  std::vector<std::vector<Outcome>> per_client(shape.clients);
  std::atomic<std::size_t> next_arrival{0};
  std::atomic<bool> exhausted{false};
  const int port = stack->server->port();

  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  auto worker = [&](std::size_t c) {
    net::HttpClient client("127.0.0.1", port, kResponseTimeoutSeconds);
    client.set_replay_safe_posts(true);  // /v1/query is read-only
    if (shape.open_loop) {
      for (;;) {
        const std::size_t i = next_arrival.fetch_add(1);
        if (i >= arrivals.size()) return;
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(arrivals[i].at));
        // Sleep until just before the due time, then spin: a plain sleep
        // wakes up late by the timer slack and scheduler wake-up latency,
        // which would be charged to the request.
        std::this_thread::sleep_until(due - kSpinBeforeDue);
        while (Clock::now() < due) {
        }
        Outcome& out = scheduled[i];
        out.request = arrivals[i].request;
        out.due = arrivals[i].at;
        Send(traffic.requests[out.request], channel, &client, stack, tracer,
             request_id_base + i, t0, &out);
        lag[i] = out.sent - out.due;
      }
    }
    while (Clock::now() < deadline) {
      const std::size_t i = cursor->fetch_add(1);
      if (i >= traffic.requests.size()) {
        exhausted = true;
        return;
      }
      Outcome out;
      out.request = i;
      Send(traffic.requests[i], channel, &client, stack, tracer,
           request_id_base + i, t0, &out);
      out.due = out.sent;
      per_client[c].push_back(std::move(out));
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(shape.clients);
  for (std::size_t c = 0; c < shape.clients; ++c) {
    threads.emplace_back(worker, c);
  }
  for (std::thread& t : threads) t.join();

  PhaseResult result;
  result.exhausted = exhausted;
  result.gen_lag = std::move(lag);
  result.outcomes = std::move(scheduled);
  for (std::vector<Outcome>& list : per_client) {
    for (Outcome& o : list) result.outcomes.push_back(std::move(o));
  }
  for (const Outcome& o : result.outcomes) {
    result.elapsed = std::max(result.elapsed, o.done);
  }
  return result;
}

}  // namespace perfbench
