#include "oracle.h"

#include <atomic>
#include <mutex>
#include <thread>

#include "util.h"

namespace perfbench {

using namespace rj;

Result<ValuesByRequest> ComputeValues(const std::vector<Executor*>& executors,
                                      const Traffic& traffic,
                                      const std::vector<std::size_t>& requests,
                                      std::size_t threads) {
  ExecPolicy policy;
  policy.shard_cache = false;
  std::vector<std::vector<double>> values(requests.size());
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  Status error = Status::OK();
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= requests.size()) return;
      const Request& r = traffic.requests[requests[i]];
      Result<QueryResult> result =
          executors[r.layer]->ExecuteUncached(r.spec.ToQuery(policy));
      if (!result.ok()) {
        std::lock_guard<std::mutex> lock(error_mutex);
        error = result.status();
        return;
      }
      values[i] = std::move(result.value().values);
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  RJ_RETURN_NOT_OK(error);
  ValuesByRequest out;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    out.emplace(requests[i], std::move(values[i]));
  }
  return out;
}

std::vector<Executor*> ServedExecutors(Stack* stack) {
  std::vector<Executor*> executors;
  for (std::size_t id : stack->dataset_ids) {
    executors.push_back(stack->service->dataset_executor(id));
  }
  return executors;
}

void Verdict::Check(const Outcome& outcome, const ValuesByRequest& expected) {
  ++attempted;
  std::string why;
  if (outcome.timed_out) {
    ++timed_out;
    why = "timed out";
  } else if (!outcome.ok()) {
    ++non_200;
    why = "status " + std::to_string(outcome.status) + ": " + outcome.error;
  } else if (!BitwiseEqual(outcome.values, expected.at(outcome.request))) {
    ++divergent;
    why = "values differ from Executor::ExecuteUncached";
  }
  if (!why.empty() && first_failure.empty()) {
    first_failure = "request " + std::to_string(outcome.request) + ": " + why;
  }
}

}  // namespace perfbench
