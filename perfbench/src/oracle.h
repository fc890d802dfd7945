/// \file oracle.h
/// \brief Expected results for the benchmark's requests, and the check of
/// every response against them.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "load.h"
#include "query/executor.h"
#include "workloads.h"

namespace perfbench {

using ValuesByRequest = std::unordered_map<std::size_t, std::vector<double>>;

/// Runs Executor::ExecuteUncached for each listed request on the executor
/// of its layer (`executors[request.layer]`), `threads` at a time. The
/// per-shard partial cache is off, so these executions neither read nor
/// fill the served cache.
rj::Result<ValuesByRequest> ComputeValues(
    const std::vector<rj::Executor*>& executors, const Traffic& traffic,
    const std::vector<std::size_t>& requests, std::size_t threads);

/// The served executors, one per layer, in layer order.
std::vector<rj::Executor*> ServedExecutors(Stack* stack);

/// Why responses failed, counted over the requests sent.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t non_200 = 0;    ///< an HTTP status other than 200, or none
  std::uint64_t timed_out = 0;  ///< no response within the client timeout
  std::uint64_t divergent = 0;  ///< 200, but values differ from the oracle
  std::string first_failure;
  std::uint64_t failed() const { return non_200 + timed_out + divergent; }
  void Check(const Outcome& outcome, const ValuesByRequest& expected);
};

}  // namespace perfbench
