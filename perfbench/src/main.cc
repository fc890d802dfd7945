/// \file main.cc
/// \brief Served-traffic benchmark: one process starts the real stack on
/// loopback (net::QueryServer → service::QueryService → Executor → join /
/// raster / gpu / data), drives one workload over the v1 HTTP protocol,
/// checks every response against Executor::ExecuteUncached, and prints
/// each metric by name with its unit. The last stdout line is one JSON
/// object: {"correct", "attempted", "failed", "metrics"}.
///
///   perfbench --workload <dashboard_zipf|adhoc_sharded|disk_zoom>
///             --seed <n> --seconds <s> --trace <0|1>
///             [--out <dir>] [--source-id <id>] [--tiny] [--corrupt-one]
///
/// --trace 0 measures the end-to-end metrics (no spans recorded).
/// --trace 1 is the separate traced run: it sends the same traffic once
/// untraced and once traced (the latency difference is the tracing
/// overhead), replays it through QueryService::Submit, replays a sample of
/// its joins one at a time, and reports the per-layer metrics. Spans are
/// written to <out>/trace-<workload>-seed<n>.json.
/// --tiny shrinks the inputs (self-tests); --corrupt-one flips one bit of
/// one decoded response before it is checked, which must fail the run.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "load.h"
#include "oracle.h"
#include "trace.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace rj;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

// A generator whose p99 lateness exceeds this is not offering the load
// the schedule describes: the run is marked invalid.
constexpr double kMaxGenLagP99Seconds = 0.1;
// Cap on set-up repetitions when each one is short.
constexpr std::size_t kMaxSetups = 101;
// The p99 has at least ten samples beyond it from this many requests on;
// latency percentiles are taken per time window of at least this many
// requests.
constexpr std::size_t kP99Samples = 1000;

struct Args {
  Workload workload = Workload::kDashboardZipf;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt_one = false;
  std::string out = ".bench_build/perfbench/runs";
  std::string source_id = "unknown";
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<dashboard_zipf|adhoc_sharded|disk_zoom> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>] [--source-id <id>] "
               "[--tiny] [--corrupt-one]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (flag == "--corrupt-one") {
      args->corrupt_one = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      Result<Workload> w = ParseWorkload(value);
      if (!w.ok()) return false;
      args->workload = w.value();
      have[0] = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
      have[1] = true;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
      have[3] = true;
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--source-id") {
      args->source_id = value;
    } else {
      return false;
    }
  }
  return have[0] && have[1] && have[2] && have[3];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    s += buf;
  }
  return s + "}";
}

void PrintMetric(const Metric& m) {
  std::printf("  %-28s %14.6g %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.base.c_str());
}

/// Latency quantile `q` of the successful outcomes, as the median over
/// equal time windows of the phase that each hold about kP99Samples
/// requests or more (a single window below 2 × kP99Samples). A stall of the
/// shared host then moves one window's figure, not the result; a slower
/// program moves every window. `*windows` receives the window count.
double WindowedLatency(const PhaseResult& phase, double q,
                       std::size_t* windows) {
  std::size_t ok = 0;
  for (const Outcome& o : phase.outcomes) ok += o.ok() ? 1 : 0;
  const std::size_t k = std::max<std::size_t>(1, ok / kP99Samples);
  std::vector<std::vector<double>> by_window(k);
  for (const Outcome& o : phase.outcomes) {
    if (!o.ok()) continue;
    const auto w = static_cast<std::size_t>(
        o.due / std::max(phase.elapsed, 1e-9) * static_cast<double>(k));
    by_window[std::min(w, k - 1)].push_back(o.latency());
  }
  std::vector<double> per_window;
  for (const std::vector<double>& latencies : by_window) {
    if (!latencies.empty()) per_window.push_back(Quantile(latencies, q));
  }
  *windows = k;
  return Quantile(per_window, 0.5);
}

/// Keeps every core out of idle while load runs: one SCHED_IDLE thread per
/// core spins, and the scheduler hands its core to any runnable program
/// thread at once. On a virtual machine an idle core is halted, and waking
/// it costs a hypervisor round trip whose length depends on the host's
/// other tenants; sub-millisecond latencies would measure that instead of
/// the program. The spinners never run while a program thread wants the
/// core. A thread that cannot enter SCHED_IDLE exits instead of spinning.
class IdleSpinners {
 public:
  IdleSpinners() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
          return;
        }
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_ = true;
    for (std::thread& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Flips the lowest mantissa bit of the first finite value of the first
/// successful outcome (self-test of the oracle).
void CorruptOne(std::vector<Outcome>* outcomes) {
  for (Outcome& o : *outcomes) {
    if (!o.ok()) continue;
    for (double& v : o.values) {
      if (std::isfinite(v)) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        bits ^= 1;
        std::memcpy(&v, &bits, sizeof(v));
        return;
      }
    }
  }
}

int Run(const Args& args) {
  const char* name = WorkloadName(args.workload);
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.out.c_str());
    return 1;
  }
  const std::string tag = std::string(name) + "-seed" +
                          std::to_string(args.seed) + "-trace" +
                          (args.trace ? "1" : "0");
  const std::string block_path = args.out + "/" + tag + ".rjb";
  const double warmup_seconds = args.tiny ? 0.3 : 2.0;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n", name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.tiny ? " tiny" : "");

  // --- Inputs from the seed (not timed).
  Result<Inputs> inputs = GenerateInputs(args.workload, args.seed, args.tiny);
  if (!inputs.ok()) {
    std::fprintf(stderr, "inputs: %s\n", inputs.status().ToString().c_str());
    return 1;
  }
  const std::size_t stream_length = static_cast<std::size_t>(
      600.0 * (args.seconds + warmup_seconds) + 1000.0);
  Result<Traffic> traffic = GenerateTraffic(args.workload, args.seed,
                                            inputs.value(), args.tiny,
                                            stream_length);
  if (!traffic.ok()) {
    std::fprintf(stderr, "traffic: %s\n", traffic.status().ToString().c_str());
    return 1;
  }
  const Traffic& t = traffic.value();

  // --- Set-up, repeated until it has run `min_setups` times and for
  // `min_setup_seconds` (the median is reported); the last stack serves the
  // run.
  const std::size_t min_setups = args.trace ? 1 : (args.tiny ? 2 : 7);
  const double min_setup_seconds = args.trace || args.tiny ? 0.0 : 1.5;
  std::vector<double> setup_seconds;
  double setup_total = 0.0;
  std::unique_ptr<Stack> stack;
  while (setup_seconds.size() < min_setups ||
         (setup_total < min_setup_seconds &&
          setup_seconds.size() < kMaxSetups)) {
    stack.reset();
    const Clock::time_point start = Clock::now();
    Result<std::unique_ptr<Stack>> built =
        BuildStack(args.workload, inputs.value(), block_path);
    if (!built.ok()) {
      std::fprintf(stderr, "setup: %s\n", built.status().ToString().c_str());
      return 1;
    }
    stack = std::move(built).value();
    setup_seconds.push_back(SecondsBetween(start, Clock::now()));
    setup_total += setup_seconds.back();
  }

  // --- Load phases.
  std::atomic<std::size_t> cursor{0};
  std::vector<PhaseResult> phases;  // [0] warmup, then the measured ones
  auto run_phase = [&](Channel channel, double seconds, std::uint64_t stream,
                       Tracer* tracer) -> bool {
    Result<PhaseResult> r =
        RunPhase(t, stack.get(), channel, seconds, SubSeed(args.seed, stream),
                 &cursor, tracer, stream << 32);
    if (!r.ok()) {
      std::fprintf(stderr, "load: %s\n", r.status().ToString().c_str());
      return false;
    }
    phases.push_back(std::move(r).value());
    return true;
  };
  const Clock::time_point origin = Clock::now();
  Tracer tracer(origin);
  TracedPhases traced;
  auto spinners = std::make_unique<IdleSpinners>();
  if (!run_phase(Channel::kHttp, warmup_seconds, 10, nullptr)) return 1;
  if (!args.trace) {
    if (!run_phase(Channel::kHttp, args.seconds, 11, nullptr)) return 1;
  } else {
    const double third = args.seconds / 3.0;
    if (!run_phase(Channel::kHttp, third, 11, nullptr)) return 1;
    if (!run_phase(Channel::kHttp, third, 12, &tracer)) return 1;
    traced.before_replay = TakeSnapshot(stack.get());
    if (!run_phase(Channel::kInProcess, third, 13, &tracer)) return 1;
    traced.after_replay = TakeSnapshot(stack.get());
    traced.http = &phases[2];
    traced.replay = &phases[3];
  }
  spinners.reset();
  const double peak_rss_mb = PeakRssMb();
  const PhaseResult& measured = phases[1];
  if (args.corrupt_one) CorruptOne(&phases[1].outcomes);

  // --- Oracle: every response against ExecuteUncached on the same
  // registered dataset.
  std::vector<std::size_t> requests;
  for (const PhaseResult& p : phases) {
    for (const Outcome& o : p.outcomes) requests.push_back(o.request);
  }
  std::sort(requests.begin(), requests.end());
  requests.erase(std::unique(requests.begin(), requests.end()),
                 requests.end());
  Result<ValuesByRequest> expected =
      ComputeValues(ServedExecutors(stack.get()), t, requests, 4);
  if (!expected.ok()) {
    std::fprintf(stderr, "oracle: %s\n", expected.status().ToString().c_str());
    return 1;
  }
  Verdict all;
  Verdict timed;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    for (const Outcome& o : phases[p].outcomes) {
      all.Check(o, expected.value());
      if (p == 1) timed.Check(o, expected.value());
    }
  }

  // --- Validity of the offered load.
  bool valid = true;
  std::string invalid_reason;
  double lag_p99 = 0.0;
  if (t.shape.open_loop) {
    lag_p99 = Quantile(measured.gen_lag, 0.99);
    if (lag_p99 > kMaxGenLagP99Seconds) {
      valid = false;
      invalid_reason = "open-loop generator fell behind its schedule";
    }
  }
  for (const PhaseResult& p : phases) {
    if (p.exhausted) {
      valid = false;
      invalid_reason = "closed-loop request stream ran out";
    }
  }

  // --- End-to-end metrics of the measured phase.
  std::vector<double> latency;
  std::size_t hits = 0;
  for (const Outcome& o : measured.outcomes) {
    if (!o.ok()) continue;
    latency.push_back(o.latency());
    if (o.cache_hit) ++hits;
  }
  const std::uint64_t correct_200 = timed.attempted - timed.failed();
  const std::size_t beyond_p99 = latency.size() / 100;
  std::size_t windows = 1;
  const double p50 = WindowedLatency(measured, 0.5, &windows);
  const double p99 = WindowedLatency(measured, 0.99, &windows);
  const std::string window_note =
      windows == 1 ? std::string()
                   : ", median over " + std::to_string(windows) +
                         " time windows";
  std::vector<Metric> metrics;
  metrics.push_back({"latency_p50_ms", p50 * 1e3, "ms",
                     std::to_string(latency.size()) + " samples" +
                         window_note});
  metrics.push_back({"latency_p99_ms", p99 * 1e3, "ms",
                     std::to_string(latency.size()) + " samples, " +
                         std::to_string(beyond_p99 / windows) +
                         " beyond per window" + window_note});
  metrics.push_back(
      {"throughput_qps",
       Ratio(static_cast<double>(correct_200), measured.elapsed), "1/s",
       std::to_string(correct_200) + " correct 200s in " +
           std::to_string(measured.elapsed) + " s"});
  metrics.push_back(
      {"setup_s", Quantile(setup_seconds, 0.5), "s",
       "median of " + std::to_string(setup_seconds.size()) + " (min " +
           std::to_string(Quantile(setup_seconds, 0.0)) + ", max " +
           std::to_string(Quantile(setup_seconds, 1.0)) + ")"});
  metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB", "getrusage ru_maxrss"});

  std::printf("end-to-end (%s):\n", args.trace ? "untraced third of this run"
                                               : "measured phase");
  for (const Metric& m : metrics) PrintMetric(m);
  std::printf("  %-28s %14.6g %-6s (non-200 %llu + timed-out %llu + "
              "divergent %llu) / attempted %llu\n",
              "error_rate", Ratio(static_cast<double>(timed.failed()),
                                  static_cast<double>(timed.attempted)),
              "ratio", static_cast<unsigned long long>(timed.non_200),
              static_cast<unsigned long long>(timed.timed_out),
              static_cast<unsigned long long>(timed.divergent),
              static_cast<unsigned long long>(timed.attempted));
  if (!args.tiny && latency.size() < kP99Samples) {
    std::printf("  note: fewer than %zu samples, p99 has <10 beyond it\n",
                kP99Samples);
  }
  std::printf("  served from the result cache: %zu of %zu responses\n", hits,
              latency.size());
  if (t.shape.open_loop) {
    std::printf("  load: open loop %.0f req/s, %zu senders; generator lag "
                "p50 %.3f ms, p99 %.3f ms (limit %.0f ms)\n",
                t.shape.rate_qps, t.shape.clients,
                Quantile(measured.gen_lag, 0.5) * 1e3, lag_p99 * 1e3,
                kMaxGenLagP99Seconds * 1e3);
  } else {
    std::printf("  load: closed loop, %zu clients\n", t.shape.clients);
  }
  std::printf("  checked %llu responses (warm-up included): %llu failed%s%s\n",
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.failed()),
              all.first_failure.empty() ? "" : "; first: ",
              all.first_failure.c_str());
  if (!valid) std::printf("  INVALID RUN: %s\n", invalid_reason.c_str());

  // --- Traced run: per-layer metrics.
  if (args.trace) {
    Result<std::vector<Metric>> layers =
        MeasureLayers(args.workload, inputs.value(), stack.get(), t, traced,
                      &tracer, args.tiny ? 8 : 120);
    if (!layers.ok()) {
      std::fprintf(stderr, "layers: %s\n", layers.status().ToString().c_str());
      return 1;
    }
    std::size_t traced_windows = 1;
    const double untraced_p50 = p50;
    const double traced_p50 = WindowedLatency(phases[2], 0.5, &traced_windows);
    std::printf("tracing overhead: latency p50 %.4f ms traced vs %.4f ms "
                "untraced (%+.4f ms, %+.2f%%), %zu spans\n",
                traced_p50 * 1e3, untraced_p50 * 1e3,
                (traced_p50 - untraced_p50) * 1e3,
                100.0 * Ratio(traced_p50 - untraced_p50, untraced_p50),
                tracer.size());
    std::printf("self time by layer (all spans):\n");
    for (const auto& [layer, seconds] : tracer.SelfSecondsByLayer()) {
      std::printf("  %-10s %12.3f ms\n", layer.c_str(), seconds * 1e3);
    }
    std::printf("per-layer:\n");
    for (const Metric& m : layers.value()) PrintMetric(m);
    const std::string trace_path =
        args.out + "/trace-" + name + "-seed" + std::to_string(args.seed) +
        ".json";
    if (!tracer.Write(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", trace_path.c_str());
    metrics = std::move(layers).value();
  }

  // --- Metadata, result file, last line.
  char meta[768];
  std::snprintf(
      meta, sizeof(meta),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"tiny\": %s, \"source\": \"%s\", \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"nproc\": %u, \"rows\": %zu, "
      "\"samples\": %zu, \"windows\": %zu, \"p99_beyond_per_window\": %zu, "
      "\"attempted\": %llu, "
      "\"valid\": %s}",
      name, static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, args.tiny ? "true" : "false", args.source_id.c_str(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      std::thread::hardware_concurrency(), inputs.value().table.size(),
      latency.size(), windows, beyond_p99 / windows,
      static_cast<unsigned long long>(all.attempted),
      valid ? "true" : "false");
  std::printf("meta %s\n", meta);
  const bool correct = valid && all.failed() == 0;
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                correct ? "true" : "false",
                static_cast<unsigned long long>(all.attempted),
                static_cast<unsigned long long>(all.failed()));
  const std::string result =
      std::string(head) + "\"metrics\": " + JsonMetrics(metrics) + "}";
  if (std::FILE* f = std::fopen((args.out + "/" + tag + ".json").c_str(), "w")) {
    std::fprintf(f, "{\"meta\": %s, \"result\": %s}\n", meta, result.c_str());
    std::fclose(f);
  }
  stack.reset();
  std::filesystem::remove(block_path, ec);
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    return perfbench::Usage("bad or missing arguments");
  }
  return perfbench::Run(args);
}
