// perfbench: the repository benchmark. Runs one workload and prints, as the
// last line of standard output, one JSON object:
//
//   {"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Normally launched through perfbench/run.py, which builds it:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit SHA] [--source-digest HEX] [--out-dir DIR]
//
// Workloads: service_mix, archival_sweep, frontier_small, fleet_cheetah.
// See perfbench/README.md for what each measures and why. Exit status: 0
// when every answer checked out, 1 on any wrong or failed answer or drifting
// count, 2 on bad usage or a non-Release build.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/bench.h"
#include "src/obs/metrics.h"
#include "src/util/json.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 5;
// Failed operations after which a run stops early (a dead daemon would
// otherwise fail every remaining operation instantly).
constexpr int64_t kMaxFailedOps = 50;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string out_dir = ".bench_build/perfbench/results";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1);
}

// The metrics BENCHMARK.json lists under `section` ("end_to_end" or
// "per_layer"): name -> unit. The output carries exactly these.
std::map<std::string, std::string> ListedMetrics(const std::string& section) {
  const std::string text = ReadFileOrEmpty("BENCHMARK.json");
  const longstore::json::Value doc = longstore::json::Parse(text, "BENCHMARK.json");
  const longstore::json::Value* list = doc.Find(section);
  if (list == nullptr || list->kind != longstore::json::Value::Kind::kArray) {
    throw std::runtime_error("BENCHMARK.json: no " + section + " list");
  }
  std::map<std::string, std::string> out;
  for (const longstore::json::Value& metric : list->array) {
    const longstore::json::Value* name = metric.Find("name");
    const longstore::json::Value* unit = metric.Find("unit");
    if (name == nullptr || unit == nullptr) {
      throw std::runtime_error("BENCHMARK.json: metric without name or unit");
    }
    out[name->string] = unit->string;
  }
  return out;
}

std::unique_ptr<Workload> MakeWorkload(Context& ctx) {
  if (ctx.workload == "service_mix") return MakeServiceMix(ctx);
  if (ctx.workload == "archival_sweep") return MakeArchivalSweep(ctx);
  if (ctx.workload == "frontier_small") return MakeFrontierSmall(ctx);
  if (ctx.workload == "fleet_cheetah") return MakeFleetCheetah(ctx);
  return nullptr;
}

// {"name": {"value": v, "unit": "u"}, ...} with every digit of each value.
std::string MetricsJson(const MetricMap& metrics) {
  std::string out;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    out += out.empty() ? "{" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  return out.empty() ? "{}" : out + "}";
}

// Inputs must be a pure function of the seed: the same seed twice gives the
// same bytes, another seed different ones.
void SeedSelfTest(const Workload& workload, Context& ctx) {
  const std::vector<std::string> once = workload.InputDocuments(ctx.seed);
  const std::vector<std::string> again = workload.InputDocuments(ctx.seed);
  const uint64_t other = ctx.seed == kHeldOutSeed ? kGoldenSeed : kHeldOutSeed;
  const std::vector<std::string> different = workload.InputDocuments(other);
  ctx.checker.Expect(once == again, "seed self-test: same seed, different inputs");
  ctx.checker.Expect(once != different,
                     "seed self-test: seeds " + std::to_string(ctx.seed) + " and " +
                         std::to_string(other) + " give identical inputs");
}

struct PassResult {
  std::vector<double> latency_ms;
  std::vector<int64_t> end_ns;
  std::vector<int64_t> trials;
  std::vector<std::string> kinds;
  int64_t start_ns = 0;
  int64_t new_trials = 0;
  int64_t attempted = 0;
  int64_t failed_ops = 0;
  double wall_s = 0.0;
  std::vector<int64_t> op_spans;
};

// Runs operations closed loop until `deadline_ns` (or `max_ops`).
PassResult RunOps(Workload& workload, Context& ctx, int64_t deadline_ns,
                  int64_t max_ops) {
  PassResult pass;
  const int64_t start = NowNs();
  pass.start_ns = start;
  int64_t last_end = start;
  for (int64_t i = 0; i < max_ops && NowNs() < deadline_ns; ++i) {
    ctx.tracer.set_op(i);
    const int64_t failures_before = ctx.checker.failures();
    const int64_t op_start = NowNs();
    OpOutcome outcome;
    {
      ScopedSpan span(ctx.tracer, "op");
      pass.op_spans.push_back(span.id());
      try {
        outcome = workload.RunOp(i);
      } catch (const std::exception& e) {
        ctx.checker.Fail(std::string("operation ") + std::to_string(i) + ": " + e.what());
        outcome.kind = "error";
      }
    }
    last_end = NowNs();
    ++pass.attempted;
    if (ctx.checker.failures() > failures_before) {
      if (++pass.failed_ops >= kMaxFailedOps) {
        break;
      }
    }
    pass.latency_ms.push_back(static_cast<double>(last_end - op_start) / 1e6);
    pass.end_ns.push_back(last_end);
    pass.trials.push_back(outcome.new_trials);
    pass.kinds.push_back(outcome.kind);
    pass.new_trials += outcome.new_trials;
  }
  ctx.tracer.set_op(-1);
  pass.wall_s = static_cast<double>(last_end - start) / 1e9;
  return pass;
}

// Throughput as the median over consecutive blocks of `block` operations
// (each block one full cycle of the stream) of work per second, so a
// transient stall elsewhere on the machine moves one block, not the result.
// Returns {operations/s, trials/s}.
std::pair<double, double> BlockThroughput(const PassResult& pass, int64_t block) {
  std::vector<double> ops_per_s;
  std::vector<double> trials_per_s;
  int64_t block_start = pass.start_ns;
  int64_t trials = 0;
  for (size_t i = 0; i < pass.end_ns.size(); ++i) {
    trials += pass.trials[i];
    if ((static_cast<int64_t>(i) + 1) % block == 0) {
      const double seconds = static_cast<double>(pass.end_ns[i] - block_start) / 1e9;
      ops_per_s.push_back(static_cast<double>(block) / seconds);
      trials_per_s.push_back(static_cast<double>(trials) / seconds);
      block_start = pass.end_ns[i];
      trials = 0;
    }
  }
  return {Median(ops_per_s), Median(trials_per_s)};
}

// {steal, total} jiffies summed over all CPUs since boot, from /proc/stat;
// steal is time the hypervisor ran something else while this machine's CPUs
// wanted to run. {0, 0} where the file is missing.
std::pair<int64_t, int64_t> CpuJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  int64_t total = 0;
  int64_t steal = 0;
  int64_t value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    total += value;
    if (field == 7) {
      steal = value;
    }
  }
  return {steal, total};
}

// Operations attempted, and those that failed or were answered wrongly.
struct OpTally {
  int64_t attempted = 0;
  int64_t failed = 0;
};

// The timed run: set-up repeated (median = setup_s), then closed-loop
// operations for --seconds, with telemetry runtime-off everywhere.
OpTally RunTimed(Workload& workload, Context& ctx, const Args& args,
                 MetricMap* out, MetricMap* detail) {
  MetricMap& metrics = *out;
  longstore::obs::SetEnabled(false);
  SetChildTelemetry(false);
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const int64_t start = NowNs();
    workload.Setup();
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (r + 1 < kSetupRepeats) {
      workload.Teardown();
    }
  }
  const auto [steal_before, total_before] = CpuJiffies();
  const PassResult pass = RunOps(workload, ctx,
                                 NowNs() + static_cast<int64_t>(args.seconds * 1e9),
                                 INT64_MAX);
  const auto [steal_after, total_after] = CpuJiffies();
  workload.EndOfOps();
  workload.VerifyAfter();
  const double rss = workload.PeakRssMb();
  workload.Teardown();
  const auto [ops_per_s, trials_per_s] =
      BlockThroughput(pass, workload.OpsPerBlock());
  metrics["setup_s"] = {Median(setup_s), "s"};
  metrics["ops_per_s"] = {ops_per_s, "1/s"};
  metrics["trials_per_s"] = {trials_per_s, "1/s"};
  metrics["op_p50_ms"] = {Median(pass.latency_ms), "ms"};
  metrics["op_p90_ms"] = {Percentile(pass.latency_ms, 90.0), "ms"};
  metrics["peak_rss_mb"] = {rss, "MiB"};
  // Not a result: a noisy host shows here, so a slow run can be told apart
  // from a slow program.
  (*detail)["host_steal_share"] = {
      total_after > total_before
          ? static_cast<double>(steal_after - steal_before) / (total_after - total_before)
          : 0.0,
      "ratio"};
  std::printf("timed phase: %lld operations in %.3f s (p90 needs >= 100: %s); "
              "mean %.4g ops/s, %.4g trials/s\n",
              static_cast<long long>(pass.attempted), pass.wall_s,
              pass.latency_ms.size() >= 100 ? "ok" : "TOO FEW",
              static_cast<double>(pass.latency_ms.size()) / std::max(pass.wall_s, 1e-9),
              static_cast<double>(pass.new_trials) / std::max(pass.wall_s, 1e-9));
  // Latency and share of operations by how each was answered (service_mix:
  // miss, hit, resume), for the report.
  std::map<std::string, std::vector<double>> by_kind;
  for (size_t i = 0; i < pass.kinds.size(); ++i) {
    by_kind[pass.kinds[i]].push_back(pass.latency_ms[i]);
  }
  for (const auto& [kind, values] : by_kind) {
    if (kind != "op") {
      (*detail)[kind + "_p50_ms"] = {Median(values), "ms"};
      (*detail)[kind + "_p90_ms"] = {Percentile(values, 90.0), "ms"};
      (*detail)[kind + "_count"] = {static_cast<double>(values.size()), "count"};
      (*detail)[kind + "_share"] = {
          static_cast<double>(values.size()) / static_cast<double>(pass.kinds.size()),
          "ratio"};
    }
  }
  return {pass.attempted, pass.failed_ops};
}

// The traced run: pass A untraced, pass B traced over the same operations;
// their counts must agree. Then the layer probes, twice.
OpTally RunTraced(Workload& workload, Context& ctx, const Args& args,
                  MetricMap* out, MetricMap* detail) {
  MetricMap& metrics = *out;
  const int64_t n = workload.TracedOps();
  // Pass A: untraced, telemetry off everywhere.
  longstore::obs::SetEnabled(false);
  SetChildTelemetry(false);
  ctx.tracer.set_enabled(false);
  workload.Setup();
  const PassResult untraced = RunOps(workload, ctx, INT64_MAX, n);
  workload.EndOfOps();
  workload.VerifyAfter();
  workload.Teardown();
  const Counts counts_a = workload.PassCounts();

  // Pass B: the same operations with telemetry on and spans recorded.
  longstore::obs::SetEnabled(true);
  SetChildTelemetry(true);
  ctx.tracer.set_enabled(true);
  workload.Setup();
  longstore::obs::Registry::Global().ResetValues();
  const PassResult traced = RunOps(workload, ctx, INT64_MAX, n);
  workload.EndOfOps();
  workload.VerifyAfter();
  workload.Teardown();
  const Counts counts_b = workload.PassCounts();

  // Exact-count check: a drifting count means the workload changed.
  ctx.checker.Expect(counts_a == counts_b, "pass counts differ between passes");
  for (const auto& [key, value] : counts_b) {
    const auto it = counts_a.find(key);
    const int64_t a = it != counts_a.end() ? it->second : -1;
    std::printf("count %-32s %lld%s\n", key.c_str(), static_cast<long long>(value),
                a == value ? "" : (" (pass A: " + std::to_string(a) + ")").c_str());
  }

  workload.LayerMetrics(&metrics);
  longstore::WorkerPool pool(ctx.nproc);
  Counts probe_a;
  Counts probe_b;
  MetricMap repeat;
  ProbeLayers(workload.SweepDocuments(), workload.ShardCount(), ctx.seed, pool,
              &metrics, &probe_a);
  ProbeLayers(workload.SweepDocuments(), workload.ShardCount(), ctx.seed, pool,
              &repeat, &probe_b);
  ctx.checker.Expect(probe_a == probe_b, "layer probe counts differ between repeats");

  // Layer spans plus unattributed time sum to each operation's time.
  double unattributed = 0.0;
  double op_total = 0.0;
  for (const int64_t id : traced.op_spans) {
    const Span& op = ctx.tracer.spans()[static_cast<size_t>(id)];
    const double rest = op.ms() - ctx.tracer.ChildrenMs(id);
    ctx.checker.Expect(rest > -0.01, "layer spans overlap their operation span");
    unattributed += rest;
    op_total += op.ms();
  }
  const double ops = static_cast<double>(std::max<size_t>(traced.op_spans.size(), 1));
  metrics["unattributed_ms"] = {unattributed / ops, "ms"};
  metrics["obs.trace_overhead_share"] = {
      Median(traced.latency_ms) / Median(untraced.latency_ms) - 1.0, "ratio"};
  std::printf("traced passes: %lld operations each; op %.3f ms (untraced %.3f ms), "
              "unattributed %.4f ms/op (%.2f%%)\n",
              static_cast<long long>(n), Median(traced.latency_ms),
              Median(untraced.latency_ms), unattributed / ops,
              op_total > 0 ? 100.0 * unattributed / op_total : 0.0);
  std::printf("span totals (ms/op):\n");
  std::map<std::string, double> by_name;
  for (const Span& span : ctx.tracer.spans()) {
    by_name[span.name] += span.ms();
  }
  for (const auto& [name, total] : by_name) {
    std::printf("  %-26s %.4f\n", name.c_str(), total / ops);
  }

  // Listed per-layer metrics go on the result line, 0 where the workload has
  // no such layer. Timings that exist only where their layer runs (service
  // handle and transport, fleet attempts, frontier evaluations) go to the
  // report instead: a time that reads 0 on every other workload is not a
  // measurement.
  const std::map<std::string, std::string> listed = ListedMetrics("per_layer");
  for (auto it = metrics.begin(); it != metrics.end();) {
    if (listed.count(it->first) == 0) {
      detail->insert(*it);
      it = metrics.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& [name, unit] : listed) {
    metrics.emplace(name, MetricValue{0.0, unit});
  }
  std::ofstream(args.out_dir + "/spans-" + args.workload + "-s" +
                std::to_string(args.seed) + ".jsonl")
      << ctx.tracer.ToJsonl();
  return {untraced.attempted + traced.attempted, untraced.failed_ops + traced.failed_ops};
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
                 "       [--commit SHA] [--source-digest HEX] [--out-dir DIR]\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build with assertions on\n");
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing a %s build; configure Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  // Removes the scratch directory on every exit path, after the workload
  // (declared later, destroyed first) has stopped its processes.
  struct ScratchDir {
    std::string path;
    ~ScratchDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } work_dir{".bench_build/perfbench/run-" + std::to_string(::getpid())};

  Context ctx;
  ctx.workload = args.workload;
  ctx.seed = args.seed;
  ctx.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  ctx.work_dir = work_dir.path;
  std::filesystem::create_directories(ctx.work_dir);
  std::filesystem::create_directories(args.out_dir);

  std::unique_ptr<Workload> workload = MakeWorkload(ctx);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  std::printf("provenance: nproc=%d compiler=\"%s\" build=%s lto=%s "
              "telemetry_compiled_in=%s commit=%s source_digest=%s "
              "golden_seed=%llu held_out_seed=%llu\n",
              ctx.nproc, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              PERFBENCH_LTO ? "on" : "off",
              longstore::obs::kTelemetryCompiledIn ? "yes" : "no",
              args.commit.c_str(), args.source_digest.c_str(),
              static_cast<unsigned long long>(kGoldenSeed),
              static_cast<unsigned long long>(kHeldOutSeed));

  SeedSelfTest(*workload, ctx);

  MetricMap metrics;
  MetricMap detail;
  const OpTally ops = args.trace == 0
                         ? RunTimed(*workload, ctx, args, &metrics, &detail)
                         : RunTraced(*workload, ctx, args, &metrics, &detail);
  for (const auto& [name, value] : detail) {
    std::printf("report %-28s %.6g %s\n", name.c_str(), value.value, value.unit.c_str());
  }
  // The output names exactly the metrics BENCHMARK.json lists, in its units.
  const std::map<std::string, std::string> listed =
      ListedMetrics(args.trace == 0 ? "end_to_end" : "per_layer");
  ctx.checker.Expect(listed.size() == metrics.size(),
                     "metric set differs from BENCHMARK.json");
  for (const auto& [name, value] : metrics) {
    const auto it = listed.find(name);
    ctx.checker.Expect(it != listed.end() && it->second == value.unit,
                       "metric " + name + " (" + value.unit + ") not in BENCHMARK.json");
  }

  // `failed` counts operations; a check not tied to one operation (seed
  // self-test, after-run comparisons, goldens, counts, probes) still makes
  // the run incorrect.
  for (const std::string& message : ctx.checker.messages()) {
    std::printf("CHECK FAILED: %s\n", message.c_str());
  }
  std::printf("checks failed: %lld (operations failed: %lld of %lld)\n",
              static_cast<long long>(ctx.checker.failures()),
              static_cast<long long>(ops.failed), static_cast<long long>(ops.attempted));
  const bool correct = ctx.checker.failures() == 0;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(std::max<int64_t>(ops.attempted, 1)) +
      ", \"failed\": " + std::to_string(ops.failed) +
      ", \"metrics\": " + MetricsJson(metrics) + "}";
  std::ofstream(args.out_dir + "/" + args.workload + "-s" + std::to_string(args.seed) +
                "-t" + std::to_string(args.trace) + ".json")
      << "{\"provenance\": {\"nproc\": " << ctx.nproc << ", \"compiler\": \""
      << PERFBENCH_COMPILER << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"lto\": " << (PERFBENCH_LTO ? "true" : "false")
      << ", \"telemetry_compiled_in\": "
      << (longstore::obs::kTelemetryCompiledIn ? "true" : "false")
      << ", \"telemetry_runtime\": \"" << (args.trace == 1 ? "off then on" : "off")
      << "\", \"commit\": \"" << args.commit << "\", \"source_digest\": \""
      << args.source_digest << "\", \"golden_seed\": " << kGoldenSeed
      << ", \"held_out_seed\": " << kHeldOutSeed << "}, \"report\": "
      << MetricsJson(detail) << ", \"result\": " << result << "}\n";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
