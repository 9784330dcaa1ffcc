// Shared machinery of the repository benchmark (perfbench): the workload
// interface, the in-memory span tracer, answer checking, order statistics,
// and the small process/memory helpers the workloads share.
//
// A workload is one closed-loop stream of operations generated from the
// `--seed` argument: the next operation starts only after the previous one
// returns. main.cc drives every workload through the same two procedures:
//
//   * the timed run (--trace 0): set up several times (median = setup_s),
//     then run operations until --seconds elapse, with telemetry
//     runtime-off, and check every answer;
//   * the traced run (--trace 1): two passes over the same fixed-length
//     operation prefix — pass A untraced (telemetry off, no spans), pass B
//     traced (telemetry on, spans at every layer call) — whose exact counts
//     must agree, plus the per-layer probes of probes.cc.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sweep/sweep.h"

namespace perfbench {

// steady_clock nanoseconds. On Linux this is CLOCK_MONOTONIC, the clock the
// library's trace journals stamp `ts_ns` with, so spans recovered from a
// daemon's or fleet's journal line up with spans recorded here.
int64_t NowNs();

// --- spans -----------------------------------------------------------------

struct Span {
  int64_t id = 0;
  int64_t parent = -1;  // -1: a root (an operation span)
  int64_t op = -1;      // operation index the span belongs to
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

// In-memory span store. Disabled (the default) it records nothing and every
// call is a branch; spans are written out once, when the benchmark ends.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Opens a span as a child of the innermost open span; returns its id (-1
  // when disabled).
  int64_t Begin(const std::string& name);
  void End(int64_t id);
  // Records a finished span measured elsewhere (e.g. recovered from a trace
  // journal) under `parent`.
  int64_t Add(const std::string& name, int64_t start_ns, int64_t end_ns,
              int64_t parent);
  // The operation index stamped on spans opened from now on.
  void set_op(int64_t op) { op_ = op; }

  const std::vector<Span>& spans() const { return spans_; }
  // Summed duration (ms) of the direct children of span `id`.
  double ChildrenMs(int64_t id) const;
  std::string ToJsonl() const;

 private:
  bool enabled_ = false;
  int64_t op_ = -1;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int64_t id_;
};

// --- answer checking -------------------------------------------------------

class Checker {
 public:
  // Records a failed check (a wrong or failed answer).
  void Fail(const std::string& what);
  bool Expect(bool ok, const std::string& what) {
    if (!ok) {
      Fail(what);
    }
    return ok;
  }
  int64_t failures() const { return failures_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  int64_t failures_ = 0;
  std::vector<std::string> messages_;
};

// Pinned golden bytes (FNV-1a 64 of the canonical JSON), checked on every
// run unless LONGSTORE_SKIP_EXACT_GOLDENS is set — the same switch the
// golden tests honour on uncontrolled toolchains.
inline constexpr uint64_t kGoldenSeed = 33;
// A seed no workload was tuned on, recorded for later gain claims.
inline constexpr uint64_t kHeldOutSeed = 1009;
// tools/figure_sweeps.h BuildCheetahSweep (mc.seed 33): SweepResult::ToJson.
inline constexpr uint64_t kCheetahGoldenFnv = 0x4b3cbeecd2a14a7aull;
// GoldenSmall{Target,Space,Options} frontier, FrontierResult::ToJson; the
// value tests/frontier_golden_test.cc pins.
inline constexpr uint64_t kFrontierGoldenFnv = 0xf316199283e24decull;
// archival_sweep's grid at seed 33, variant 0: SweepResult::ToJson.
inline constexpr uint64_t kArchivalGoldenFnv = 0x7e4cb78f172642d0ull;
bool SkipExactGoldens();
// Records a failed check unless `bytes` hash to `pin` (or goldens are
// skipped).
void CheckGolden(Checker& checker, const std::string& what,
                 const std::string& bytes, uint64_t pin);

// --- statistics ------------------------------------------------------------

double Median(std::vector<double> values);
// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> values, double p);

// --- metrics ---------------------------------------------------------------

struct MetricValue {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, MetricValue>;
// Counts that must repeat exactly between two passes of one seed.
using Counts = std::map<std::string, int64_t>;

// --- environment -----------------------------------------------------------

struct Context {
  std::string workload;
  uint64_t seed = 0;
  int nproc = 1;
  // Scratch directory inside the checkout (sockets, journals, fleet files).
  std::string work_dir;
  Tracer tracer;
  Checker checker;
};

// Input seed of variant k of a workload: the run's seed itself for k = 0
// (so the golden seed reproduces the golden inputs), a derived stream
// otherwise.
uint64_t VariantSeed(uint64_t seed, int k);

// The trial horizon SweepRunner uses for `options` (MTTDL trials run to the
// safety cap; mission-loss trials to the mission; censored to the window).
longstore::Duration TrialHorizon(const longstore::SweepOptions& options);

// Whether child processes (daemon, fleet workers) record telemetry: sets or
// clears LONGSTORE_TELEMETRY_OFF in this process's environment, which every
// spawned process inherits. Call only between passes, with no child running.
void SetChildTelemetry(bool on);

// Peak resident set (VmHWM) in MiB: of this process, of its largest reaped
// child, or of a live child by pid (0 when unreadable).
double SelfPeakRssMb();
double ChildrenPeakRssMb();
double ProcessPeakRssMb(pid_t pid);

std::string ReadFileOrEmpty(const std::string& path);
// Every line of a JSONL trace journal whose "event" is `event`, parsed.
struct JournalEvent {
  std::string event;
  int64_t ts_ns = 0;
  std::map<std::string, std::string> strings;
  std::map<std::string, double> numbers;
};
std::vector<JournalEvent> ReadJournal(const std::string& path);

// --- workloads -------------------------------------------------------------

struct OpOutcome {
  // service_mix: "miss", "hit" or "resume" (how the daemon answered);
  // "op" elsewhere.
  std::string kind = "op";
  int64_t new_trials = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Brings the system to ready for a fresh stream: documents built, pool or
  // daemon up and warmed. Timed as setup_s. Child processes record
  // telemetry exactly when SetChildTelemetry(true) is in force.
  virtual void Setup() = 0;
  // Stops everything Setup started.
  virtual void Teardown() = 0;
  // Operation `index` of the seeded stream; checks its answer.
  virtual OpOutcome RunOp(int64_t index) = 0;
  // Called right after a pass's last operation, before VerifyAfter:
  // snapshots the counters and telemetry that PassCounts and LayerMetrics
  // report, so the checks cannot disturb them.
  virtual void EndOfOps() {}
  // Answer checks that must stay outside the timed phase (pinned goldens,
  // reference runs). Runs before Teardown.
  virtual void VerifyAfter() = 0;

  // The documents `seed` generates, for the seed self-test.
  virtual std::vector<std::string> InputDocuments(uint64_t seed) const = 0;
  // Single-shard sweep documents representative of the stream, for the
  // generic layer probes (storage, util, shard, sweep).
  virtual std::vector<std::string> SweepDocuments() const = 0;
  // Shard count the workload's sweeps travel in (fleet: 3, otherwise 1).
  virtual int ShardCount() const { return 1; }

  // Consecutive operations per throughput block: one full cycle of the
  // stream's variants, so every block carries the same mix of work.
  virtual int64_t OpsPerBlock() const = 0;
  // Operations per traced pass: fixed, so per-layer counts repeat exactly.
  virtual int64_t TracedOps() const = 0;
  virtual Counts PassCounts() const = 0;
  // Per-layer metrics of the traced pass, from the spans and whatever
  // Teardown collected.
  virtual void LayerMetrics(MetricMap* out) const = 0;
  // Peak resident memory of the process doing the work. Called before
  // Teardown.
  virtual double PeakRssMb() const = 0;
};

std::unique_ptr<Workload> MakeServiceMix(Context& ctx);
std::unique_ptr<Workload> MakeArchivalSweep(Context& ctx);
std::unique_ptr<Workload> MakeFrontierSmall(Context& ctx);
std::unique_ptr<Workload> MakeFleetCheetah(Context& ctx);

// Generic per-layer probes on a workload's own documents (probes.cc):
// storage.*, util.*, shard.* and sweep.finalize_us / sweep.result_json_us.
// Counts (events, eventless trials, prefilter skips) are also returned in
// `counts` so the caller can demand they repeat exactly.
void ProbeLayers(const std::vector<std::string>& sweep_documents,
                 int shard_count, uint64_t seed, longstore::WorkerPool& pool,
                 MetricMap* out, Counts* counts);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
