// service_mix: a real sweep_serviced over its Unix socket, one client
// connection, closed loop. The client sends a seeded stream of §5.4 Cheetah
// sweep documents (kMttdl, 3 cells x 4000 trials, a distinct mc.seed per
// document), in cycles of 12 requests shuffled per cycle:
//
//   4 x fresh          a never-seen document: a miss (cold run, cached)
//   2 x fresh adaptive the same at relative precision 0.1: a miss
//   2 x tighter        an earlier adaptive document at precision 0.015: the
//                      daemon resumes from the stored run
//   4 x repeat         an exact repeat: a hit
//
// Repeats pick among the 40 most recently used documents with Zipf(1)
// popularity by recency rank, so they stay inside the daemon's default
// 64-entry LRU; fresh documents keep arriving, so the working set outgrows
// the cache and it evicts. Seed 33's first document is the golden figure.
//
// The shares (1/2 misses, 1/3 hits, 1/6 resumes) and the Zipf window are
// chosen, not measured: no traffic in this repository mixes the three kinds
// (frontier searches through the service send non-adaptive documents only,
// so they never resume). The window keeps every repeat a hit and so makes
// the answer sequence a function of the seed. With these precisions a
// resume simulates about 79% of the trials of its cold run
// (service.resume_trial_share 0.786 at seed 1009). The timed run reports the
// measured share of each answer kind.
//
// Checks: every answer is ok; every answer for a sweep_id seen before
// returns the bytes of its first answer (hits return their miss's bytes);
// a sampled miss and a sampled resume equal an in-process cold run of the
// same document; the golden figure's bytes match the pin.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench.h"
#include "src/frontier/eval_backend.h"
#include "src/obs/metrics.h"
#include "src/service/service_protocol.h"
#include "src/shard/shard.h"
#include "src/util/json.h"
#include "src/util/random.h"
#include "tools/figure_sweeps.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace longstore;

constexpr char kCycle[] = "FFFFAAHHHHRR";
constexpr size_t kRepeatWindow = 40;
constexpr double kLoosePrecision = 0.1;
constexpr double kTightPrecision = 0.015;
constexpr int64_t kAdaptiveMaxTrials = 20000;
constexpr int64_t kPregeneratedOps = 600;

struct StreamDoc {
  std::string shard_document;
  std::string request;
  uint64_t sweep_id = 0;
};

StreamDoc MakeDoc(uint64_t mc_seed, double precision) {
  SweepSpec spec;
  SweepOptions options;
  BuildCheetahSweep(&spec, &options);
  options.mc.seed = mc_seed;
  if (precision > 0.0) {
    options.adaptive = true;
    options.relative_precision = precision;
    options.max_trials = kAdaptiveMaxTrials;
  }
  const ShardSpec shard = ShardPlan(spec, options, 1).shards()[0];
  StreamDoc doc;
  doc.shard_document = shard.ToJson();
  doc.sweep_id = shard.sweep_id;
  ServiceRequest request;
  request.kind = ServiceRequest::Kind::kSweep;
  request.sweep_document = doc.shard_document;
  doc.request = request.ToJson();
  return doc;
}

// The seeded request stream: a pure function of the seed, generated lazily.
class Stream {
 public:
  struct Op {
    size_t doc = 0;
    char kind = 'F';     // F fresh, A fresh adaptive, H repeat, R tighter
    size_t loose = 0;    // R: the adaptive document it tightens
  };

  explicit Stream(uint64_t seed) : seed_(seed), rng_(DeriveSeed(seed, 0x5e41ce)) {}

  const Op& op(int64_t index) {
    while (static_cast<int64_t>(ops_.size()) <= index) {
      Generate();
    }
    return ops_[static_cast<size_t>(index)];
  }
  const StreamDoc& doc(size_t index) const { return docs_[index]; }

 private:
  void Generate() {
    if (pos_ == cycle_.size()) {
      cycle_.assign(kCycle, kCycle + sizeof(kCycle) - 1);
      for (size_t i = cycle_.size() - 1; i > 0; --i) {  // Fisher-Yates
        std::swap(cycle_[i], cycle_[rng_.NextBounded(i + 1)]);
      }
      pos_ = 0;
    }
    // Keep every prefix feasible: a tighter request needs an untightened
    // adaptive document, a repeat needs a document to repeat.
    if (cycle_[pos_] == 'R' && pending_.empty()) {
      SwapWithNext("A");
    } else if (cycle_[pos_] == 'H' && recent_.empty()) {
      SwapWithNext("FA");
    }
    Op op;
    op.kind = cycle_[pos_++];
    switch (op.kind) {
      case 'F':
      case 'A': {
        const uint64_t mc_seed = VariantSeed(seed_, static_cast<int>(fresh_++));
        op.doc = Add(MakeDoc(mc_seed, op.kind == 'A' ? kLoosePrecision : 0.0),
                     mc_seed);
        if (op.kind == 'A') {
          pending_.push_back(op.doc);
        }
        break;
      }
      case 'R':
        op.loose = pending_.front();
        pending_.pop_front();
        Touch(op.loose);
        op.doc = Add(MakeDoc(seed_of_[op.loose], kTightPrecision),
                     seed_of_[op.loose]);
        break;
      default: {  // 'H'
        const size_t window = std::min(recent_.size(), kRepeatWindow);
        double total = 0.0;
        for (size_t r = 1; r <= window; ++r) {
          total += 1.0 / static_cast<double>(r);
        }
        double u = rng_.NextDouble() * total;
        size_t rank = 1;
        for (; rank < window; ++rank) {
          u -= 1.0 / static_cast<double>(rank);
          if (u < 0.0) {
            break;
          }
        }
        op.doc = recent_[recent_.size() - rank];
        Touch(op.doc);
        break;
      }
    }
    ops_.push_back(op);
  }

  void SwapWithNext(const char* kinds) {
    for (size_t j = pos_ + 1; j < cycle_.size(); ++j) {
      if (std::string(kinds).find(cycle_[j]) != std::string::npos) {
        std::swap(cycle_[pos_], cycle_[j]);
        return;
      }
    }
    throw std::logic_error("service_mix: infeasible request cycle");
  }

  size_t Add(StreamDoc doc, uint64_t mc_seed) {
    docs_.push_back(std::move(doc));
    const size_t index = docs_.size() - 1;
    seed_of_.push_back(mc_seed);
    recent_.push_back(index);
    return index;
  }

  // Moves `doc` to the most-recently-used end, as the daemon's LRU does on
  // a hit.
  void Touch(size_t doc) {
    for (size_t i = 0; i < recent_.size(); ++i) {
      if (recent_[i] == doc) {
        recent_.erase(recent_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    recent_.push_back(doc);
  }

  uint64_t seed_;
  Rng rng_;
  std::string cycle_;
  size_t pos_ = 0;
  uint64_t fresh_ = 0;
  std::vector<StreamDoc> docs_;
  std::vector<uint64_t> seed_of_;  // mc.seed of each document
  std::vector<Op> ops_;
  std::vector<size_t> recent_;
  std::deque<size_t> pending_;
};

// One sweep_serviced process and the benchmark's single connection to it.
class Daemon {
 public:
  Daemon(const std::string& socket_path, const std::string& trace_path,
         const std::string& log_path) {
    std::vector<std::string> args = {PERFBENCH_SWEEP_SERVICED,
                                     "--socket=" + socket_path};
    if (!trace_path.empty()) {
      args.push_back("--trace-out=" + trace_path);
    }
    std::vector<char*> argv;
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    const int rc = posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("service_mix: cannot spawn sweep_serviced");
    }
  }

  // Ready = the socket accepts and a ping comes back. Separate from the
  // constructor so that a daemon that never gets ready is still reaped.
  void WaitReady(const std::string& socket_path) {
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
    const int64_t deadline = NowNs() + 20'000'000'000;
    while (fd_ < 0) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
        fd_ = fd;
        break;
      }
      ::close(fd);
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("service_mix: sweep_serviced exited at startup");
      }
      if (NowNs() > deadline) {
        throw std::runtime_error("service_mix: sweep_serviced never listened");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ServiceRequest ping;
    ping.kind = ServiceRequest::Kind::kPing;
    const ServiceResponse pong = ServiceResponse::FromJson(RoundTrip(ping.ToJson()));
    if (!pong.ok || pong.source != "pong") {
      throw std::runtime_error("service_mix: bad ping answer");
    }
  }

  ~Daemon() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // One request frame out, one response frame back.
  std::string RoundTrip(const std::string& request) {
    std::string payload;
    std::string error;
    if (!WriteFrame(fd_, request) ||
        ReadFrame(fd_, &payload, &error) != FrameStatus::kOk) {
      throw std::runtime_error("service_mix: transport failure " + error);
    }
    ++requests_;
    return payload;
  }

  ServiceResponse Control(ServiceRequest::Kind kind) {
    ServiceRequest request;
    request.kind = kind;
    const ServiceResponse response = ServiceResponse::FromJson(RoundTrip(request.ToJson()));
    if (!response.ok) {
      throw std::runtime_error("service_mix: control request failed: " + response.message);
    }
    return response;
  }

  // The daemon's whole-life sweep.cell_wall_ns histogram.
  obs::HistogramState CellWall() {
    const obs::MetricsSnapshot snapshot =
        obs::MetricsSnapshot::FromJson(Control(ServiceRequest::Kind::kMetrics).result_json);
    const auto it = snapshot.histograms.find("sweep.cell_wall_ns");
    return it != snapshot.histograms.end() ? it->second : obs::HistogramState{};
  }

  // Clean shutdown: the daemon flushes its trace journal on SIGTERM.
  void Stop() {
    ::close(fd_);
    fd_ = -1;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }
  int64_t requests() const { return requests_; }

 private:
  pid_t pid_ = -1;
  int fd_ = -1;
  int64_t requests_ = 0;
};

class ServiceMix : public Workload {
 public:
  explicit ServiceMix(Context& ctx) : ctx_(ctx) {}

  void Setup() override {
    std::filesystem::create_directories(ctx_.work_dir);
    socket_path_ = ctx_.work_dir + "/svc.sock";
    trace_path_ = ctx_.tracer.enabled() ? ctx_.work_dir + "/serviced.trace.jsonl" : "";
    if (!trace_path_.empty()) {
      std::filesystem::remove(trace_path_);
    }
    stream_ = std::make_unique<Stream>(ctx_.seed);
    for (int64_t i = 0; i < kPregeneratedOps; ++i) {
      (void)stream_->op(i);
    }
    daemon_ = std::make_unique<Daemon>(socket_path_, trace_path_,
                                       ctx_.work_dir + "/serviced.log");
    daemon_->WaitReady(socket_path_);
    // Pool warm-up inside the daemon: one full sweep outside the stream (a
    // miss of its own).
    const StreamDoc warm = MakeDoc(DeriveSeed(ctx_.seed, 0x3a53), 0.0);
    if (!ServiceResponse::FromJson(daemon_->RoundTrip(warm.request)).ok) {
      throw std::runtime_error("service_mix: warm-up request failed");
    }
    // The warm-up's cell time is not the pass's: EndOfOps subtracts it.
    cell_wall_base_ = daemon_->CellWall();
    first_bytes_.clear();
    computed_trials_.clear();
    op_requests_.clear();
    first_miss_ = first_resume_ = -1;
    resume_new_ = resume_total_ = 0;
    stats_.clear();
    handle_ms_.clear();
    transport_us_.clear();
  }

  void Teardown() override {
    if (!daemon_) {
      return;
    }
    daemon_->Stop();
    daemon_.reset();
    if (!trace_path_.empty()) {
      AttributeHandleTime();
    }
  }

  OpOutcome RunOp(int64_t index) override {
    const Stream::Op& op = stream_->op(index);
    const StreamDoc& doc = stream_->doc(op.doc);
    std::string payload;
    OpRequest sent;
    sent.op = index;
    sent.request_number = daemon_->requests();
    {
      ScopedSpan span(ctx_.tracer, "service.request");
      sent.span = span.id();
      sent.start_ns = NowNs();
      payload = daemon_->RoundTrip(doc.request);
      sent.end_ns = NowNs();
    }
    ServiceResponse response;
    {
      ScopedSpan span(ctx_.tracer, "service.response_decode");
      response = ServiceResponse::FromJson(payload, "service_mix");
    }
    OpOutcome outcome;
    outcome.new_trials = response.new_trials;
    if (!ctx_.checker.Expect(response.ok && response.sweep_id == doc.sweep_id,
                             "service_mix: request " + std::to_string(index) +
                                 " failed: " + response.message)) {
      outcome.kind = "error";
      return outcome;
    }
    outcome.kind = response.source == "computed" ? "miss"
                   : response.source == "cache"  ? "hit"
                   : response.source == "resumed" ? "resume"
                                                  : response.source;
    sent.kind = outcome.kind;
    op_requests_.push_back(sent);

    const auto first = first_bytes_.find(doc.sweep_id);
    if (first == first_bytes_.end()) {
      first_bytes_[doc.sweep_id] = response.result_json;
    } else {
      ctx_.checker.Expect(first->second == response.result_json,
                          "service_mix: request " + std::to_string(index) +
                              " (" + outcome.kind + ") returned different bytes "
                              "than the first answer for its sweep");
    }
    if (outcome.kind == "miss") {
      computed_trials_[doc.sweep_id] = response.new_trials;
      if (first_miss_ < 0) {
        first_miss_ = index;
      }
    } else if (outcome.kind == "resume") {
      const auto loose = computed_trials_.find(stream_->doc(op.loose).sweep_id);
      resume_new_ += response.new_trials;
      resume_total_ += response.new_trials +
                       (loose != computed_trials_.end() ? loose->second : 0);
      if (first_resume_ < 0) {
        first_resume_ = index;
      }
    }
    return outcome;
  }

  void EndOfOps() override {
    const json::Value stats = json::Parse(
        daemon_->Control(ServiceRequest::Kind::kStats).result_json, "service stats");
    for (const char* key : {"exact_hits", "resume_hits", "misses", "insertions",
                            "evictions"}) {
      const json::Value* value = stats.Find(key);
      stats_[key] = value != nullptr ? static_cast<int64_t>(value->number) : -1;
    }
    const obs::HistogramState total = daemon_->CellWall();
    cell_wall_count_ = total.count - cell_wall_base_.count;
    cell_wall_sum_ns_ = total.sum - cell_wall_base_.sum;
  }

  void VerifyAfter() override {
    PoolEvalBackend cold;
    for (const int64_t index : {first_miss_, first_resume_}) {
      if (index < 0) {
        continue;
      }
      const StreamDoc& doc = stream_->doc(stream_->op(index).doc);
      ctx_.checker.Expect(
          cold.Evaluate(doc.shard_document).result_json == first_bytes_[doc.sweep_id],
          "service_mix: daemon answer to request " + std::to_string(index) +
              " differs from an in-process cold run");
    }
    if (SkipExactGoldens()) {
      return;
    }
    const StreamDoc golden = MakeDoc(kGoldenSeed, 0.0);
    const ServiceResponse response =
        ServiceResponse::FromJson(daemon_->RoundTrip(golden.request));
    ctx_.checker.Expect(response.ok, "service_mix: golden request failed");
    CheckGolden(ctx_.checker, "service_mix: golden Cheetah figure", response.result_json,
                kCheetahGoldenFnv);
  }

  std::vector<std::string> InputDocuments(uint64_t seed) const override {
    Stream stream(seed);
    std::vector<std::string> docs;
    for (int64_t i = 0; i < 24; ++i) {
      docs.push_back(stream.doc(stream.op(i).doc).request);
    }
    return docs;
  }

  std::vector<std::string> SweepDocuments() const override {
    return {stream_->doc(stream_->op(0).doc).shard_document};
  }

  int64_t OpsPerBlock() const override { return sizeof(kCycle) - 1; }
  int64_t TracedOps() const override { return 108; }

  Counts PassCounts() const override {
    Counts counts;
    for (const auto& [key, value] : stats_) {
      counts["service.cache." + key] = value;
    }
    counts["service.resume_new_trials"] = resume_new_;
    return counts;
  }

  void LayerMetrics(MetricMap* out) const override {
    for (const char* kind : {"miss", "hit", "resume"}) {
      const auto it = handle_ms_.find(kind);
      (*out)[std::string("service.handle_ms.") + kind] = {
          it != handle_ms_.end() ? Median(it->second) : 0.0, "ms"};
    }
    (*out)["service.transport_us"] = {Median(transport_us_), "us"};
    const auto stat = [&](const char* key) {
      const auto it = stats_.find(key);
      return static_cast<double>(it != stats_.end() ? it->second : 0);
    };
    (*out)["service.cache_hits"] = {stat("exact_hits"), "count"};
    (*out)["service.cache_misses"] = {stat("misses"), "count"};
    (*out)["service.cache_resumes"] = {stat("resume_hits"), "count"};
    (*out)["service.cache_evictions"] = {stat("evictions"), "count"};
    (*out)["service.resume_trial_share"] = {
        resume_total_ > 0 ? static_cast<double>(resume_new_) / resume_total_ : 0.0,
        "ratio"};
    if (cell_wall_count_ > 0 && handle_sum_ns_ > 0) {
      (*out)["sweep.cell_busy_ms"] = {
          static_cast<double>(cell_wall_sum_ns_) / cell_wall_count_ / 1e6, "ms"};
      (*out)["sweep.lane_busy_share"] = {
          static_cast<double>(cell_wall_sum_ns_) /
              (static_cast<double>(handle_sum_ns_) * ctx_.nproc),
          "ratio"};
    }
  }

  // The daemon does the work.
  double PeakRssMb() const override {
    return daemon_ ? ProcessPeakRssMb(daemon_->pid()) : 0.0;
  }

 private:
  struct OpRequest {
    int64_t op = -1;
    int64_t request_number = 0;  // position among the daemon's requests
    int64_t span = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    std::string kind;
  };

  // Places each request's handle time (the daemon's service_request event:
  // emitted when handling ends, carrying its latency) inside the request
  // span; the rest of the round trip is transport.
  void AttributeHandleTime() {
    std::vector<JournalEvent> requests;
    for (JournalEvent& event : ReadJournal(trace_path_)) {
      if (event.event == "service_request") {
        requests.push_back(std::move(event));
      }
    }
    handle_sum_ns_ = 0;
    for (const OpRequest& sent : op_requests_) {
      if (sent.request_number >= static_cast<int64_t>(requests.size())) {
        throw std::runtime_error("service_mix: daemon journal is missing requests");
      }
      const JournalEvent& event = requests[static_cast<size_t>(sent.request_number)];
      const int64_t latency = static_cast<int64_t>(event.numbers.at("latency_ns"));
      const int64_t end = std::min(event.ts_ns, sent.end_ns);
      const int64_t start = std::max(end - latency, sent.start_ns);
      ctx_.tracer.set_op(sent.op);
      ctx_.tracer.Add("service.handle", start, end, sent.span);
      handle_ms_[sent.kind].push_back(static_cast<double>(end - start) / 1e6);
      transport_us_.push_back(
          static_cast<double>((sent.end_ns - sent.start_ns) - (end - start)) / 1e3);
      handle_sum_ns_ += end - start;
    }
  }

  Context& ctx_;
  std::string socket_path_;
  std::string trace_path_;
  std::unique_ptr<Stream> stream_;
  std::unique_ptr<Daemon> daemon_;
  std::map<uint64_t, std::string> first_bytes_;
  std::map<uint64_t, int64_t> computed_trials_;
  std::vector<OpRequest> op_requests_;
  int64_t first_miss_ = -1;
  int64_t first_resume_ = -1;
  int64_t resume_new_ = 0;
  int64_t resume_total_ = 0;
  std::map<std::string, int64_t> stats_;
  std::map<std::string, std::vector<double>> handle_ms_;
  std::vector<double> transport_us_;
  int64_t handle_sum_ns_ = 0;
  obs::HistogramState cell_wall_base_;  // after the warm-up
  int64_t cell_wall_count_ = 0;         // the pass's cells
  int64_t cell_wall_sum_ns_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServiceMix(Context& ctx) {
  return std::make_unique<ServiceMix>(ctx);
}

}  // namespace perfbench
