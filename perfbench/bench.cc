#include "perfbench/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/util/json.h"
#include "src/util/random.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Tracer::Begin(const std::string& name) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  span.name = name;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(int64_t id) {
  if (id < 0) {
    return;
  }
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

int64_t Tracer::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
                    int64_t parent) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.op = op_;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

double Tracer::ChildrenMs(int64_t id) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent == id) {
      total += span.ms();
    }
  }
  return total;
}

std::string Tracer::ToJsonl() const {
  std::string out;
  for (const Span& span : spans_) {
    out += "{\"id\":";
    longstore::json::AppendInt64(out, span.id);
    out += ",\"parent\":";
    longstore::json::AppendInt64(out, span.parent);
    out += ",\"op\":";
    longstore::json::AppendInt64(out, span.op);
    out += ",\"name\":";
    longstore::json::AppendEscaped(out, span.name);
    out += ",\"start_ns\":";
    longstore::json::AppendInt64(out, span.start_ns);
    out += ",\"end_ns\":";
    longstore::json::AppendInt64(out, span.end_ns);
    out += "}\n";
  }
  return out;
}

void Checker::Fail(const std::string& what) {
  ++failures_;
  if (messages_.size() < 20) {
    messages_.push_back(what);
  }
}

bool SkipExactGoldens() {
  const char* flag = std::getenv("LONGSTORE_SKIP_EXACT_GOLDENS");
  return flag != nullptr && std::strcmp(flag, "0") != 0 && flag[0] != '\0';
}

void CheckGolden(Checker& checker, const std::string& what,
                 const std::string& bytes, uint64_t pin) {
  if (SkipExactGoldens()) {
    return;
  }
  const uint64_t got = longstore::json::Fnv1a64(bytes);
  char message[160];
  std::snprintf(message, sizeof(message), "%s bytes moved (fnv 0x%016llx, pinned 0x%016llx)",
                what.c_str(), static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(pin));
  checker.Expect(got == pin, message);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

uint64_t VariantSeed(uint64_t seed, int k) {
  return k == 0 ? seed
                : longstore::DeriveSeed(seed ^ 0x70657266ull,
                                        static_cast<uint64_t>(k));
}

longstore::Duration TrialHorizon(const longstore::SweepOptions& options) {
  using Estimand = longstore::SweepOptions::Estimand;
  switch (options.estimand) {
    case Estimand::kMttdl:
      return options.mc.max_trial_time;
    case Estimand::kCensoredMttdl:
      return options.window;
    default:
      return options.mission;
  }
}

void SetChildTelemetry(bool on) {
  if (on) {
    ::unsetenv("LONGSTORE_TELEMETRY_OFF");
  } else {
    ::setenv("LONGSTORE_TELEMETRY_OFF", "1", 1);
  }
}

namespace {

double VmHwmMb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace

double SelfPeakRssMb() { return VmHwmMb("/proc/self/status"); }

double ChildrenPeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

double ProcessPeakRssMb(pid_t pid) {
  return VmHwmMb("/proc/" + std::to_string(pid) + "/status");
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<JournalEvent> ReadJournal(const std::string& path) {
  std::vector<JournalEvent> events;
  std::istringstream in(ReadFileOrEmpty(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const longstore::json::Value value =
        longstore::json::Parse(line, "trace journal " + path);
    JournalEvent event;
    for (const auto& [key, field] : value.object) {
      if (field.kind == longstore::json::Value::Kind::kString) {
        event.strings[key] = field.string;
      } else if (field.kind == longstore::json::Value::Kind::kNumber) {
        event.numbers[key] = field.number;
      }
    }
    event.event = event.strings["event"];
    event.ts_ns = static_cast<int64_t>(event.numbers["ts_ns"]);
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace perfbench
