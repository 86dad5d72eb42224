#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "api/run_config.hpp"
#include "service/compiled_module.hpp"
#include "support/error.hpp"

namespace perfbench {

using namespace detlock;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Tail tail(std::vector<double> values) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t index = n > 10 ? n - 11 : n - 1;
  t.value = values[index];
  t.percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  return t;
}

void Metrics::set(const std::string& name, double value, const std::string& unit, std::string note) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      m.note = std::move(note);
      return;
    }
  }
  metrics_.push_back({name, value, unit, std::move(note)});
}

double Metrics::get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  throw Error("perfbench: metric not set: " + name);
}

void Outcome::fail(const std::string& why) {
  ++failed;
  if (problems.size() < 20) problems.push_back(why);
}

// ---- spans -------------------------------------------------------------------------

std::uint64_t SpanRecorder::add(std::string name, std::uint64_t begin_ns, std::uint64_t end_ns,
                                std::uint64_t parent, std::uint64_t unit, std::uint32_t track) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.unit = unit;
  s.name = std::move(name);
  s.begin_ns = begin_ns;
  s.end_ns = std::max(begin_ns, end_ns);
  s.track = track;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::uint64_t SpanRecorder::open(std::string name, std::uint64_t begin_ns, std::uint64_t parent,
                                 std::uint64_t unit, std::uint32_t track) {
  return add(std::move(name), begin_ns, begin_ns, parent, unit, track);
}

void SpanRecorder::finish(std::uint64_t id, std::uint64_t end_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span& s = spans_.at(id - 1);
  s.end_ns = std::max(s.begin_ns, end_ns);
}

std::uint64_t SpanRecorder::new_unit() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++next_unit_;
}

std::map<std::string, std::vector<double>> SpanRecorder::self_ms_by_name() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans_.size() + 1);
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back({s.begin_ns, s.end_ns});
  }
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) {
    // Covered part of [begin, end): union of the children clipped to it.
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = s.begin_ns;
    for (const auto& [b, e] : kids) {
      const std::uint64_t lo = std::max(b, cursor);
      const std::uint64_t hi = std::min(e, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    const std::uint64_t dur = s.end_ns - s.begin_ns;
    out[s.name].push_back(static_cast<double>(dur - std::min(dur, covered)) / 1e6);
  }
  return out;
}

std::string SpanRecorder::chrome_trace(const std::string& host_json) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": " << host_json << ",\n  \"traceEvents\": [\n";
  os << "    {\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", \"args\": {\"name\": \"perfbench\"}}";
  char buf[512];
  for (const Span& s : spans_) {
    const std::string::size_type dot = s.name.find('.');
    const std::string layer = dot == std::string::npos ? s.name : s.name.substr(0, dot);
    std::snprintf(buf, sizeof buf,
                  ",\n    {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu, \"unit\": %llu}}",
                  s.name.c_str(), layer.c_str(), s.track,
                  static_cast<double>(s.begin_ns - std::min(s.begin_ns, epoch_ns_)) / 1e3,
                  static_cast<double>(s.end_ns - s.begin_ns) / 1e3, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), static_cast<unsigned long long>(s.unit));
    os << buf;
  }
  os << "\n  ]\n}\n";
  return os.str();
}

PinnedToCpu::PinnedToCpu(std::size_t index) {
  if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  const int count = CPU_COUNT(&saved_);
  if (count <= 1) return;
  // The (index % count)-th CPU this thread may run on.
  int nth = static_cast<int>(index % static_cast<std::size_t>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || nth-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

PinnedToCpu::~PinnedToCpu() {
  if (pinned_) ::sched_setaffinity(0, sizeof saved_, &saved_);
}

// ---- oracle --------------------------------------------------------------------------

std::string mismatch(const Expected& want, const Expected& got) {
  char buf[256];
  if (want.main_return != got.main_return) {
    std::snprintf(buf, sizeof buf, "return %lld != reference %lld", static_cast<long long>(got.main_return),
                  static_cast<long long>(want.main_return));
    return buf;
  }
  if (want.memory_fingerprint != got.memory_fingerprint) {
    std::snprintf(buf, sizeof buf, "memory fingerprint %016llx != reference %016llx",
                  static_cast<unsigned long long>(got.memory_fingerprint),
                  static_cast<unsigned long long>(want.memory_fingerprint));
    return buf;
  }
  if (want.trace_fingerprint != got.trace_fingerprint) {
    std::snprintf(buf, sizeof buf, "lock-order fingerprint %016llx != reference %016llx",
                  static_cast<unsigned long long>(got.trace_fingerprint),
                  static_cast<unsigned long long>(want.trace_fingerprint));
    return buf;
  }
  return "";
}

Expected expected_of(const interp::RunResult& run) {
  return {run.main_return, run.memory_fingerprint, run.trace_fingerprint};
}

void oracle_self_test(const Expected& want, Outcome& outcome) {
  Expected corrupted = want;
  corrupted.memory_fingerprint ^= 1;
  if (mismatch(corrupted, want).empty()) {
    outcome.correct = false;
    outcome.problems.push_back("oracle self-test: a corrupted expected fingerprint was not caught");
  }
}

// ---- host ------------------------------------------------------------------------------

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

namespace {

/// Whether the template JIT produces native code on this host (null
/// JitModule = every engine takes the decoded fallback).
bool jit_native() {
  const char* kTiny =
      "func @main(0) regs=4 {\n"
      "block entry:\n"
      "  %0 = const 1\n"
      "  ret %0\n"
      "}\n";
  service::CompileOptions options;
  options.engine = interp::EngineKind::kJit;
  return service::CompiledModule::compile(kTiny, options)->jit() != nullptr;
}

}  // namespace

std::string host_json() {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %ld, \"compiler\": \"%s\", \"build_type\": \"%s\", \"optimized\": %s, "
                "\"jit\": \"%s\", \"clock_table\": \"%s\"}",
                ::sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                optimized_build() ? "true" : "false", jit_native() ? "native" : "fallback",
                api::clock_table_name(api::RunConfig{}.clock_table));
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB on Linux
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("perfbench: cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace perfbench
