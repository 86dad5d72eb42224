// Shared pieces of the end-to-end benchmark: options, metric collection,
// sample statistics, the in-memory span recorder, the output oracle and the
// host record.  Everything here is benchmark-side: the benchmark drives the
// library only through its public headers.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "interp/engine.hpp"

namespace perfbench {

// ---- options -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Checkout root: share/programs is read from here, span files go to
  /// <root>/.bench_build/traces.
  std::string root = ".";
};

// ---- time ----------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch()).count());
}

inline double ms_between(std::uint64_t begin_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e6;
}

// ---- sample statistics -----------------------------------------------------------

double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest value, its percentile rank, and the sample count.  With fewer
/// than 11 samples it degrades to the maximum.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> values);

// ---- metrics ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Shown in the human-readable lines only (e.g. the tail's percentile).
  std::string note;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit, std::string note = "");
  const std::vector<Metric>& all() const { return metrics_; }
  double get(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
};

/// Outcome counters of the timed phase (the result line's attempted/failed).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when any output disagreed with the oracle or the oracle's own
  /// self-test did not catch a corrupted expectation.
  bool correct = true;
  std::vector<std::string> problems;

  void fail(const std::string& why);
};

// ---- spans -----------------------------------------------------------------------

/// In-memory span store for the traced run.  Spans are recorded from the
/// benchmark's own code around calls into the library; they are written out
/// once, at the end, in the Chrome trace-event format Perfetto opens.
class SpanRecorder {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t unit = 0;    ///< run/job id shared by a unit's spans
    std::string name;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t track = 0;   ///< client thread / lane
  };

  /// Records a finished span and returns its id.
  std::uint64_t add(std::string name, std::uint64_t begin_ns, std::uint64_t end_ns,
                    std::uint64_t parent = 0, std::uint64_t unit = 0, std::uint32_t track = 0);
  /// Reserves an id for a parent whose end is not known yet; finish() it.
  std::uint64_t open(std::string name, std::uint64_t begin_ns, std::uint64_t parent = 0,
                     std::uint64_t unit = 0, std::uint32_t track = 0);
  void finish(std::uint64_t id, std::uint64_t end_ns);
  std::uint64_t new_unit();

  /// Self time (duration minus the part covered by direct children), in ms,
  /// per span instance, grouped by name.
  std::map<std::string, std::vector<double>> self_ms_by_name() const;
  /// Chrome trace-event JSON.
  std::string chrome_trace(const std::string& host_json) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_unit_ = 0;
  std::uint64_t epoch_ns_ = now_ns();
};

/// RAII span: records [construction, destruction) into `rec`.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::uint64_t parent, std::uint64_t unit)
      : rec_(rec), name_(name), parent_(parent), unit_(unit), begin_(now_ns()) {}
  ~ScopedSpan() { rec_.add(name_, begin_, now_ns(), parent_, unit_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t unit_;
  std::uint64_t begin_;
};

/// Pins the calling thread to CPU `index % nproc` for its lifetime, then
/// restores the previous affinity (threads spawned later inherit it).
/// Single-thread set-up repetitions rotate over the CPUs this way, so
/// their median does not depend on which core the process happened to use.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(std::size_t index);
  ~PinnedToCpu();
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// ---- oracle ----------------------------------------------------------------------

/// What a run must reproduce: the reference engine's return value, memory
/// fingerprint and lock-order fingerprint on the same text and config.
struct Expected {
  std::int64_t main_return = 0;
  std::uint64_t memory_fingerprint = 0;
  std::uint64_t trace_fingerprint = 0;
};

/// Empty when `got` matches `want`, else a one-line description.
std::string mismatch(const Expected& want, const Expected& got);
Expected expected_of(const detlock::interp::RunResult& run);

/// Proves the checker is live: a copy of `want` with its memory fingerprint
/// corrupted must be reported as a mismatch against the genuine outputs.
/// Records a failure in `outcome` otherwise.
void oracle_self_test(const Expected& want, Outcome& outcome);

// ---- host --------------------------------------------------------------------------

/// nproc, compiler, build type, JIT native/fallback, default clock table,
/// as one JSON object.
std::string host_json();
/// True when the library was built with optimization.
bool optimized_build();

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Reads a whole file; throws detlock::Error when it is missing.
std::string read_file(const std::string& path);

}  // namespace perfbench
