// The benchmark's workloads and the stages they share.
//
//   splash-lock     radiosity, raytrace, volrend; DetLock, decoded engine
//   splash-compute  water_nsq, ocean; DetLock, JIT engine
//   serve-mix       share/programs corpus + unique fuzz programs sent to an
//                   in-process detserved Server over loopback TCP
//
// A timed run (trace off) measures the end-to-end metrics; a traced run
// (a separate invocation) records spans around the public calls and reports
// the per-layer metrics.  README.md in this directory has the full table.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/run_config.hpp"
#include "common.hpp"
#include "ir/module.hpp"
#include "service/compiled_module.hpp"
#include "service/server.hpp"

namespace perfbench {

/// Guest threads per SPLASH program, and the load cap of the 4-core host
/// the benchmark is sized for: at most this many client connections.
inline constexpr int kGuestThreads = 4;
inline constexpr int kConnections = 4;
/// Untimed warm-up before every timed loop: on the 4-core host the first
/// second or so of a fresh process runs SPLASH passes about twice as slowly
/// as the rest of the run.
inline constexpr double kWarmupSeconds = 2.0;

using CompiledPtr = std::shared_ptr<const detlock::service::CompiledModule>;

/// One program of a workload, in the forms both the in-process path
/// (CompiledModule + ExecutionContext) and the server path (a JOB body)
/// consume.
struct Program {
  std::string name;
  /// Exactly one is set: SPLASH generator factories build a module, corpus
  /// and fuzz programs produce text directly.
  std::function<detlock::ir::Module()> make_module;
  std::function<std::string()> make_text;
  /// IR text (printed from make_module's module for SPLASH programs).
  std::string text;
  detlock::api::RunConfig config;
  /// Guest memory in words; 0 keeps the engine default.
  std::size_t memory_hint = 0;
  CompiledPtr compiled;

  /// ` key=value` options that make a detserved JOB run like config + hint.
  std::string job_options() const;
};

/// Runs `p` once on a fresh ExecutionContext under `config` with p's
/// memory hint; `compiled` must match config's compile options.
detlock::interp::RunResult run_program(const Program& p, const CompiledPtr& compiled,
                                       const detlock::api::RunConfig& config);

/// Reference-engine expectations (same text and config, with
/// EngineKind::kReference), computed on up to kConnections threads.
std::vector<Expected> reference_expectations(const std::vector<const Program*>& programs);

/// Metrics and outcome of one benchmark invocation.
struct Report {
  Metrics metrics;
  Outcome outcome;
};

/// Median / tail pair of a latency sample (`<prefix>_p50`, `<prefix>_tail`).
void latency_metrics(Metrics& m, const std::string& prefix, std::vector<double> values_ms);

// ---- served jobs (serve.cpp) ---------------------------------------------------

struct ServedJob {
  std::size_t program = 0;  ///< index into the workload's program list
  double due_s = 0.0;       ///< open loop: offset from the phase start
};

struct JobRecord {
  std::size_t program = 0;
  bool ok = false;  ///< accepted and resolved "ok" with its outputs
  std::string error;
  std::uint64_t due_ns = 0, sent_ns = 0, accepted_ns = 0, result_ns = 0;
  double exec_ms = 0.0;       ///< run_seconds of the result frame
  std::uint64_t retries = 0;  ///< RETRY_AFTER bounces
  bool cache_hit = false;
  bool context_reused = false;
  Expected got;
};

/// Starts an in-process detserved Server (kConnections workers) on an
/// ephemeral loopback port.
std::unique_ptr<detlock::service::Server> start_server();
/// Graceful drain; false when the drain was not clean.
bool stop_server(std::unique_ptr<detlock::service::Server> server);
/// Sends one job per listed program over one connection, in turn (cache
/// warm-up); false on any failure.
bool warm_server(detlock::service::Server& server, const std::vector<Program>& programs,
                 const std::vector<std::size_t>& which);
/// Open loop: kConnections clients take the jobs in due order, each sending
/// its next job at its due time or, when it is late, at once.  Latency runs
/// from the due time.  With `spans`, records each job's span tree.
std::vector<JobRecord> open_loop(detlock::service::Server& server, const std::vector<Program>& programs,
                                 const std::vector<ServedJob>& jobs, SpanRecorder* spans);
/// Closed loop: client c sends per_client[c] in order, each job after the
/// previous result, until `seconds` elapse.
std::vector<JobRecord> closed_loop(detlock::service::Server& server, const std::vector<Program>& programs,
                                   double seconds, const std::vector<std::vector<std::size_t>>& per_client);
/// The executor's peak queue depth from the STATS verb.
std::uint64_t peak_queue_depth(detlock::service::Server& server);
/// Poisson arrivals at `rate` jobs/s for `seconds`, taking programs from
/// `sequence` in order.
std::vector<ServedJob> poisson_schedule(double rate, double seconds, std::uint64_t seed,
                                        const std::vector<std::size_t>& sequence);
/// Checks served jobs against the reference engine, counting each in
/// `outcome`.
void check_jobs(const std::vector<Program>& programs, const std::vector<JobRecord>& jobs, Outcome& outcome);

// ---- workloads -------------------------------------------------------------------

Report run_splash(const Options& options);
Report run_serve_mix(const Options& options);

// ---- traced run (layers.cpp) -------------------------------------------------------

/// What a workload's traced run exercises beyond set-up.
struct TracedPlan {
  std::vector<Program>* programs = nullptr;
  /// In-process timed units (a SPLASH pass, or one job), cycled.
  std::vector<std::vector<std::size_t>> units;
  /// Server stage: programs in send order, offered at `served_rate`
  /// jobs/s (0: half the rate one at a time would sustain).
  std::vector<std::size_t> served;
  double served_rate = 0.0;
  /// Programs warmed into the server's cache, and covered by the layer
  /// probes and the paper bands.
  std::vector<std::size_t> warm;
  std::uint64_t seed = 1;
};

/// Generation and compilation of every program, one span per public call;
/// fills each Program's text and compiled module.
void traced_setup(std::vector<Program>& programs, SpanRecorder& spans, Metrics& metrics);
/// Untraced vs traced in-process loop, server stage, layer probes and
/// paper bands; fills the remaining per-layer metrics.
void traced_stages(const TracedPlan& plan, double seconds, SpanRecorder& spans, Metrics& metrics,
                   Outcome& outcome);
/// Prints each layer's self time and writes the span file (Chrome trace
/// format) under <root>/.bench_build/traces.
void finish_trace(const Options& options, const SpanRecorder& spans);

}  // namespace perfbench
