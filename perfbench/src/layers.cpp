// Shared execution helpers and the traced run: set-up layer breakdown,
// untraced vs traced in-process loops, the server stage, single-thread
// layer probes and the paper's Table I/II bands.
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "interp/decode.hpp"
#include "interp/jit/jit.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "pass/pipeline.hpp"
#include "runtime/clock_table.hpp"
#include "runtime/det_backend.hpp"
#include "runtime/shared_memory.hpp"
#include "service/execution_context.hpp"

namespace perfbench {

using namespace detlock;

interp::RunResult run_program(const Program& p, const CompiledPtr& compiled, const api::RunConfig& config) {
  service::ExecutionContext ctx(compiled, config);
  if (p.memory_hint != 0) ctx.set_memory_hint(p.memory_hint);
  return ctx.run("main");
}

std::vector<Expected> reference_expectations(const std::vector<const Program*>& programs) {
  std::vector<Expected> out(programs.size());
  std::vector<std::string> errors(programs.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kConnections; ++w) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < programs.size(); i = next++) {
        try {
          api::RunConfig config = programs[i]->config;
          config.engine = interp::EngineKind::kReference;
          const auto compiled =
              service::CompiledModule::compile(programs[i]->text, service::compile_options(config));
          out[i] = expected_of(run_program(*programs[i], compiled, config));
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (std::size_t i = 0; i < programs.size(); ++i) {
    if (!errors[i].empty()) throw Error("reference run of " + programs[i]->name + " failed: " + errors[i]);
  }
  return out;
}

void latency_metrics(Metrics& m, const std::string& prefix, std::vector<double> values_ms) {
  const Tail t = tail(values_ms);
  m.set(prefix + "_p50", median(std::move(values_ms)), "ms");
  char note[96];
  std::snprintf(note, sizeof note, "p%.1f, %zu samples", t.percentile, t.samples);
  m.set(prefix + "_tail", t.value, "ms", note);
}

// ---- set-up breakdown ------------------------------------------------------------

namespace {

double mean_self(const std::map<std::string, std::vector<double>>& self, const std::string& name) {
  const auto it = self.find(name);
  return it == self.end() ? 0.0 : mean(it->second);
}

std::size_t instr_count(const ir::Module& module) {
  std::size_t n = 0;
  for (const ir::Function& f : module.functions()) n += f.total_instr_count();
  return n;
}

}  // namespace

void traced_setup(std::vector<Program>& programs, SpanRecorder& spans, Metrics& metrics) {
  std::size_t instrs = 0;
  std::size_t clock_sites = 0;
  std::size_t clocked_functions = 0;
  for (Program& p : programs) {
    const std::uint64_t unit = spans.new_unit();
    const std::uint64_t root = spans.open("bench.setup", now_ns(), 0, unit);
    if (p.make_module) {
      ir::Module generated;
      {
        ScopedSpan s(spans, "workloads.generate", root, unit);
        generated = p.make_module();
      }
      ScopedSpan s(spans, "ir.print", root, unit);
      std::ostringstream os;
      ir::print_module(os, generated);
      p.text = os.str();
    } else {
      ScopedSpan s(spans, "workloads.generate", root, unit);
      p.text = p.make_text();
    }
    ir::Module module;
    {
      ScopedSpan s(spans, "ir.parse", root, unit);
      module = ir::parse_module(p.text);
    }
    instrs += instr_count(module);
    {
      ScopedSpan s(spans, "ir.verify", root, unit);
      ir::verify_module_or_throw(module);
    }
    if (p.config.instrumented()) {
      ScopedSpan s(spans, "pass.instrument", root, unit);
      const pass::PipelineStats stats = pass::instrument_module(module, p.config.pass_options);
      clock_sites += stats.materialized.clock_add_sites + stats.materialized.clock_dyn_sites;
      clocked_functions += stats.clocked_functions;
    }
    std::unique_ptr<interp::DecodedModule> decoded;
    {
      ScopedSpan s(spans, "interp.decode", root, unit);
      decoded = std::make_unique<interp::DecodedModule>(interp::decode_module(module));
    }
    {
      ScopedSpan s(spans, "interp.jit_compile", root, unit);
      interp::jit::compile_module(*decoded);
    }
    {
      ScopedSpan s(spans, "service.compile", root, unit);
      p.compiled = service::CompiledModule::compile(p.text, service::compile_options(p.config));
    }
    spans.finish(root, now_ns());
  }
  const auto self = spans.self_ms_by_name();
  metrics.set("workloads.generate_ms", mean_self(self, "workloads.generate"), "ms");
  metrics.set("ir.parse_ms", mean_self(self, "ir.parse"), "ms");
  metrics.set("ir.verify_ms", mean_self(self, "ir.verify"), "ms");
  metrics.set("ir.instrs", static_cast<double>(instrs), "count");
  metrics.set("pass.instrument_ms", mean_self(self, "pass.instrument"), "ms");
  metrics.set("pass.clock_sites", static_cast<double>(clock_sites), "count");
  metrics.set("pass.clocked_functions", static_cast<double>(clocked_functions), "count");
  metrics.set("interp.decode_ms", mean_self(self, "interp.decode"), "ms");
  metrics.set("interp.jit_compile_ms", mean_self(self, "interp.jit_compile"), "ms");
  metrics.set("service.compile_ms", mean_self(self, "service.compile"), "ms");
}

// ---- traced stages -----------------------------------------------------------------

namespace {

/// Sums over the runs of the traced in-process loop.
struct RunTotals {
  std::uint64_t runs = 0;
  std::uint64_t instructions = 0;
  std::uint64_t clock_instrs = 0;
  runtime::BackendStats sync;
  std::uint64_t wait_ns[runtime::kNumWaitCategories] = {};
  std::uint64_t wall_ns = 0;
  std::uint64_t useful_ns = 0;

  void add(const interp::RunResult& r, const runtime::ProfileSummary& prof) {
    ++runs;
    instructions += r.instructions;
    clock_instrs += r.clock_update_instrs;
    sync.lock_acquires += r.sync.lock_acquires;
    sync.lock_wait_spins += r.sync.lock_wait_spins;
    sync.failed_trylocks += r.sync.failed_trylocks;
    sync.clock_publications += r.sync.clock_publications;
    sync.turn_polls += r.sync.turn_polls;
    sync.turn_scan_slots += r.sync.turn_scan_slots;
    for (std::size_t c = 0; c < runtime::kNumWaitCategories; ++c) wait_ns[c] += prof.totals[c].ns;
    wall_ns += prof.total_wall_ns;
    useful_ns += prof.total_useful_ns;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double wait_ms_per_run(const RunTotals& t, runtime::WaitCategory c) {
  const double ms = static_cast<double>(t.wait_ns[static_cast<std::size_t>(c)]) / 1e6;
  return ratio(ms, static_cast<double>(t.runs));
}

/// Cycles plan.units for `seconds`, alternating untraced units (profiler
/// off, no spans) with traced ones (wait profiler on, a span per unit and
/// per run), so both see the same machine state.  Returns the unit times
/// of each kind.
void in_process_loop(const TracedPlan& plan, double seconds, SpanRecorder& spans, RunTotals& totals,
                     std::vector<JobRecord>& outputs, std::vector<double>& untraced_ms,
                     std::vector<double>& traced_ms) {
  const std::vector<Program>& programs = *plan.programs;
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t k = 0; now_ns() < deadline; ++k) {
    const std::vector<std::size_t>& unit = plan.units[(k / 2) % plan.units.size()];
    const bool traced = k % 2 == 1;
    const std::uint64_t unit_id = traced ? spans.new_unit() : 0;
    const std::uint64_t begin = now_ns();
    const std::uint64_t root = traced ? spans.open("bench.unit", begin, 0, unit_id) : 0;
    for (const std::size_t i : unit) {
      const Program& p = programs[i];
      api::RunConfig config = p.config;
      config.profile = traced;
      JobRecord rec;
      rec.program = i;
      try {
        const std::uint64_t t0 = now_ns();
        service::ExecutionContext ctx(p.compiled, config);
        if (p.memory_hint != 0) ctx.set_memory_hint(p.memory_hint);
        const interp::RunResult r = ctx.run("main");
        if (traced) {
          spans.add("service.context_run", t0, now_ns(), root, unit_id);
          totals.add(r, ctx.engine()->profiler()->summary());
        }
        rec.got = expected_of(r);
        rec.ok = true;
      } catch (const std::exception& e) {
        rec.error = e.what();
      }
      outputs.push_back(std::move(rec));
    }
    const std::uint64_t end = now_ns();
    if (traced) spans.finish(root, end);
    (traced ? traced_ms : untraced_ms).push_back(ms_between(begin, end));
  }
}

/// Keeps probed results observable so the calls are not optimized away.
volatile std::uint64_t probe_sink = 0;

/// Median ns per call of `body` over `batches` batches of `iters` calls.
template <typename Body>
double ns_per_call(int batches, std::uint64_t iters, Body&& body) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < iters; ++i) body(i);
    per_call.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(iters));
  }
  return median(per_call);
}

/// has_turn polled by the turn holder with `slots` registered slots, on
/// the default clock table.
double has_turn_ns(std::uint32_t slots) {
  runtime::RuntimeConfig config;
  runtime::ClockTable table(config);
  for (std::uint32_t t = 0; t < slots; ++t) table.activate(t, 10 + t);
  std::uint64_t granted = 0;
  const double ns = ns_per_call(7, 1'000'000, [&](std::uint64_t) { granted += table.has_turn(0) ? 1 : 0; });
  if (granted == 0) throw Error("has_turn probe: the minimum never held the turn");
  probe_sink = granted;
  return ns;
}

void layer_probes(const TracedPlan& plan, SpanRecorder& spans, Metrics& metrics) {
  const std::uint64_t unit = spans.new_unit();
  const std::uint64_t root = spans.open("bench.probes", now_ns(), 0, unit);
  {
    ScopedSpan s(spans, "runtime.clock_add", root, unit);
    runtime::DetBackend backend{runtime::RuntimeConfig{}};
    const runtime::ThreadId self = backend.register_main_thread();
    metrics.set("runtime.clock_add_ns",
                ns_per_call(7, 2'000'000, [&](std::uint64_t) { backend.clock_add(self, 1); }), "ns");
  }
  {
    ScopedSpan s(spans, "runtime.has_turn", root, unit);
    metrics.set("runtime.has_turn_ns_4", has_turn_ns(4), "ns");
    metrics.set("runtime.has_turn_ns_64", has_turn_ns(64), "ns");
  }
  {
    ScopedSpan s(spans, "runtime.lock_round_trip", root, unit);
    runtime::DetBackend backend{runtime::RuntimeConfig{}};
    const runtime::ThreadId self = backend.register_main_thread();
    metrics.set("runtime.lock_round_trip_ns", ns_per_call(7, 200'000, [&](std::uint64_t) {
                  backend.lock(self, 0);
                  backend.unlock(self, 0);
                }),
                "ns");
  }
  {
    ScopedSpan s(spans, "runtime.fingerprint", root, unit);
    const interp::EngineConfig defaults;
    runtime::SharedMemory memory(defaults.memory_words);
    const double ns = ns_per_call(5, 1, [&](std::uint64_t) { probe_sink = memory.fingerprint(); });
    metrics.set("runtime.fingerprint_ns_per_word", ns / static_cast<double>(defaults.memory_words), "ns");
  }
  // Per-run fixed costs at each warmed program's own memory size: engine
  // construction over the shared compiled code, and the final fingerprint.
  std::vector<double> init_ms;
  std::vector<double> fingerprint_ms;
  for (const std::size_t i : plan.warm) {
    const Program& p = (*plan.programs)[i];
    interp::EngineConfig config = p.config.engine_config(p.memory_hint);
    config.shared_decoded = p.compiled->decoded();
    config.shared_jit = p.compiled->jit();
    {
      ScopedSpan s(spans, "interp.engine_init", root, unit);
      const auto construct = [&](std::uint64_t) { interp::Engine engine(p.compiled->module(), config); };
      init_ms.push_back(ns_per_call(5, 1, construct) / 1e6);
    }
    ScopedSpan s(spans, "interp.fingerprint", root, unit);
    runtime::SharedMemory memory(config.memory_words);
    const auto fingerprint = [&](std::uint64_t) { probe_sink = memory.fingerprint(); };
    fingerprint_ms.push_back(ns_per_call(3, 1, fingerprint) / 1e6);
  }
  metrics.set("interp.engine_init_ms", mean(init_ms), "ms");
  metrics.set("interp.fingerprint_ms", mean(fingerprint_ms), "ms");
  spans.finish(root, now_ns());
}

/// Table I/II bands over the warmed programs: fastest of three runs per
/// mode, summed over programs, as ratios to the uninstrumented baseline.
/// One extra profiled baseline run per program measures mutex-wait, the
/// only wait the nondeterministic backend has.
void paper_bands(const TracedPlan& plan, SpanRecorder& spans, Metrics& metrics) {
  const api::Mode modes[] = {api::Mode::kBaseline, api::Mode::kClocksOnly, api::Mode::kDetLock,
                             api::Mode::kKendoSim};
  double total_ms[4] = {};
  std::uint64_t mutex_wait_ns = 0;
  const std::uint64_t unit = spans.new_unit();
  const std::uint64_t root = spans.open("bench.bands", now_ns(), 0, unit);
  for (const std::size_t i : plan.warm) {
    const Program& p = (*plan.programs)[i];
    for (int m = 0; m < 4; ++m) {
      api::RunConfig config = p.config;
      config.mode = modes[m];
      config.record_trace = false;
      if (modes[m] == api::Mode::kBaseline) config.pass_options = pass::PassOptions::none();
      const auto compiled = service::CompiledModule::compile(p.text, service::compile_options(config));
      double best = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        const std::uint64_t t0 = now_ns();
        run_program(p, compiled, config);
        const double ms = ms_between(t0, now_ns());
        spans.add(std::string("bench.band.") + api::mode_name(modes[m]), t0, now_ns(), root, unit);
        best = rep == 0 ? ms : std::min(best, ms);
      }
      total_ms[m] += best;
      if (modes[m] == api::Mode::kBaseline) {
        config.profile = true;
        service::ExecutionContext ctx(compiled, config);
        if (p.memory_hint != 0) ctx.set_memory_hint(p.memory_hint);
        ctx.run("main");
        const auto mutex_wait = static_cast<std::size_t>(runtime::WaitCategory::kMutexWait);
        mutex_wait_ns += ctx.engine()->profiler()->summary().totals[mutex_wait].ns;
      }
    }
  }
  spans.finish(root, now_ns());
  metrics.set("pass.clock_overhead", ratio(total_ms[1], total_ms[0]), "ratio");
  metrics.set("runtime.det_overhead", ratio(total_ms[2], total_ms[0]), "ratio");
  metrics.set("runtime.kendo_overhead", ratio(total_ms[3], total_ms[0]), "ratio");
  metrics.set("runtime.wait.mutex-wait",
              ratio(static_cast<double>(mutex_wait_ns) / 1e6, static_cast<double>(plan.warm.size())), "ms");
}

}  // namespace

namespace {

void report_run_totals(const RunTotals& totals, Metrics& metrics) {
  const double runs = static_cast<double>(totals.runs);
  const auto per_run = [runs](std::uint64_t v) { return ratio(static_cast<double>(v), runs); };
  const runtime::BackendStats& sync = totals.sync;
  const auto share = [](std::uint64_t num, std::uint64_t den) {
    return ratio(static_cast<double>(num), static_cast<double>(den));
  };
  metrics.set("interp.instructions", per_run(totals.instructions), "count");
  metrics.set("interp.clock_update_instrs", per_run(totals.clock_instrs), "count");
  metrics.set("interp.instr_per_useful_s",
              share(totals.instructions, totals.useful_ns) * 1e9, "1/s");
  metrics.set("runtime.clock_publications", per_run(sync.clock_publications), "count");
  metrics.set("runtime.publications_per_clockadd",
              share(sync.clock_publications, totals.clock_instrs), "ratio");
  metrics.set("runtime.turn_polls", per_run(sync.turn_polls), "count");
  metrics.set("runtime.turn_scan_per_poll",
              share(sync.turn_scan_slots, sync.turn_polls), "ratio");
  metrics.set("runtime.lock_acquires", per_run(sync.lock_acquires), "count");
  metrics.set("runtime.trylock_success_ratio",
              share(sync.lock_acquires, sync.lock_acquires + sync.failed_trylocks), "ratio");
  metrics.set("runtime.lock_wait_spins", per_run(sync.lock_wait_spins), "count");
  using runtime::WaitCategory;
  metrics.set("runtime.wait.turn-wait", wait_ms_per_run(totals, WaitCategory::kTurnWait), "ms");
  metrics.set("runtime.wait.lock-retry", wait_ms_per_run(totals, WaitCategory::kLockRetry), "ms");
  metrics.set("runtime.wait.barrier-wait", wait_ms_per_run(totals, WaitCategory::kBarrierWait), "ms");
  metrics.set("runtime.useful_share", share(totals.useful_ns, totals.wall_ns), "ratio");
}

/// An open loop over loopback TCP against a freshly started, warmed
/// server; returns the served jobs for the oracle.
std::vector<JobRecord> server_stage(const TracedPlan& plan, double seconds, double rate, SpanRecorder& spans,
                                    Metrics& metrics, Outcome& outcome) {
  const std::vector<ServedJob> schedule = poisson_schedule(rate, seconds, plan.seed, plan.served);
  std::unique_ptr<service::Server> server = start_server();
  if (!warm_server(*server, *plan.programs, plan.warm)) outcome.fail("cache warm-up failed");
  std::vector<JobRecord> jobs = open_loop(*server, *plan.programs, schedule, &spans);
  const std::uint64_t peak_depth = peak_queue_depth(*server);
  if (!stop_server(std::move(server))) outcome.fail("unclean drain");

  // Means, so that lag + accept + queue + exec add up to the mean latency.
  double accept_ms = 0.0, exec_ms = 0.0, queue_ms = 0.0, lag_ms = 0.0;
  std::uint64_t ok = 0, hits = 0, reused = 0, retries = 0;
  for (const JobRecord& j : jobs) {
    retries += j.retries;
    if (!j.ok) continue;
    ++ok;
    hits += j.cache_hit ? 1 : 0;
    reused += j.context_reused ? 1 : 0;
    const double accept = ms_between(j.sent_ns, j.accepted_ns);
    accept_ms += accept;
    exec_ms += j.exec_ms;
    queue_ms += ms_between(j.sent_ns, j.result_ns) - accept - j.exec_ms;
    lag_ms += j.sent_ns > j.due_ns ? ms_between(j.due_ns, j.sent_ns) : 0.0;
  }
  const double n = static_cast<double>(ok);
  metrics.set("service.cache_hit_ratio", ratio(static_cast<double>(hits), n), "ratio");
  metrics.set("service.context_reuse_ratio", ratio(static_cast<double>(reused), n), "ratio");
  metrics.set("service.accept_ms", ratio(accept_ms, n), "ms");
  metrics.set("service.exec_ms", ratio(exec_ms, n), "ms");
  metrics.set("service.queue_ms", ratio(queue_ms, n), "ms");
  metrics.set("service.generator_lag_ms", ratio(lag_ms, n), "ms");
  metrics.set("service.refused_share",
              ratio(static_cast<double>(retries), static_cast<double>(retries + jobs.size())), "ratio");
  metrics.set("service.peak_queue_depth", static_cast<double>(peak_depth), "count");
  return jobs;
}

}  // namespace

void traced_stages(const TracedPlan& plan, double seconds, SpanRecorder& spans, Metrics& metrics,
                   Outcome& outcome) {
  std::vector<Program>& programs = *plan.programs;
  const std::uint64_t warm_end = now_ns() + static_cast<std::uint64_t>(kWarmupSeconds * 1e9);
  for (std::size_t k = 0; now_ns() < warm_end; ++k) {
    for (const std::size_t i : plan.units[k % plan.units.size()]) {
      run_program(programs[i], programs[i].compiled, programs[i].config);
    }
  }

  // In-process loop: the difference of the traced and untraced median
  // unit times is the tracing overhead.
  RunTotals totals;
  std::vector<JobRecord> outputs;
  std::vector<double> untraced;
  std::vector<double> traced;
  in_process_loop(plan, 0.4 * seconds, spans, totals, outputs, untraced, traced);
  metrics.set("bench.tracing_overhead_ms", median(traced) - median(untraced), "ms");
  metrics.set("service.context_run_ms", mean_self(spans.self_ms_by_name(), "service.context_run"), "ms");
  report_run_totals(totals, metrics);

  double rate = plan.served_rate;
  if (rate <= 0.0) {
    // Half of what one caller sustains running the programs back to back.
    std::size_t runs_per_unit = 0;
    for (const auto& unit : plan.units) runs_per_unit += unit.size();
    const double per_run_ms =
        mean(untraced) * static_cast<double>(plan.units.size()) / static_cast<double>(runs_per_unit);
    rate = 500.0 / per_run_ms;
  }
  const std::vector<JobRecord> jobs = server_stage(plan, 0.25 * seconds, rate, spans, metrics, outcome);

  layer_probes(plan, spans, metrics);
  metrics.set("interp.fingerprint_share",
              ratio(metrics.get("interp.fingerprint_ms"), metrics.get("service.exec_ms")), "ratio");
  paper_bands(plan, spans, metrics);

  // Every in-process run and served job must match the reference engine.
  outputs.insert(outputs.end(), jobs.begin(), jobs.end());
  check_jobs(programs, outputs, outcome);
}

void finish_trace(const Options& options, const SpanRecorder& spans) {
  // Self time per layer (the span name's module prefix), summed over the
  // whole traced run; client spans overlap, so the sum can exceed wall time.
  std::map<std::string, double> layer_ms;
  for (const auto& [name, self] : spans.self_ms_by_name()) {
    double total = 0.0;
    for (const double ms : self) total += ms;
    layer_ms[name.substr(0, name.find('.'))] += total;
  }
  std::printf("self time by layer (ms, whole traced run):");
  for (const auto& [layer, ms] : layer_ms) std::printf(" %s=%.1f", layer.c_str(), ms);
  std::printf("\n");

  const std::string dir = options.root + "/.bench_build/traces";
  ::mkdir((options.root + "/.bench_build").c_str(), 0755);
  ::mkdir(dir.c_str(), 0755);
  const std::string path = dir + "/" + options.workload + "-seed" + std::to_string(options.seed) + ".json";
  std::ofstream out(path);
  out << spans.chrome_trace(host_json());
  if (!out) throw Error("perfbench: cannot write " + path);
  std::printf("span file: %s\n", path.c_str());
}

}  // namespace perfbench
