// The SPLASH-2-analog workloads: splash-lock and splash-compute.
#include <algorithm>
#include <cstdio>
#include <sstream>

#include "bench.hpp"
#include "ir/printer.hpp"
#include "support/prng.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

using namespace detlock;

namespace {

struct SplashProgram {
  const char* name;
  std::uint32_t scale;
};

/// Scales chosen so each program of a workload takes a comparable time per
/// run (decoded engine for splash-lock, JIT for splash-compute) at the
/// commit that introduced this benchmark.
const SplashProgram kLockPrograms[] = {{"radiosity", 12}, {"raytrace", 18}, {"volrend", 12}};
const SplashProgram kComputePrograms[] = {{"water_nsq", 9}, {"ocean", 78}};

const workloads::WorkloadSpec& spec_named(const std::string& name) {
  for (const workloads::WorkloadSpec& spec : workloads::all_workloads()) {
    if (name == spec.name) return spec;
  }
  throw Error("perfbench: no workload named " + name);
}

std::vector<Program> splash_programs(const Options& options) {
  const bool compute = options.workload == "splash-compute";
  std::vector<SplashProgram> list;
  if (compute) {
    list.assign(std::begin(kComputePrograms), std::end(kComputePrograms));
  } else {
    list.assign(std::begin(kLockPrograms), std::end(kLockPrograms));
  }
  std::vector<Program> programs;
  for (const SplashProgram& sp : list) {
    workloads::WorkloadParams params;
    params.threads = kGuestThreads;
    params.scale = sp.scale;
    params.seed = options.seed;
    const workloads::WorkloadSpec& spec = spec_named(sp.name);
    Program p;
    p.name = sp.name;
    p.make_module = [&spec, params] { return spec.factory(params).module; };
    // DetLock with all four optimizations and the default RunConfig (trace
    // recording on, default clock table); splash-compute runs the JIT.
    p.config.engine = compute ? interp::EngineKind::kJit : interp::EngineKind::kDecoded;
    // Guest memory sized by the workload hint exactly as workloads::measure().
    p.memory_hint = std::max<std::size_t>(spec.factory(params).memory_words, 1 << 14) * 2;
    programs.push_back(std::move(p));
  }
  return programs;
}

std::string print(const ir::Module& module) {
  std::ostringstream os;
  ir::print_module(os, module);
  return os.str();
}

/// A pass: every program once, in a seeded order.
std::vector<std::size_t> pass_order(Xoshiro256& rng, std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.next_below(i)]);
  return order;
}

}  // namespace

Report run_splash(const Options& options) {
  Report report;
  std::vector<Program> programs = splash_programs(options);
  Xoshiro256 rng(options.seed);

  if (options.trace) {
    TracedPlan plan;
    plan.programs = &programs;
    for (int k = 0; k < 64; ++k) plan.units.push_back(pass_order(rng, programs.size()));
    for (int k = 0; k < 256; ++k) plan.served.push_back(k % programs.size());
    for (std::size_t i = 0; i < programs.size(); ++i) plan.warm.push_back(i);
    plan.seed = options.seed;
    SpanRecorder spans;
    traced_setup(programs, spans, report.metrics);
    traced_stages(plan, options.seconds, spans, report.metrics, report.outcome);
    finish_trace(options, spans);
    return report;
  }

  // Set-up: generate + compile every program.  It is repeated after every
  // pass (outside the pass timing) so its median samples the whole run.
  std::vector<double> setup_s;
  const auto set_up = [&](bool keep) {
    const PinnedToCpu pin(setup_s.size());
    const std::uint64_t t0 = now_ns();
    for (Program& p : programs) {
      auto compiled = service::CompiledModule::compile(p.make_module(), service::compile_options(p.config));
      if (keep) p.compiled = std::move(compiled);
    }
    setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
  };
  set_up(true);
  for (const std::uint64_t warm_end = now_ns() + static_cast<std::uint64_t>(kWarmupSeconds * 1e9);
       now_ns() < warm_end;) {
    for (const Program& p : programs) run_program(p, p.compiled, p.config);
  }

  // Single-caller closed loop of passes.
  std::vector<double> pass_ms;
  std::vector<double> run_ms;
  std::vector<std::vector<Expected>> outputs(programs.size());
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(options.seconds * 1e9);
  std::size_t runs = 0;
  while (now_ns() < deadline) {
    const std::uint64_t pass_start = now_ns();
    for (const std::size_t i : pass_order(rng, programs.size())) {
      const std::uint64_t t0 = now_ns();
      try {
        outputs[i].push_back(expected_of(run_program(programs[i], programs[i].compiled, programs[i].config)));
      } catch (const std::exception& e) {
        report.outcome.fail(programs[i].name + ": " + e.what());
      }
      run_ms.push_back(ms_between(t0, now_ns()));
      ++runs;
    }
    pass_ms.push_back(ms_between(pass_start, now_ns()));
    set_up(false);
  }
  const double elapsed_s = ms_between(start, now_ns()) / 1e3;
  const double rss = peak_rss_mb();

  // Oracle: the reference engine on the same text and config, and the
  // uninstrumented nondeterministic checksum.
  std::vector<const Program*> refs;
  for (Program& p : programs) {
    p.text = print(p.make_module());
    refs.push_back(&p);
  }
  const std::vector<Expected> want = reference_expectations(refs);
  for (std::size_t i = 0; i < programs.size(); ++i) {
    api::RunConfig baseline;
    baseline.mode = api::Mode::kBaseline;
    baseline.pass_options = pass::PassOptions::none();
    const auto base_module =
        service::CompiledModule::compile(programs[i].make_module(), service::compile_options(baseline));
    const std::int64_t checksum = run_program(programs[i], base_module, baseline).main_return;
    if (checksum != want[i].main_return) {
      report.outcome.correct = false;
      report.outcome.fail(programs[i].name + ": reference return " + std::to_string(want[i].main_return) +
                          " != nondeterministic checksum " + std::to_string(checksum));
    }
    for (const Expected& got : outputs[i]) {
      const std::string diff = mismatch(want[i], got);
      if (!diff.empty()) {
        report.outcome.correct = false;
        report.outcome.fail(programs[i].name + ": " + diff);
      }
    }
  }
  report.outcome.attempted = runs;
  oracle_self_test(want.front(), report.outcome);

  Metrics& m = report.metrics;
  m.set("setup_s", median(setup_s), "s");
  latency_metrics(m, "run_ms", pass_ms);
  latency_metrics(m, "job_ms", run_ms);
  m.set("jobs_per_s", static_cast<double>(runs) / elapsed_s, "1/s");
  m.set("peak_rss_mb", rss, "MB");
  return report;
}

}  // namespace perfbench
