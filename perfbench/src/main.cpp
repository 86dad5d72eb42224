// perfbench: DetLock's end-to-end benchmark.
//
//   perfbench --workload splash-lock|splash-compute|serve-mix --seed N
//             --seconds S --trace 0|1 [--root DIR]
//
// Prints the host record, one line per metric (name, value, unit), and as
// its last line one JSON object {"correct", "attempted", "failed",
// "metrics"}.  --trace 0 measures the end-to-end metrics; --trace 1 is the
// separate traced run that reports the per-layer metrics and writes a
// Chrome/Perfetto span file.  Exits 1 when any output disagrees with the
// reference engine or any run fails, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload splash-lock|splash-compute|serve-mix --seed N "
               "--seconds S --trace 0|1 [--root DIR]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || o.seconds <= 0.0 || o.seconds > 600.0) usage("bad --seconds");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--root") {
      o.root = value;
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.workload != "splash-lock" && o.workload != "splash-compute" && o.workload != "serve-mix") {
    usage(("unknown workload " + o.workload).c_str());
  }
  return o;
}

void print_result(const perfbench::Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(report.outcome.attempted),
              static_cast<unsigned long long>(report.outcome.failed));
  bool first = true;
  for (const perfbench::Metric& m : report.metrics.all()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", m.name.c_str(), m.value,
                m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  std::printf("host: %s\n", perfbench::host_json().c_str());
  if (!perfbench::optimized_build()) {
    std::fprintf(stderr, "perfbench: warning: the build is not optimized; timings are not representative\n");
  }
  std::fflush(stdout);

  perfbench::Report report;
  try {
    report = options.workload == "serve-mix" ? perfbench::run_serve_mix(options)
                                             : perfbench::run_splash(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const perfbench::Outcome& outcome = report.outcome;
  for (const perfbench::Metric& m : report.metrics.all()) {
    std::printf("%s %-34s %.6g %s%s%s\n", options.workload.c_str(), m.name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : "  # ", m.note.c_str());
  }
  const double fail_rate = outcome.attempted == 0 ? 1.0
                                                  : static_cast<double>(outcome.failed) /
                                                        static_cast<double>(outcome.attempted);
  std::printf("%s %-34s %.6g ratio  # %llu of %llu runs/jobs failed or disagreed with the reference engine\n",
              options.workload.c_str(), "fail_rate", fail_rate,
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  for (const std::string& problem : outcome.problems) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }
  print_result(report);
  return outcome.correct && outcome.failed == 0 && outcome.attempted > 0 ? 0 : 1;
}
