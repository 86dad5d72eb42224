// Served jobs: the loopback TCP client, open and closed load loops, and the
// serve-mix workload.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench.hpp"
#include "fuzz/generator.hpp"
#include "service/execution_context.hpp"
#include "service/module_cache.hpp"
#include "service/server.hpp"
#include "support/prng.hpp"

namespace perfbench {

using namespace detlock;

namespace {

/// The race-free, non-deadlocking share/programs corpus (peterson_broken,
/// the racy fixtures and abba_deadlock are left out).
const char* const kCorpus[] = {
    "hello_locks.dl",      "producer_consumer.dl", "bounded_queue_cv.dl", "stencil_barrier.dl",
    "benign_join.dl",      "benign_condvar.dl",    "algos/bakery.dl",     "algos/peterson.dl",
    "algos/rwlock.dl",     "algos/tas_spinlock.dl", "algos/ticket_lock.dl",
};
constexpr std::size_t kCorpusSize = sizeof kCorpus / sizeof kCorpus[0];

/// One in kFuzzEvery jobs is a unique fuzz::generate() program (a cache miss).
constexpr std::uint64_t kFuzzEvery = 8;

/// Open-loop offered rate, jobs/s: about half the closed loop's saturated
/// jobs_per_s measured at the commit that introduced this benchmark.
constexpr double kOpenLoopRate = 30.0;

/// Set-up repetitions (setup_s is their median).
constexpr int kSetupReps = 3;

/// Blocking line-framed client of the detserved wire protocol.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool ok() const { return fd_ >= 0; }

  bool send_all(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next frame, or "" when the connection failed.
  std::string read_frame() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string frame = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return frame;
      }
      char tmp[4096];
      const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
      if (n <= 0) return "";
      buf_.append(tmp, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Raw value of `"key": value` in a one-line JSON frame (string values
/// without their quotes); "" when absent.
std::string frame_field(const std::string& frame, const char* key) {
  const std::string needle = std::string("\"") + key + "\": ";
  const std::size_t at = frame.find(needle);
  if (at == std::string::npos) return "";
  std::size_t begin = at + needle.size();
  if (begin < frame.size() && frame[begin] == '"') {
    const std::size_t end = frame.find('"', begin + 1);
    return end == std::string::npos ? "" : frame.substr(begin + 1, end - begin - 1);
  }
  std::size_t end = begin;
  while (end < frame.size() && frame[end] != ',' && frame[end] != '}') ++end;
  return frame.substr(begin, end - begin);
}

/// A job name unique within its phase ("o17", "c2_40"); snprintf rather
/// than string concatenation, which GCC 12 at -O3 flags with a spurious
/// -Wrestrict warning.
std::string job_name(const char* prefix, std::size_t a, std::size_t b = SIZE_MAX) {
  char buf[64];
  if (b == SIZE_MAX) {
    std::snprintf(buf, sizeof buf, "%s%zu", prefix, a);
  } else {
    std::snprintf(buf, sizeof buf, "%s%zu_%zu", prefix, a, b);
  }
  return buf;
}

/// Sends one job and waits for its result frame, honouring RETRY_AFTER.
void serve_one(Client& client, const Program& program, const std::string& name, JobRecord& rec) {
  const std::string header =
      "JOB " + name + " " + std::to_string(program.text.size()) + program.job_options() + "\n";
  for (int attempt = 0;; ++attempt) {
    rec.sent_ns = rec.sent_ns == 0 ? now_ns() : rec.sent_ns;
    if (!client.send_all(header + program.text)) {
      rec.error = "send failed";
      return;
    }
    const std::string frame = client.read_frame();
    const std::string type = frame_field(frame, "type");
    if (type == "accepted") {
      rec.accepted_ns = now_ns();
      break;
    }
    if (type != "retry_after" || attempt >= 1000) {
      rec.error = frame.empty() ? "connection lost" : "not accepted: " + frame.substr(0, 160);
      return;
    }
    ++rec.retries;
    const long wait_ms = std::max(1L, std::atol(frame_field(frame, "retry_after_ms").c_str()));
    std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
  }
  const std::string result = client.read_frame();
  rec.result_ns = now_ns();
  if (frame_field(result, "type") != "result") {
    rec.error = "no result frame";
    return;
  }
  if (frame_field(result, "status") != "ok" || frame_field(result, "runs_completed") != "1") {
    rec.error = "job " + frame_field(result, "status") + ": " + frame_field(result, "error");
    return;
  }
  rec.exec_ms = std::atof(frame_field(result, "run_seconds").c_str()) * 1e3;
  rec.cache_hit = frame_field(result, "cache_hit") == "true";
  rec.context_reused = frame_field(result, "context_reused") == "true";
  rec.got.main_return = std::strtoll(frame_field(result, "result").c_str(), nullptr, 10);
  const auto hex = [&](const char* key) {
    return std::strtoull(frame_field(result, key).c_str(), nullptr, 16);
  };
  rec.got.memory_fingerprint = hex("memory_fingerprint");
  rec.got.trace_fingerprint = hex("lock_order_fingerprint");
  rec.ok = true;
}

}  // namespace

std::string Program::job_options() const {
  std::string out = " engine=" + std::string(api::engine_name(config.engine));
  if (memory_hint != 0) out += " memory-words=" + std::to_string(memory_hint);
  return out;
}

std::unique_ptr<service::Server> start_server() {
  service::ServerOptions o;
  o.listen = "tcp:127.0.0.1:0";
  o.workers = kConnections;
  o.deadline_ms = 30'000;
  auto server = std::make_unique<service::Server>(o);
  server->start();
  return server;
}

bool stop_server(std::unique_ptr<service::Server> server) {
  server->request_drain();
  return server->run_until_drained() == 0;
}

bool warm_server(service::Server& server, const std::vector<Program>& programs,
                 const std::vector<std::size_t>& which) {
  Client client(server.port());
  if (!client.ok()) return false;
  for (const std::size_t i : which) {
    JobRecord rec;
    serve_one(client, programs[i], job_name("warm", i), rec);
    if (!rec.ok) return false;
  }
  return true;
}

std::uint64_t peak_queue_depth(service::Server& server) {
  Client client(server.port());
  if (!client.ok() || !client.send_all("STATS\n")) return 0;
  return std::strtoull(frame_field(client.read_frame(), "peak_queue_depth").c_str(), nullptr, 10);
}

std::vector<ServedJob> poisson_schedule(double rate, double seconds, std::uint64_t seed,
                                        const std::vector<std::size_t>& sequence) {
  Xoshiro256 rng(seed ^ 0x5eedf00dULL);
  std::vector<ServedJob> jobs;
  double t = 0.0;
  for (std::size_t k = 0; k < sequence.size(); ++k) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= seconds) break;
    jobs.push_back({sequence[k], t});
  }
  return jobs;
}

std::vector<JobRecord> open_loop(service::Server& server, const std::vector<Program>& programs,
                                 const std::vector<ServedJob>& jobs, SpanRecorder* spans) {
  std::vector<JobRecord> records(jobs.size());
  std::atomic<std::size_t> next{0};
  const std::uint64_t start = now_ns();
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      Client client(server.port());
      for (std::size_t k = next++; k < jobs.size(); k = next++) {
        JobRecord& rec = records[k];
        rec.program = jobs[k].program;
        rec.due_ns = start + static_cast<std::uint64_t>(jobs[k].due_s * 1e9);
        const std::uint64_t now = now_ns();
        if (now < rec.due_ns) std::this_thread::sleep_for(std::chrono::nanoseconds(rec.due_ns - now));
        if (!client.ok()) {
          rec.error = "connect failed";
          continue;
        }
        serve_one(client, programs[rec.program], job_name("o", k), rec);
        if (spans != nullptr && rec.ok) {
          const std::uint64_t unit = spans->new_unit();
          const auto track = static_cast<std::uint32_t>(c + 1);
          const std::uint64_t job = spans->add("bench.job", rec.due_ns, rec.result_ns, 0, unit, track);
          if (rec.sent_ns > rec.due_ns) {
            spans->add("bench.generator_lag", rec.due_ns, rec.sent_ns, job, unit, track);
          }
          // The frame's run_seconds, placed just before the result arrived.
          const auto exec_ns = static_cast<std::uint64_t>(rec.exec_ms * 1e6);
          const std::uint64_t exec_begin =
              std::max(rec.accepted_ns, rec.result_ns - std::min(rec.result_ns, exec_ns));
          spans->add("service.accept", rec.sent_ns, rec.accepted_ns, job, unit, track);
          spans->add("service.queue", rec.accepted_ns, exec_begin, job, unit, track);
          spans->add("service.exec", exec_begin, rec.result_ns, job, unit, track);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return records;
}

std::vector<JobRecord> closed_loop(service::Server& server, const std::vector<Program>& programs,
                                   double seconds, const std::vector<std::vector<std::size_t>>& per_client) {
  std::vector<std::vector<JobRecord>> records(per_client.size());
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < per_client.size(); ++c) {
    clients.emplace_back([&, c] {
      Client client(server.port());
      for (std::size_t k = 0; k < per_client[c].size() && now_ns() < deadline; ++k) {
        JobRecord rec;
        rec.program = per_client[c][k];
        rec.due_ns = now_ns();
        if (client.ok()) {
          serve_one(client, programs[rec.program], job_name("c", c, k), rec);
        } else {
          rec.error = "connect failed";
        }
        records[c].push_back(std::move(rec));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  std::vector<JobRecord> all;
  for (std::vector<JobRecord>& r : records) all.insert(all.end(), r.begin(), r.end());
  return all;
}

void check_jobs(const std::vector<Program>& programs, const std::vector<JobRecord>& jobs, Outcome& outcome) {
  std::vector<std::size_t> slot(programs.size(), SIZE_MAX);
  std::vector<const Program*> distinct;
  for (const JobRecord& j : jobs) {
    if (slot[j.program] != SIZE_MAX) continue;
    slot[j.program] = distinct.size();
    distinct.push_back(&programs[j.program]);
  }
  const std::vector<Expected> want = reference_expectations(distinct);
  for (const JobRecord& j : jobs) {
    ++outcome.attempted;
    if (!j.ok) {
      outcome.fail(programs[j.program].name + ": " + j.error);
      continue;
    }
    const std::string diff = mismatch(want[slot[j.program]], j.got);
    if (!diff.empty()) {
      outcome.correct = false;
      outcome.fail(programs[j.program].name + ": " + diff);
    }
  }
  if (!want.empty()) oracle_self_test(want.front(), outcome);
}

// ---- serve-mix -----------------------------------------------------------------------

namespace {

/// Draws `count` job program indices: one in kFuzzEvery is the next unique
/// fuzz program (index kCorpusSize + n), the rest a uniformly chosen corpus
/// program.
std::vector<std::size_t> draw_jobs(Xoshiro256& rng, std::size_t count, std::size_t& fuzz_used) {
  std::vector<std::size_t> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    if (rng.next_below(kFuzzEvery) == 0) {
      out.push_back(kCorpusSize + fuzz_used++);
    } else {
      out.push_back(rng.next_below(kCorpusSize));
    }
  }
  return out;
}

/// The mix's programs: the corpus, then `fuzz_count` fuzz programs whose
/// generator seeds derive from the workload seed.  Text is not produced yet.
std::vector<Program> mix_programs(const Options& options, std::size_t fuzz_count) {
  std::vector<Program> programs;
  for (std::size_t i = 0; i < kCorpusSize; ++i) {
    Program p;
    p.name = kCorpus[i];
    p.make_text = [path = options.root + "/share/programs/" + kCorpus[i]] { return read_file(path); };
    programs.push_back(std::move(p));
  }
  Xoshiro256 seeds(options.seed * 0x9e3779b97f4a7c15ULL + 17);
  for (std::size_t i = 0; i < fuzz_count; ++i) {
    const std::uint64_t fuzz_seed = seeds.next();
    Program p;
    p.name = "fuzz-" + std::to_string(fuzz_seed);
    p.make_text = [fuzz_seed] { return fuzz::generate(fuzz_seed).ir_text; };
    programs.push_back(std::move(p));
  }
  return programs;
}

/// The library path without the server, single caller: each job looks its
/// program up in `cache` (compiling on a miss) and runs it on a fresh
/// ExecutionContext, until `seconds` elapse.  `run_ms` gets each job's wall
/// time.
std::vector<JobRecord> in_process_jobs(service::ModuleCache& cache, const std::vector<Program>& programs,
                                       const std::vector<std::size_t>& sequence, double seconds,
                                       std::vector<double>& run_ms) {
  std::vector<JobRecord> records;
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t k = 0; k < sequence.size() && now_ns() < deadline; ++k) {
    JobRecord rec;
    rec.program = sequence[k];
    const Program& p = programs[rec.program];
    const std::uint64_t t0 = now_ns();
    try {
      rec.got = expected_of(
          run_program(p, cache.get_or_compile(p.text, service::compile_options(p.config)), p.config));
      rec.ok = true;
    } catch (const std::exception& e) {
      rec.error = e.what();
    }
    run_ms.push_back(ms_between(t0, now_ns()));
    records.push_back(std::move(rec));
  }
  return records;
}

/// Jobs to draw so a sequence cannot run out within `seconds` at `rate`.
std::size_t jobs_for(double seconds, double rate) { return static_cast<std::size_t>(seconds * rate) + 16; }

std::vector<std::size_t> corpus_indices() {
  std::vector<std::size_t> out(kCorpusSize);
  for (std::size_t i = 0; i < kCorpusSize; ++i) out[i] = i;
  return out;
}

}  // namespace

Report run_serve_mix(const Options& options) {
  Report report;
  Xoshiro256 rng(options.seed);
  std::size_t fuzz_used = 0;

  if (options.trace) {
    // In-process units are single jobs; the server stage replays the open
    // loop for a quarter of the run.
    TracedPlan plan;
    for (const std::size_t i : draw_jobs(rng, 64, fuzz_used)) plan.units.push_back({i});
    plan.served = draw_jobs(rng, jobs_for(0.25 * options.seconds, 2 * kOpenLoopRate), fuzz_used);
    plan.served_rate = kOpenLoopRate;
    plan.warm = corpus_indices();
    plan.seed = options.seed;
    std::vector<Program> programs = mix_programs(options, fuzz_used);
    plan.programs = &programs;
    SpanRecorder spans;
    traced_setup(programs, spans, report.metrics);
    traced_stages(plan, options.seconds, spans, report.metrics, report.outcome);
    finish_trace(options, spans);
    return report;
  }

  // Three timed phases: served open loop, served closed loop, and the
  // in-process library path.  Job choices are drawn from the seed before
  // set-up, so set-up generates exactly the fuzz programs the run can use.
  // Closed-loop and in-process sequences allow one job per 2 ms, well past
  // what either sustains.
  const double open_s = 0.6 * options.seconds;
  const double closed_s = 0.15 * options.seconds;
  const double in_process_s = 0.25 * options.seconds;
  const std::vector<ServedJob> schedule = poisson_schedule(
      kOpenLoopRate, open_s, options.seed,
      draw_jobs(rng, jobs_for(open_s, 2 * kOpenLoopRate), fuzz_used));
  std::vector<std::vector<std::size_t>> per_client;
  for (int c = 0; c < kConnections; ++c) {
    per_client.push_back(draw_jobs(rng, jobs_for(closed_s, 500.0 / kConnections), fuzz_used));
  }
  const std::vector<std::size_t> in_process = draw_jobs(rng, jobs_for(in_process_s, 500.0), fuzz_used);

  // Set-up: generation, server start, a cache-warming job per corpus program,
  // and the same warming of the in-process module cache -- repeated;
  // setup_s is the median.
  std::vector<Program> programs;
  std::unique_ptr<service::Server> server;
  std::unique_ptr<service::ModuleCache> cache;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server && !stop_server(std::move(server))) report.outcome.fail("unclean drain after set-up");
    const std::uint64_t t0 = now_ns();
    programs = mix_programs(options, fuzz_used);
    for (Program& p : programs) p.text = p.make_text();
    server = start_server();
    if (!warm_server(*server, programs, corpus_indices())) report.outcome.fail("cache warm-up failed");
    cache = std::make_unique<service::ModuleCache>();
    for (const std::size_t i : corpus_indices()) {
      cache->get_or_compile(programs[i].text, service::compile_options(programs[i].config));
    }
    setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
  }

  // Untimed warm-up on corpus programs only, keeping every fuzz job unique.
  std::vector<std::vector<std::size_t>> warm(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    for (std::size_t k = 0; k < 1000; ++k) warm[c].push_back((k + static_cast<std::size_t>(c)) % kCorpusSize);
  }
  closed_loop(*server, programs, kWarmupSeconds, warm);

  // Phase 1: open loop at the recorded rate.  Phase 2: saturating closed loop.
  const std::vector<JobRecord> open = open_loop(*server, programs, schedule, nullptr);
  const std::uint64_t closed_start = now_ns();
  const std::vector<JobRecord> closed = closed_loop(*server, programs, closed_s, per_client);
  const double closed_elapsed_s = ms_between(closed_start, now_ns()) / 1e3;
  if (!stop_server(std::move(server))) report.outcome.fail("unclean drain");
  std::vector<double> run_ms;
  const std::vector<JobRecord> local = in_process_jobs(*cache, programs, in_process, in_process_s, run_ms);
  const double rss = peak_rss_mb();

  std::vector<double> job_ms;
  for (const JobRecord& j : open) {
    if (j.ok) job_ms.push_back(ms_between(j.due_ns, j.result_ns));
  }
  std::size_t closed_ok = 0;
  for (const JobRecord& j : closed) closed_ok += j.ok ? 1 : 0;
  std::vector<JobRecord> all = open;
  all.insert(all.end(), closed.begin(), closed.end());
  all.insert(all.end(), local.begin(), local.end());
  check_jobs(programs, all, report.outcome);

  Metrics& m = report.metrics;
  m.set("setup_s", median(setup_s), "s");
  latency_metrics(m, "run_ms", run_ms);
  latency_metrics(m, "job_ms", job_ms);
  m.set("jobs_per_s", static_cast<double>(closed_ok) / closed_elapsed_s, "1/s");
  m.set("peak_rss_mb", rss, "MB");
  return report;
}

}  // namespace perfbench
