// k2perf — end-to-end benchmark of the k2 compile service (see README.md).
//
// Drives seeded api::CompileRequest streams through an in-process
// api::CompilerService the way a `k2c` / `k2c serve` client does, checks
// every returned program against an independent reference, and prints the
// end-to-end metrics. Built twice: `k2perf` (plain) and `k2perf_traced`
// (K2PERF_TRACED, linked with the layer wrappers of trace.cc), which prints
// the per-layer ledger instead.
//
//   k2perf --workload size-seq|latency-trace|serve-warm --seed N
//          --seconds S --state-dir DIR [--trace-out FILE]
//          [--git-sha SHA] [--src-digest HEX]
//          [--iters N] [--chains N] [--programs A,B,...]  (calibration)
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// Exit status: 0 when every job finished and passed every check, 1 when a
// job failed a check (or the watchdog cancelled it), 2 on usage errors, 3
// when a cancelled job never reached a terminal state.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#include <z3.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "corpus/corpus.h"
#include "ebpf/assembler.h"
#include "interp/interpreter.h"
#include "kernel/kernel_checker.h"
#include "scenario/scenario.h"
#include "sim/perf_model.h"

#if K2PERF_TRACED
#include "trace.h"
#endif

extern char** environ;

namespace {

using namespace k2;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  core::Goal goal;
  bool trace_latency;  // perf_model=latency, scenario rotating over catalog
  int threads;         // service pool width
  int outstanding;     // jobs the client keeps submitted
  bool warm_copies;    // every request twice + service-wide cache_dir
};

const Workload kWorkloads[] = {
    {"size-seq", core::Goal::INST_COUNT, false, 1, 1, false},
    {"latency-trace", core::Goal::LATENCY, true, 1, 1, false},
    {"serve-warm", core::Goal::INST_COUNT, false, 3, 6, true},
};

// Search budget of every request, and the programs of a pass. 2 chains x
// 100 iterations is 1/200 of the service default (4 x 10000): one size pass
// over the 18 programs took 36 s at this budget and over 290 s at 4 x 2000
// on a 4-thread x86-64 host, and test execution's share of a compile grew
// 2-6x (README.md, "Budget"). Overridable (--iters, --chains, --programs)
// for that calibration.
struct Budget {
  uint64_t iters = 100;  // per chain
  int chains = 2;
  std::vector<std::string> programs;  // empty: every program but one
};
// About one pass's time on a 4-thread x86-64 host; a run aims at
// round(seconds / kPassS) whole passes (see main).
constexpr double kPassS = 30;

// xdp-balancer (1.8k instructions) runs for minutes per job; excluded.
std::vector<std::string> programs(const Budget& budget) {
  if (!budget.programs.empty()) return budget.programs;
  std::vector<std::string> out;
  for (const auto& b : corpus::all_benchmarks())
    if (b.name != "xdp-balancer") out.push_back(b.name);
  return out;
}

// Non-default catalog scenarios, rotated through by latency-trace.
std::vector<std::string> rotating_scenarios() {
  std::vector<std::string> out;
  for (const auto& s : scenario::catalog())
    if (s.name != "default") out.push_back(s.name);
  return out;
}

uint64_t splitmix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t fnv64(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

std::string hex(uint64_t v) {
  char b[17];
  std::snprintf(b, sizeof b, "%016llx", (unsigned long long)v);
  return b;
}

// Seed of the held-out inputs the output check runs; differs from every
// job's search seed, so no job is ever tested on these inputs.
constexpr uint64_t kHoldoutSeed = 0x686f6c646f757431ull;
constexpr int kHoldoutInputs = 1000;

struct JobSpec {
  std::string program;
  api::CompileRequest req;
  int original = -1;  // serve-warm copy: index of the request it repeats
};

// One pass: every corpus program once (twice on serve-warm), in an order
// drawn from the workload seed. Each request's search seed is drawn from the
// workload seed, the pass and the program, so every workload seed compiles
// different searches; a serve-warm copy repeats its original's seed.
std::vector<JobSpec> make_pass(const Workload& w, const Budget& b,
                               uint64_t seed, int pass) {
  std::vector<std::string> progs = programs(b);
  const std::vector<std::string> scns = rotating_scenarios();
  std::vector<size_t> order(progs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const uint64_t key = splitmix(seed ^ splitmix(uint64_t(pass) + 1));
  uint64_t s = key;
  for (size_t i = order.size(); i > 1; --i) {
    s = splitmix(s);
    std::swap(order[i - 1], order[s % i]);
  }
  std::vector<JobSpec> out;
  for (size_t p : order) {
    JobSpec j;
    j.program = progs[p];
    j.req = api::CompileRequest::for_benchmark(progs[p])
                .with_goal(w.goal)
                .iters(b.iters)
                .chains(b.chains)
                .with_seed(splitmix(key ^ fnv64(progs[p])));
    if (w.trace_latency) {
      // Corpus program i meets scenario (i + pass) mod 4: the rotation
      // walks the corpus, and four passes give every pairing once.
      j.req.with_perf_model(sim::PerfModelKind::TRACE_LATENCY);
      j.req.with_scenario(scns[(p + size_t(pass)) % scns.size()]);
    }
    out.push_back(std::move(j));
  }
  if (w.warm_copies) {
    size_t n = out.size();
    for (size_t k = 0; k < n; ++k) {
      JobSpec c = out[k];
      c.original = int(k);
      out.push_back(std::move(c));
    }
  }
  return out;
}

// ---- one run ----------------------------------------------------------------

struct JobRec {
  JobSpec spec;
  int pass = 0;
  int global = 0;  // index over the whole run (trace job id)
  api::JobHandle handle;
  Clock::time_point t_submit, t_running, t_done;
  bool submitted = false;
  bool running = false;
  bool done = false;
  bool collected = false;  // response taken by the client
  bool watchdog = false;   // cancelled by the watchdog
  Clock::time_point t_cancel;
  api::CompileResponse resp;
  std::vector<std::string> failures;
  double latency_ratio = 0;
};

// Shared between the client thread and the service's event callbacks.
struct Board {
  std::mutex mu;
  std::condition_variable cv;
  // The callbacks write JobRec::running/done/t_running/t_done under mu.
  std::vector<JobRec>* recs = nullptr;
};

constexpr double kJobDeadlineS = 60;   // submit → terminal
constexpr double kCancelGraceS = 45;   // cancel → terminal (one Z3 timeout)
constexpr double kRunDeadlineS = 120;  // stop submitting, cancel the rest

void on_event(Board& b, size_t idx, [[maybe_unused]] int global,
              const api::Event& e) {
  if (e.type != "state") return;
  const util::Json* st = e.data.get("state");
  if (!st || !st->is_string()) return;
  const std::string& s = st->as_string();
  auto now = Clock::now();
  if (s == "RUNNING") {
#if K2PERF_TRACED
    k2perf::trace::bind_job(global);
#endif
    std::lock_guard<std::mutex> lock(b.mu);
    (*b.recs)[idx].running = true;
    (*b.recs)[idx].t_running = now;
  } else if (s == "DONE" || s == "FAILED" || s == "CANCELLED") {
#if K2PERF_TRACED
    k2perf::trace::bind_job(-1);
#endif
    std::lock_guard<std::mutex> lock(b.mu);
    (*b.recs)[idx].done = true;
    (*b.recs)[idx].t_done = now;
    b.cv.notify_all();
  }
}

// Runs one pass on a fresh service; records land in `recs`.
void run_pass(const Workload& w, std::vector<JobRec>& recs,
              const fs::path& state_dir, Clock::time_point run_start) {
  api::ServiceOptions so;
  so.threads = w.threads;
  fs::path cache_dir;
  if (w.warm_copies) {
    cache_dir = state_dir / ("eqcache-" + std::to_string(getpid()));
    fs::remove_all(cache_dir);
    so.cache_dir = cache_dir.string();
  }
  Board board;
  board.recs = &recs;
  {
    api::CompilerService svc(so);
    std::vector<size_t> ready;  // indexes eligible for submission, FIFO
    for (size_t i = 0; i < recs.size(); ++i)
      if (recs[i].spec.original < 0) ready.push_back(i);
    size_t inflight = 0, finished = 0;
    bool stop = false;
    std::unique_lock<std::mutex> lock(board.mu);
    while (finished < recs.size()) {
      while (!stop && inflight < size_t(w.outstanding) && !ready.empty()) {
        size_t i = ready.front();
        ready.erase(ready.begin());
        JobRec& r = recs[i];
        r.submitted = true;
        r.t_submit = Clock::now();
        lock.unlock();
        int global = r.global;
        api::JobHandle h = svc.submit(
            r.spec.req, [&board, i, global](const api::Event& e) {
              on_event(board, i, global, e);
            });
        lock.lock();
        r.handle = h;
        inflight++;
      }
      if (inflight == 0) break;  // stopped with nothing left in flight
      board.cv.wait_for(lock, std::chrono::milliseconds(100));
      auto now = Clock::now();
      if (!stop && since(run_start, now) > kRunDeadlineS) stop = true;
      for (size_t i = 0; i < recs.size(); ++i) {
        JobRec& r = recs[i];
        if (!r.handle.valid() || r.collected) continue;
        if (r.done) {
          // Newly terminal: collect it and release its serve-warm copy.
          r.collected = true;
          r.resp = r.handle.response();
          inflight--;
          finished++;
          for (size_t c = 0; c < recs.size(); ++c)
            if (recs[c].spec.original == int(i)) ready.insert(ready.begin(), c);
        } else if (!r.watchdog &&
                   (stop || since(r.t_submit, now) > kJobDeadlineS)) {
          r.watchdog = true;
          r.t_cancel = now;
          r.handle.cancel();
        } else if (r.watchdog && since(r.t_cancel, now) > kCancelGraceS) {
          // The service cannot be torn down around a job that never ends.
          std::fprintf(stderr, "k2perf: %s ignored cancel for %.0f s\n",
                       r.handle.id().c_str(), kCancelGraceS);
          std::printf("{\"correct\": false, \"attempted\": %zu, "
                      "\"failed\": %zu, \"metrics\": {}}\n",
                      recs.size(), recs.size());
          std::fflush(stdout);
          std::_Exit(3);
        }
      }
    }
  }
  for (JobRec& r : recs)
    if (!r.submitted) r.failures.push_back("not submitted before the run deadline");
  if (!cache_dir.empty()) fs::remove_all(cache_dir);
}

// ---- output check -----------------------------------------------------------

struct Reference {
  std::vector<interp::InputSpec> inputs;
  std::vector<interp::RunResult> outputs;
};

// Checks one DONE job without trusting the compiler: reassembles the
// returned program against the source's map definitions, runs source and
// result on held-out inputs through the legacy interpreter, and requires
// kernel-checker acceptance, no growth, and truthful reported perf.
void check_job(JobRec& r, std::map<std::string, Reference>& refs) {
  if (r.resp.state != api::JobState::DONE || !r.resp.single) {
    r.failures.push_back(std::string("state ") + api::to_string(r.resp.state) +
                         (r.resp.error.empty() ? "" : ": " + r.resp.error));
    return;
  }
  const ebpf::Program& src = corpus::benchmark(r.spec.program).o2;
  ebpf::Program best;
  try {
    best = ebpf::assemble(r.resp.best_asm, src.type, src.maps);
  } catch (const std::exception& e) {
    r.failures.push_back(std::string("best_asm does not assemble: ") +
                         e.what());
    return;
  }
  if (best.size_slots() != r.resp.best_slots)
    r.failures.push_back("best_slots disagrees with best_asm");
  if (best.size_slots() > src.size_slots())
    r.failures.push_back("result larger than the source");
  kernel::CheckResult kc = kernel::kernel_check(best);
  if (!kc.accepted)
    r.failures.push_back("kernel checker rejects result: " + kc.reason);

  Reference& ref = refs[r.spec.program];
  if (ref.inputs.empty()) {
    ref.inputs = scenario::expand(scenario::default_scenario(), src,
                                  kHoldoutInputs, kHoldoutSeed);
    for (const auto& in : ref.inputs) ref.outputs.push_back(interp::run(src, in));
  }
  int mismatches = 0;
  for (size_t i = 0; i < ref.inputs.size(); ++i)
    if (!interp::outputs_equal(src.type, ref.outputs[i],
                               interp::run(best, ref.inputs[i])))
      mismatches++;
  if (mismatches)
    r.failures.push_back(std::to_string(mismatches) + "/" +
                         std::to_string(ref.inputs.size()) +
                         " held-out outputs differ from the source");

  // Reported perf must match the job's own model re-evaluated here; the
  // latency ratio uses the interpreter-traced model under the job's
  // scenario (`default` for size jobs).
  const core::CompileResult& res = *r.resp.single;
  scenario::Scenario scn = r.spec.req.resolved_scenario();
  auto workload = [&] {
    return scenario::expand(scn, src, scn.inputs, r.spec.req.seed);
  };
  auto own = sim::make_perf_model(
      core::resolved_perf_model(r.spec.req.to_compile_options()), src,
      workload());
  auto close = [](double a, double b) {
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
  };
  if (!close(own->absolute(src), res.src_perf) ||
      !close(own->absolute(best), res.best_perf))
    r.failures.push_back("reported src_perf/best_perf do not match");
  auto lat = own->kind() == sim::PerfModelKind::TRACE_LATENCY
                 ? std::move(own)
                 : sim::make_perf_model(sim::PerfModelKind::TRACE_LATENCY,
                                        src, workload());
  r.latency_ratio = lat->absolute(best) / lat->absolute(src);
}

// Same request, same result: within a run (serve-warm copies) and across
// every earlier run of the same code in this state directory (any workload
// or seed, plain or traced), via a record of request hash -> result hash.
int check_determinism(std::vector<JobRec>& recs, const fs::path& file) {
  int violations = 0;
  for (JobRec& r : recs)
    if (r.spec.original >= 0 && r.resp.state == api::JobState::DONE) {
      const JobRec& o = recs[size_t(r.spec.original)];
      if (o.resp.state == api::JobState::DONE &&
          o.resp.best_asm != r.resp.best_asm) {
        r.failures.push_back("best_asm differs from the first copy");
        violations++;
      }
    }
  std::map<std::string, std::string> seen;
  {
    std::ifstream in(file);
    std::string key, val;
    while (in >> key >> val) seen[key] = val;
  }
  for (JobRec& r : recs) {
    if (r.resp.state != api::JobState::DONE || r.spec.original >= 0) continue;
    std::string key = hex(fnv64(r.spec.req.to_json().dump()));
    std::string val = hex(fnv64(r.resp.best_asm));
    auto it = seen.find(key);
    if (it == seen.end()) {
      seen[key] = val;
    } else if (it->second != val) {
      r.failures.push_back("best_asm differs from an earlier run");
      violations++;
    }
  }
  fs::path tmp = file;
  tmp += ".tmp";
  {
    std::ofstream out(tmp);
    for (const auto& [k, v] : seen) out << k << ' ' << v << '\n';
  }
  fs::rename(tmp, file);
  return violations;
}

// ---- statistics -------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * double(v.size() - 1);
  size_t lo = size_t(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / double(v.size());
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / double(v.size()));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t n;  // samples behind the value
};

std::string fmt(double v) {
  char b[64];
  std::snprintf(b, sizeof b, "%.9g", v);
  return b;
}

// ---- set-up probe -----------------------------------------------------------

// Probe mode: everything a client does between process start and its
// first submit (load the program and libz3, build and validate the request
// stream, construct the service), then signal readiness on fd 3.
int setup_probe(const Workload& w, const fs::path& state_dir) {
  std::vector<JobSpec> pass = make_pass(w, Budget{}, 0, 0);
  for (const JobSpec& j : pass) j.req.validate_or_throw();
  api::ServiceOptions so;
  so.threads = w.threads;
  fs::path dir;
  if (w.warm_copies) {
    dir = state_dir / ("probe-" + std::to_string(getpid()));
    fs::remove_all(dir);
    so.cache_dir = dir.string();
  }
  bool ok = false;
  {
    api::CompilerService svc(so);
    ok = write(3, "r", 1) == 1;
  }
  if (!dir.empty()) fs::remove_all(dir);
  return ok ? 0 : 1;
}

// Spawns this binary in probe mode and times process start → ready to
// submit, as signalled over a pipe. Returns a negative value on failure.
double probe_setup(const std::string& workload, const fs::path& state_dir) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return -1;
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], 3);
  std::string sd = state_dir.string();
  const char* argv[] = {"k2perf", "--setup-probe", "--workload",
                        workload.c_str(), "--state-dir", sd.c_str(), nullptr};
  auto t0 = Clock::now();
  pid_t pid = -1;
  int rc = posix_spawn(&pid, "/proc/self/exe", &fa, nullptr,
                       const_cast<char**>(argv), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    return -1;
  }
  double t = -1;
  pollfd pfd{fds[0], POLLIN, 0};
  char c = 0;
  if (poll(&pfd, 1, 30000) == 1 && read(fds[0], &c, 1) == 1 && c == 'r')
    t = since(t0, Clock::now());
  else
    kill(pid, SIGKILL);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1;
  return t;
}

// ---- host metadata ----------------------------------------------------------

std::string host_json(const Workload& w, uint64_t seed, int seconds,
                      int passes, const std::string& git_sha,
                      const std::string& src_digest) {
  unsigned maj = 0, min = 0, build = 0, rev = 0;
  Z3_get_version(&maj, &min, &build, &rev);
  util::Json j;
  j.set("schema", "k2perf-host/v1");
  j.set("workload", w.name);
  j.set("seed", seed);
  j.set("seconds", int64_t(seconds));
  j.set("passes", int64_t(passes));
  j.set("nproc", int64_t(std::thread::hardware_concurrency()));
  j.set("compiler", "g++ " __VERSION__);
  j.set("build_type", K2PERF_BUILD_TYPE);
  j.set("z3", std::to_string(maj) + "." + std::to_string(min) + "." +
                  std::to_string(build));
  j.set("git_sha", git_sha.empty() ? util::Json() : util::Json(git_sha));
  j.set("src_digest", src_digest);
  j.set("traced", bool(K2PERF_TRACED));
  return j.dump();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "k2perf: %s\nusage: k2perf --workload size-seq|latency-trace|"
               "serve-warm --seed N --seconds S --state-dir DIR "
               "[--trace-out FILE] [--git-sha SHA] [--src-digest HEX]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, state_dir, trace_out, git_sha, src_digest;
  uint64_t seed = 0;
  int seconds = 0;
  bool probe = false, have_seed = false;
  Budget budget;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto val = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (a == "--workload") workload = val();
    else if (a == "--seed") {
      seed = std::strtoull(val().c_str(), nullptr, 10);
      have_seed = true;
    }
    else if (a == "--seconds") seconds = std::atoi(val().c_str());
    else if (a == "--state-dir") state_dir = val();
    else if (a == "--trace-out") trace_out = val();
    else if (a == "--git-sha") git_sha = val();
    else if (a == "--src-digest") src_digest = val();
    else if (a == "--setup-probe") probe = true;
    else if (a == "--iters") budget.iters = std::strtoull(val().c_str(), nullptr, 10);
    else if (a == "--chains") budget.chains = std::atoi(val().c_str());
    else if (a == "--programs") {
      std::string list = val();
      for (size_t at = 0; at <= list.size();) {
        size_t end = std::min(list.find(',', at), list.size());
        if (end > at) budget.programs.push_back(list.substr(at, end - at));
        at = end + 1;
      }
    }
    else return usage(("unknown argument " + a).c_str());
  }
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads)
    if (workload == c.name) w = &c;
  if (!w) return usage("unknown or missing --workload");
  if (state_dir.empty()) return usage("missing --state-dir");
  fs::create_directories(state_dir);

  if (probe) return setup_probe(*w, state_dir);
  if (!have_seed || seconds <= 0) return usage("missing --seed or --seconds");
  if (budget.iters == 0 || budget.chains <= 0)
    return usage("--iters and --chains must be positive");
  for (const std::string& p : budget.programs) try {
      corpus::benchmark(p);
    } catch (const std::out_of_range&) {
      return usage(("unknown program " + p).c_str());
    }

  // Set-up time, process start → first submit, as the median of fresh
  // processes (the plain binary only: it is an end-to-end metric).
  std::vector<double> setups;
  if (!K2PERF_TRACED)
    for (int i = 0; i < 15; ++i) {
      double t = probe_setup(w->name, state_dir);
      if (t < 0) {
        std::fprintf(stderr, "k2perf: set-up probe failed\n");
        return 1;
      }
      setups.push_back(t);
    }

  // Whole passes only. A run aims at round(seconds / kPassS) passes but
  // starts another only when 1.25 times its longest pass so far still ends
  // inside the watchdog's run deadline.
  const int target = std::max(1, int(std::lround(seconds / kPassS)));
  std::vector<std::vector<JobRec>> runs;
  int global = 0;
  double longest = 0;
  const auto run_start = Clock::now();
  for (int p = 0; p < target; ++p) {
    if (p > 0 &&
        since(run_start, Clock::now()) + 1.25 * longest > kRunDeadlineS)
      break;
    std::vector<JobRec> recs;
    for (JobSpec& j : make_pass(*w, budget, seed, p)) {
      JobRec r;
      r.spec = std::move(j);
      r.pass = p;
      r.global = global++;
      recs.push_back(std::move(r));
    }
    runs.push_back(std::move(recs));
    const auto t0 = Clock::now();
    run_pass(*w, runs.back(), state_dir, run_start);
    longest = std::max(longest, since(t0, Clock::now()));
  }
  const int passes = int(runs.size());
  const double measure_s = since(run_start, Clock::now());
  const double rss = peak_rss_mb();

  // ---- checks (outside the measured window) ----
  std::map<std::string, Reference> refs;
  std::vector<JobRec*> all;
  for (auto& recs : runs)
    for (JobRec& r : recs) {
      if (r.watchdog) r.failures.push_back("cancelled by the watchdog");
      if (r.submitted) check_job(r, refs);
      all.push_back(&r);
    }
  // One record per source digest: only runs of the same code must agree.
  fs::path det = fs::path(state_dir) /
                 ("determinism-" +
                  (src_digest.empty() ? std::string("unknown") : src_digest) +
                  ".txt");
  int det_violations = 0;
  for (auto& recs : runs) det_violations += check_determinism(recs, det);

  int failed = 0;
  for (JobRec* r : all)
    if (!r->failures.empty()) {
      failed++;
      std::fprintf(stderr, "k2perf: FAIL %s pass %d seed %llu: %s\n",
                   r->spec.program.c_str(), r->pass,
                   (unsigned long long)r->spec.req.seed,
                   r->failures.front().c_str());
    }
  const int attempted = int(all.size());

  // ---- end-to-end metrics ----
  std::vector<double> job_s, queue_s, makespans, size_ratio, lat_ratio, rates;
  double proposals = 0, running_s = 0;
  for (auto& recs : runs) {
    Clock::time_point first = Clock::time_point::max(), last{};
    for (JobRec& r : recs) {
      if (!r.submitted) continue;
      first = std::min(first, r.t_submit);
      if (r.done) last = std::max(last, r.t_done);
      if (r.resp.state != api::JobState::DONE || !r.resp.single) continue;
      job_s.push_back(since(r.t_submit, r.t_done));
      queue_s.push_back(since(r.t_submit, r.t_running));
      proposals += double(r.resp.single->total_proposals);
      running_s += since(r.t_running, r.t_done);
      rates.push_back(double(r.resp.single->total_proposals) /
                      since(r.t_running, r.t_done));
      const ebpf::Program& src = corpus::benchmark(r.spec.program).o2;
      size_ratio.push_back(double(r.resp.best_slots) / src.size_slots());
      if (r.latency_ratio > 0) lat_ratio.push_back(r.latency_ratio);
    }
    if (last > first) makespans.push_back(since(first, last));
  }
  // Gated metrics are geometric means over the run's jobs: one job's time
  // varies with its search seed by up to 20x (xdp_fwd), and a sum or a
  // median over 18-36 jobs follows that one job (README.md, "Steadiness").
  std::vector<Metric> e2e = {
      {"setup_s", quantile(setups, 0.5), "s", setups.size()},
      {"job_s.geomean", geomean(job_s), "s", job_s.size()},
      {"proposals_per_s.geomean", geomean(rates), "1/s", rates.size()},
      {"size_ratio.geomean", geomean(size_ratio), "ratio", size_ratio.size()},
      {"latency_ratio.geomean", geomean(lat_ratio), "ratio", lat_ratio.size()},
      {"peak_rss_mb", rss, "MB", 1},
  };
  // Printed, not in the result line: too spread between runs to gate on
  // (README.md, "Steadiness"), or ~0, or diagnostic.
  std::vector<Metric> info = {
      {"job_s.p50", quantile(job_s, 0.5), "s", job_s.size()},
      {"job_s.mean", mean(job_s), "s", job_s.size()},
      {"makespan_s", quantile(makespans, 0.5), "s", makespans.size()},
      {"proposals_per_s", running_s > 0 ? proposals / running_s : 0, "1/s",
       job_s.size()},
      {"queue_wait_s.p50", quantile(queue_s, 0.5), "s", queue_s.size()},
      {"job_s.max", quantile(job_s, 1.0), "s", job_s.size()},
      {"failed_ratio", attempted ? double(failed) / attempted : 0, "ratio",
       size_t(attempted)},
      {"determinism_violations", double(det_violations), "count",
       size_t(attempted)},
      {"measure_s", measure_s, "s", 1},
  };

  std::vector<Metric> layers;
#if K2PERF_TRACED
  {
    namespace tr = k2perf::trace;
    std::vector<tr::JobLedger> led = tr::collect(size_t(global));
    double n = 0, compile = 0, compile_self = 0, chain_self = 0, fv = 0;
    double queue = 0, unattributed = 0, excluded = 0, job_wall = 0;
    double tests = 0, skipped = 0, hits = 0, lookups = 0, disk_hits = 0;
    double disk_writes = 0, secs_to_best = 0, eq_equal = 0, eq_unknown = 0;
    double bailouts = 0;
    double self[tr::kNumLayers] = {}, calls[tr::kNumLayers] = {};
    for (JobRec* r : all) {
      if (r->resp.state != api::JobState::DONE || !r->resp.single) continue;
      const tr::JobLedger& j = led[size_t(r->global)];
      const core::CompileResult& res = *r->resp.single;
      n++;
      for (int l = 0; l < tr::kNumLayers; ++l) {
        self[l] += j.self[l];
        calls[l] += double(j.calls[l]);
      }
      double wall = since(r->t_submit, r->t_done) - j.excluded;
      double q = since(r->t_submit, r->t_running);
      job_wall += wall;
      queue += q;
      compile += j.dur[tr::kCompile];
      compile_self += j.self[tr::kCompile];
      chain_self += j.self[tr::kChain];
      fv += j.final_verify;
      unattributed += wall - q - j.dur[tr::kCompile];
      excluded += j.excluded;
      eq_equal += double(j.eq_equal);
      eq_unknown += double(j.eq_unknown);
      bailouts += double(j.jit_bailouts);
      tests += double(res.tests_executed);
      skipped += double(res.tests_skipped);
      hits += double(res.cache.hits);
      lookups += double(res.cache.hits + res.cache.misses);
      disk_hits += double(res.cache.disk_hits);
      disk_writes += double(res.cache.disk_writes);
      secs_to_best += res.secs_to_best;
    }
    const double d = std::max(1.0, n);
    const double bookkeeping = tr::span_cost_s() * double(tr::spans_recorded());
    auto per = [&](tr::Layer l) { return self[l] / d; };
    layers = {
        {"api.queue_wait_s", queue / d, "s", size_t(n)},
        {"core.compile_s", compile / d, "s", size_t(n)},
        {"core.compile.self_s", compile_self / d, "s", size_t(n)},
        {"core.chain.self_s", chain_self / d, "s", size_t(n)},
        {"core.final_verify_s", fv / d, "s", size_t(n)},
        {"core.secs_to_best", secs_to_best / d, "s", size_t(n)},
        {"core.propose_s", per(tr::kPropose), "s", size_t(n)},
        {"pipeline.evaluate.self_s", per(tr::kEvaluate), "s", size_t(n)},
        {"pipeline.test_diff_s", per(tr::kTestDiff), "s", size_t(n)},
        {"pipeline.early_exit_ratio",
         tests + skipped > 0 ? skipped / (tests + skipped) : 0, "ratio",
         size_t(n)},
        {"exec.prepare_s", per(tr::kPrepare), "s", size_t(n)},
        {"exec.fast.run_suite_s", per(tr::kFastSuite), "s", size_t(n)},
        {"exec.jit.prepare_s", per(tr::kJitPrepare), "s", size_t(n)},
        {"exec.jit.run_suite_s", per(tr::kJitSuite), "s", size_t(n)},
        {"exec.jit.bailouts", bailouts / d, "count", size_t(n)},
        {"sim.cost_s", per(tr::kSimCost), "s", size_t(n)},
        {"scenario.expand_s", per(tr::kScenario), "s", size_t(n)},
        {"safety.check_s", per(tr::kSafety), "s", size_t(n)},
        {"safety.calls", calls[tr::kSafety] / d, "count", size_t(n)},
        {"kernel.check_s", per(tr::kKernel), "s", size_t(n)},
        {"verify.eq_s", per(tr::kEq), "s", size_t(n)},
        {"verify.eq.calls", calls[tr::kEq] / d, "count", size_t(n)},
        {"verify.eq.equal_ratio",
         calls[tr::kEq] > 0 ? eq_equal / calls[tr::kEq] : 0, "ratio",
         size_t(calls[tr::kEq])},
        {"verify.eq.unknown", eq_unknown / d, "count", size_t(n)},
        {"verify.cache.hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio",
         size_t(lookups)},
        {"verify.cache.disk_hits", disk_hits / d, "count", size_t(n)},
        {"verify.cache.disk_writes", disk_writes / d, "count", size_t(n)},
        {"trace.overhead_pct",
         job_wall > 0 ? 100 * (bookkeeping + excluded) / job_wall : 0, "%",
         size_t(n)},
        {"trace.unattributed_s", unattributed / d, "s", size_t(n)},
        {"trace.spans", double(tr::spans_recorded()), "count", 1},
    };
    if (!trace_out.empty()) {
      std::string err;
      if (!tr::write_spans(trace_out, &err))
        std::fprintf(stderr, "k2perf: %s\n", err.c_str());
    }
  }
#endif

  const std::string host =
      host_json(*w, seed, seconds, passes, git_sha, src_digest);

  // ---- per-job record (for inspection; not part of the result line) ----
  {
    util::Json jobs;
    for (JobRec* r : all) {
      util::Json j;
      j.set("program", r->spec.program);
      j.set("pass", int64_t(r->pass));
      j.set("copy", r->spec.original >= 0);
      j.set("request", r->spec.req.to_json());
      j.set("state", api::to_string(r->resp.state));
      if (r->done && r->submitted) {
        j.set("job_s", since(r->t_submit, r->t_done));
        j.set("queue_s", r->running ? since(r->t_submit, r->t_running) : 0.0);
      }
      if (r->resp.single) {
        j.set("best_slots", int64_t(r->resp.best_slots));
        j.set("src_slots",
              int64_t(corpus::benchmark(r->spec.program).o2.size_slots()));
        j.set("proposals", r->resp.single->total_proposals);
        j.set("solver_calls", r->resp.single->solver_calls);
        j.set("latency_ratio", r->latency_ratio);
      }
      util::Json f;
      for (const std::string& m : r->failures) f.push_back(m);
      j.set("failures", std::move(f));
      jobs.push_back(std::move(j));
    }
    util::Json rep;
    rep.set("host", util::Json::parse(host));
    rep.set("jobs", std::move(jobs));
    std::ofstream(fs::path(state_dir) /
                  ("jobs-" + std::string(w->name) + "-" +
                   std::to_string(seed) + (K2PERF_TRACED ? "-traced" : "") +
                   ".json"))
        << rep.dump(1) << "\n";
  }

  // ---- report ----
  std::printf("k2perf %s seed=%llu passes=%d jobs=%d failed=%d\n", w->name,
              (unsigned long long)seed, passes, attempted, failed);
  std::printf("host %s\n", host.c_str());
  auto row = [](const Metric& m) {
    std::printf("  %-28s %14s %-6s n=%zu\n", m.name.c_str(),
                fmt(m.value).c_str(), m.unit.c_str(), m.n);
  };
  const std::vector<Metric>& out = K2PERF_TRACED ? layers : e2e;
  for (const Metric& m : out) row(m);
  for (const Metric& m : info) row(m);

  util::Json metrics;
  for (const Metric& m : out) {
    util::Json v;
    v.set("value", m.value);
    v.set("unit", m.unit);
    metrics.set(m.name, std::move(v));
  }
  util::Json result;
  result.set("correct", failed == 0);
  result.set("attempted", int64_t(attempted));
  result.set("failed", int64_t(failed));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}
