#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "core/compiler.h"
#include "core/proposals.h"
#include "jit/backend_runner.h"
#include "kernel/kernel_checker.h"
#include "pipeline/eval_pipeline.h"
#include "safety/safety.h"
#include "scenario/scenario.h"
#include "sim/perf_model.h"
#include "verify/solver_backend.h"

namespace k2perf::trace {

namespace {

using namespace k2;

constexpr uint64_t kMaxRawSpans = 200'000;

const char* const kLayerNames[kNumLayers] = {
    "core.compile",     "core.chain",          "core.propose",
    "pipeline.evaluate", "exec.prepare",       "exec.fast.run_suite",
    "exec.jit.run_suite", "exec.jit.prepare",  "sim.cost",
    "scenario.expand",  "safety.check",        "kernel.check",
    "verify.eq",        "pipeline.test_diff",
};

int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

struct Open {
  Layer layer;
  uint64_t id;
  int64_t start;
  int64_t child = 0;       // time covered by closed child spans
  int64_t excl_start = 0;  // thread's excluded time when the span opened
};

struct Raw {
  uint64_t id;
  uint64_t parent;  // 0 = top-level span of its job on this thread
  int32_t job;
  Layer layer;
  int64_t start;
  int64_t end;
};

struct ThreadData {
  uint32_t tid = 0;
  int job = -1;
  bool keep_raw = true;
  uint64_t next_id = 1;
  int64_t excluded = 0;  // shadow time on this thread so far
  std::vector<Open> stack;
  std::vector<JobLedger> jobs;
  std::vector<Raw> raw;
  std::unique_ptr<jit::BackendRunner> shadow;

  JobLedger& ledger() {
    if (jobs.size() <= size_t(job)) jobs.resize(size_t(job) + 1);
    return jobs[size_t(job)];
  }
  uint64_t new_id() { return (uint64_t(tid) << 40) | next_id++; }
};

// Thread records outlive their pool threads: services are torn down per
// pass, and collect() runs after that.
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadData>> g_threads;  // guarded by g_mu
std::atomic<uint64_t> g_raw{0};
std::atomic<uint64_t> g_dropped{0};
thread_local ThreadData* tl = nullptr;

ThreadData* bound() { return tl && tl->job >= 0 ? tl : nullptr; }

void keep(ThreadData& t, const Raw& r) {
  if (!t.keep_raw) return;
  if (g_raw.fetch_add(1, std::memory_order_relaxed) < kMaxRawSpans)
    t.raw.push_back(r);
  else
    g_dropped.fetch_add(1, std::memory_order_relaxed);
}

// RAII span. Inert on unbound threads and when the innermost open span is
// already of the same layer (check_equivalence under solve_query_local is
// one verify.eq span, not two).
class Span {
 public:
  explicit Span(Layer l) {
    ThreadData* t = bound();
    if (!t || (!t->stack.empty() && t->stack.back().layer == l)) return;
    t_ = t;
    t->stack.push_back(Open{l, t->new_id(), now_ns(), 0, t->excluded});
  }
  ~Span() {
    if (!t_) return;
    ThreadData& t = *t_;
    Open o = t.stack.back();
    t.stack.pop_back();
    int64_t end = now_ns();
    int64_t dur = end - o.start - (t.excluded - o.excl_start);
    JobLedger& j = t.ledger();
    j.dur[o.layer] += double(dur) * 1e-9;
    j.self[o.layer] += double(dur - o.child) * 1e-9;
    j.calls[o.layer]++;
    uint64_t parent = 0;
    if (!t.stack.empty()) {
      Open& p = t.stack.back();
      p.child += dur;
      parent = p.id;
      if (p.layer == kCompile &&
          (o.layer == kSafety || o.layer == kKernel || o.layer == kEq))
        j.final_verify += double(dur) * 1e-9;
    }
    keep(t, Raw{o.id, parent, t.job, o.layer, o.start, end});
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Charges `ns` spent inside this span to `child` as a closed child span
  // (aggregates only).
  void child(Layer child, int64_t ns) {
    if (!t_) return;
    JobLedger& j = t_->ledger();
    j.dur[child] += double(ns) * 1e-9;
    j.self[child] += double(ns) * 1e-9;
    j.calls[child]++;
    t_->stack.back().child += ns;
  }

  JobLedger* ledger() const { return t_ ? &t_->ledger() : nullptr; }

 private:
  ThreadData* t_ = nullptr;
};

// Records shadow work [start, end) as excluded time: charged to its own
// layer, subtracted from every enclosing span and from the job.
void excluded(ThreadData& t, Layer l, int64_t start, int64_t end) {
  int64_t dur = end - start;
  JobLedger& j = t.ledger();
  j.dur[l] += double(dur) * 1e-9;
  j.self[l] += double(dur) * 1e-9;
  j.calls[l]++;
  j.excluded += double(dur) * 1e-9;
  t.excluded += dur;
  keep(t, Raw{t.new_id(), t.stack.empty() ? 0 : t.stack.back().id, t.job, l,
              start, end});
}

// Times every cost-stage call of the model it decorates.
class TimedPerfModel final : public sim::PerfModel {
 public:
  explicit TimedPerfModel(std::unique_ptr<sim::PerfModel> inner)
      : inner_(std::move(inner)) {}
  sim::PerfModelKind kind() const override { return inner_->kind(); }
  double absolute(const ebpf::Program& p,
                  interp::Machine* scratch) const override {
    Span s(kSimCost);
    return inner_->absolute(p, scratch);
  }
  double relative(const ebpf::Program& cand, const ebpf::Program& src,
                  interp::Machine* scratch) const override {
    Span s(kSimCost);
    return inner_->relative(cand, src, scratch);
  }

 private:
  std::unique_ptr<sim::PerfModel> inner_;
};

}  // namespace

}  // namespace k2perf::trace

// ---- link-time wrappers -----------------------------------------------------
// `-Wl,--wrap=S` sends every call of S to __wrap_S and makes __real_S the
// original. An entry point whose signature changed no longer links.

using namespace k2;
using k2perf::trace::Span;
namespace tr = k2perf::trace;

#define K2PERF_REAL extern "C"

using Mt = std::mt19937_64;

K2PERF_REAL core::CompileResult
__real__ZN2k24core7compileERKNS_4ebpf7ProgramERKNS0_14CompileOptionsERKNS0_15CompileServicesE(
    const ebpf::Program&, const core::CompileOptions&,
    const core::CompileServices&);
extern "C" core::CompileResult
__wrap__ZN2k24core7compileERKNS_4ebpf7ProgramERKNS0_14CompileOptionsERKNS0_15CompileServicesE(
    const ebpf::Program& src, const core::CompileOptions& opts,
    const core::CompileServices& svc) {
  Span s(tr::kCompile);
  return __real__ZN2k24core7compileERKNS_4ebpf7ProgramERKNS0_14CompileOptionsERKNS0_15CompileServicesE(
      src, opts, svc);
}

K2PERF_REAL core::ChainResult
__real__ZN2k24core9run_chainERKNS_4ebpf7ProgramERNS0_9TestSuiteERNS_6verify7EqCacheERKNS0_11ChainConfigE(
    const ebpf::Program&, core::TestSuite&, verify::EqCache&,
    const core::ChainConfig&);
extern "C" core::ChainResult
__wrap__ZN2k24core9run_chainERKNS_4ebpf7ProgramERNS0_9TestSuiteERNS_6verify7EqCacheERKNS0_11ChainConfigE(
    const ebpf::Program& src, core::TestSuite& suite, verify::EqCache& cache,
    const core::ChainConfig& cfg) {
  Span s(tr::kChain);
  return __real__ZN2k24core9run_chainERKNS_4ebpf7ProgramERNS0_9TestSuiteERNS_6verify7EqCacheERKNS0_11ChainConfigE(
      src, suite, cache, cfg);
}

K2PERF_REAL ebpf::Program
__real__ZNK2k24core11ProposalGen7proposeERKNS_4ebpf7ProgramERSt23mersenne_twister_engineImLm64ELm312ELm156ELm31ELm13043109905998158313ELm29ELm6148914691236517205ELm17ELm8202884508482404352ELm37ELm18444473444759240704ELm43ELm6364136223846793005EEPNS2_9InsnRangeE(
    const core::ProposalGen*, const ebpf::Program&, Mt&, ebpf::InsnRange*);
extern "C" ebpf::Program
__wrap__ZNK2k24core11ProposalGen7proposeERKNS_4ebpf7ProgramERSt23mersenne_twister_engineImLm64ELm312ELm156ELm31ELm13043109905998158313ELm29ELm6148914691236517205ELm17ELm8202884508482404352ELm37ELm18444473444759240704ELm43ELm6364136223846793005EEPNS2_9InsnRangeE(
    const core::ProposalGen* self, const ebpf::Program& cur, Mt& rng,
    ebpf::InsnRange* touched) {
  Span s(tr::kPropose);
  return __real__ZNK2k24core11ProposalGen7proposeERKNS_4ebpf7ProgramERSt23mersenne_twister_engineImLm64ELm312ELm156ELm31ELm13043109905998158313ELm29ELm6148914691236517205ELm17ELm8202884508482404352ELm37ELm18444473444759240704ELm43ELm6364136223846793005EEPNS2_9InsnRangeE(
      self, cur, rng, touched);
}

K2PERF_REAL pipeline::Eval
__real__ZN2k28pipeline12EvalPipeline8evaluateERKNS_4ebpf7ProgramERKSt8optionalINS_6verify10WindowSpecEERKNS0_10RejectGateERNS0_11ExecContextEPNS0_9PendingEqEPKNS2_9InsnRangeE(
    pipeline::EvalPipeline*, const ebpf::Program&,
    const std::optional<verify::WindowSpec>&, const pipeline::RejectGate&,
    pipeline::ExecContext&, pipeline::PendingEq*, const ebpf::InsnRange*);
extern "C" pipeline::Eval
__wrap__ZN2k28pipeline12EvalPipeline8evaluateERKNS_4ebpf7ProgramERKSt8optionalINS_6verify10WindowSpecEERKNS0_10RejectGateERNS0_11ExecContextEPNS0_9PendingEqEPKNS2_9InsnRangeE(
    pipeline::EvalPipeline* self, const ebpf::Program& cand,
    const std::optional<verify::WindowSpec>& win,
    const pipeline::RejectGate& gate, pipeline::ExecContext& ctx,
    pipeline::PendingEq* pending, const ebpf::InsnRange* touched) {
  Span s(tr::kEvaluate);
  return __real__ZN2k28pipeline12EvalPipeline8evaluateERKNS_4ebpf7ProgramERKSt8optionalINS_6verify10WindowSpecEERKNS0_10RejectGateERNS0_11ExecContextEPNS0_9PendingEqEPKNS2_9InsnRangeE(
      self, cand, win, gate, ctx, pending, touched);
}

K2PERF_REAL ebpf::InsnRange
__real__ZN2k23jit13BackendRunner7prepareERKNS_4ebpf7ProgramEPKNS2_9InsnRangeE(
    jit::BackendRunner*, const ebpf::Program&, const ebpf::InsnRange*);
extern "C" ebpf::InsnRange
__wrap__ZN2k23jit13BackendRunner7prepareERKNS_4ebpf7ProgramEPKNS2_9InsnRangeE(
    jit::BackendRunner* self, const ebpf::Program& p,
    const ebpf::InsnRange* touched) {
  tr::ThreadData* t = tr::bound();
  if (!t || self == t->shadow.get())
    return __real__ZN2k23jit13BackendRunner7prepareERKNS_4ebpf7ProgramEPKNS2_9InsnRangeE(
        self, p, touched);
  ebpf::InsnRange r;
  {
    Span s(tr::kPrepare);
    r = __real__ZN2k23jit13BackendRunner7prepareERKNS_4ebpf7ProgramEPKNS2_9InsnRangeE(
        self, p, touched);
  }
  if (self->backend() == jit::ExecBackend::FAST_INTERP) {
    if (!t->shadow) {
      t->shadow = std::make_unique<jit::BackendRunner>();
      t->shadow->select(jit::ExecBackend::JIT);
    }
    const uint64_t bailouts = t->shadow->jit_bailouts();
    int64_t start = tr::now_ns();
    __real__ZN2k23jit13BackendRunner7prepareERKNS_4ebpf7ProgramEPKNS2_9InsnRangeE(
        t->shadow.get(), p, touched);
    tr::excluded(*t, tr::kJitPrepare, start, tr::now_ns());
    t->ledger().jit_bailouts += t->shadow->jit_bailouts() - bailouts;
  }
  return r;
}

K2PERF_REAL interp::SuiteOutcome
__real__ZN2k23jit13BackendRunner9run_suiteESt4spanIKNS_6interp9SuiteTestELm18446744073709551615EEbRKNS3_10RunOptionsENS3_10ResultSinkE(
    jit::BackendRunner*, std::span<const interp::SuiteTest>, bool,
    const interp::RunOptions&, interp::ResultSink);
extern "C" interp::SuiteOutcome
__wrap__ZN2k23jit13BackendRunner9run_suiteESt4spanIKNS_6interp9SuiteTestELm18446744073709551615EEbRKNS3_10RunOptionsENS3_10ResultSinkE(
    jit::BackendRunner* self, std::span<const interp::SuiteTest> tests,
    bool until_first_fail, const interp::RunOptions& opt,
    interp::ResultSink on_result) {
  tr::ThreadData* t = tr::bound();
  if (!t || self == t->shadow.get())
    return __real__ZN2k23jit13BackendRunner9run_suiteESt4spanIKNS_6interp9SuiteTestELm18446744073709551615EEbRKNS3_10RunOptionsENS3_10ResultSinkE(
        self, tests, until_first_fail, opt, on_result);
  const bool fast = self->backend() == jit::ExecBackend::FAST_INTERP;
  interp::SuiteOutcome out;
  {
    // The caller's per-test callback (output comparison and the early-exit
    // test) is charged to pipeline.test_diff, so the run_suite self time is
    // execution alone, comparable with the shadow's.
    Span s(fast ? tr::kFastSuite : tr::kJitSuite);
    int64_t callback_ns = 0;
    auto timed = [&](uint32_t i, const interp::RunResult& r) {
      int64_t start = tr::now_ns();
      bool go = on_result(i, r);
      callback_ns += tr::now_ns() - start;
      return go;
    };
    out = __real__ZN2k23jit13BackendRunner9run_suiteESt4spanIKNS_6interp9SuiteTestELm18446744073709551615EEbRKNS3_10RunOptionsENS3_10ResultSinkE(
        self, tests, until_first_fail, opt,
        on_result ? interp::ResultSink(timed) : on_result);
    s.child(tr::kTestDiff, callback_ns);
  }
  if (fast && t->shadow) {
    // Same tests, stopping after as many executions as the real run made.
    uint32_t n = 0;
    auto limit = [&](uint32_t, const interp::RunResult&) {
      return ++n < out.executed;
    };
    int64_t start = tr::now_ns();
    __real__ZN2k23jit13BackendRunner9run_suiteESt4spanIKNS_6interp9SuiteTestELm18446744073709551615EEbRKNS3_10RunOptionsENS3_10ResultSinkE(
        t->shadow.get(), tests, until_first_fail, opt,
        interp::ResultSink(limit));
    tr::excluded(*t, tr::kJitSuite, start, tr::now_ns());
  }
  return out;
}

K2PERF_REAL std::unique_ptr<sim::PerfModel>
__real__ZN2k23sim15make_perf_modelENS0_13PerfModelKindERKNS_4ebpf7ProgramESt6vectorINS_6interp9InputSpecESaIS8_EE(
    sim::PerfModelKind, const ebpf::Program&, std::vector<interp::InputSpec>);
extern "C" std::unique_ptr<sim::PerfModel>
__wrap__ZN2k23sim15make_perf_modelENS0_13PerfModelKindERKNS_4ebpf7ProgramESt6vectorINS_6interp9InputSpecESaIS8_EE(
    sim::PerfModelKind kind, const ebpf::Program& src,
    std::vector<interp::InputSpec> workload) {
  if (!tr::bound())
    return __real__ZN2k23sim15make_perf_modelENS0_13PerfModelKindERKNS_4ebpf7ProgramESt6vectorINS_6interp9InputSpecESaIS8_EE(
        kind, src, std::move(workload));
  Span s(tr::kSimCost);
  return std::make_unique<tr::TimedPerfModel>(
      __real__ZN2k23sim15make_perf_modelENS0_13PerfModelKindERKNS_4ebpf7ProgramESt6vectorINS_6interp9InputSpecESaIS8_EE(
          kind, src, std::move(workload)));
}

K2PERF_REAL std::vector<interp::InputSpec>
__real__ZN2k28scenario6expandERKNS0_8ScenarioERKNS_4ebpf7ProgramEim(
    const scenario::Scenario&, const ebpf::Program&, int, uint64_t);
extern "C" std::vector<interp::InputSpec>
__wrap__ZN2k28scenario6expandERKNS0_8ScenarioERKNS_4ebpf7ProgramEim(
    const scenario::Scenario& scn, const ebpf::Program& prog, int n,
    uint64_t seed) {
  Span s(tr::kScenario);
  return __real__ZN2k28scenario6expandERKNS0_8ScenarioERKNS_4ebpf7ProgramEim(
      scn, prog, n, seed);
}

K2PERF_REAL safety::SafetyResult
__real__ZN2k26safety12check_safetyERKNS_4ebpf7ProgramERKNS0_13SafetyOptionsE(
    const ebpf::Program&, const safety::SafetyOptions&);
extern "C" safety::SafetyResult
__wrap__ZN2k26safety12check_safetyERKNS_4ebpf7ProgramERKNS0_13SafetyOptionsE(
    const ebpf::Program& prog, const safety::SafetyOptions& opts) {
  Span s(tr::kSafety);
  return __real__ZN2k26safety12check_safetyERKNS_4ebpf7ProgramERKNS0_13SafetyOptionsE(
      prog, opts);
}

K2PERF_REAL kernel::CheckResult
__real__ZN2k26kernel12kernel_checkERKNS_4ebpf7ProgramERKNS0_14CheckerOptionsE(
    const ebpf::Program&, const kernel::CheckerOptions&);
extern "C" kernel::CheckResult
__wrap__ZN2k26kernel12kernel_checkERKNS_4ebpf7ProgramERKNS0_14CheckerOptionsE(
    const ebpf::Program& prog, const kernel::CheckerOptions& opts) {
  Span s(tr::kKernel);
  return __real__ZN2k26kernel12kernel_checkERKNS_4ebpf7ProgramERKNS0_14CheckerOptionsE(
      prog, opts);
}

namespace {
void note_verdict(const Span& s, verify::Verdict v) {
  if (tr::JobLedger* j = s.ledger()) {
    if (v == verify::Verdict::EQUAL) j->eq_equal++;
    if (v == verify::Verdict::UNKNOWN) j->eq_unknown++;
  }
}
}  // namespace

K2PERF_REAL verify::EqResult
__real__ZN2k26verify17solve_query_localERKNS0_10SolveQueryE(
    const verify::SolveQuery&);
extern "C" verify::EqResult
__wrap__ZN2k26verify17solve_query_localERKNS0_10SolveQueryE(
    const verify::SolveQuery& q) {
  Span s(tr::kEq);
  verify::EqResult r =
      __real__ZN2k26verify17solve_query_localERKNS0_10SolveQueryE(q);
  note_verdict(s, r.verdict);
  return r;
}

K2PERF_REAL verify::EqResult
__real__ZN2k26verify17check_equivalenceERKNS_4ebpf7ProgramES4_RKNS0_9EqOptionsE(
    const ebpf::Program&, const ebpf::Program&, const verify::EqOptions&);
extern "C" verify::EqResult
__wrap__ZN2k26verify17check_equivalenceERKNS_4ebpf7ProgramES4_RKNS0_9EqOptionsE(
    const ebpf::Program& src, const ebpf::Program& cand,
    const verify::EqOptions& opts) {
  Span s(tr::kEq);
  verify::EqResult r =
      __real__ZN2k26verify17check_equivalenceERKNS_4ebpf7ProgramES4_RKNS0_9EqOptionsE(
          src, cand, opts);
  note_verdict(s, r.verdict);
  return r;
}

// ---- recorder API -----------------------------------------------------------

namespace k2perf::trace {

void bind_job(int job) {
  if (!tl) {
    auto t = std::make_unique<ThreadData>();
    std::lock_guard<std::mutex> lock(g_mu);
    t->tid = uint32_t(g_threads.size() + 1);
    tl = t.get();
    g_threads.push_back(std::move(t));
  }
  tl->job = job;
}

std::vector<JobLedger> collect(size_t jobs) {
  std::vector<JobLedger> out(jobs);
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& t : g_threads)
    for (size_t j = 0; j < t->jobs.size() && j < jobs; ++j) {
      const JobLedger& s = t->jobs[j];
      JobLedger& d = out[j];
      for (int l = 0; l < kNumLayers; ++l) {
        d.dur[l] += s.dur[l];
        d.self[l] += s.self[l];
        d.calls[l] += s.calls[l];
      }
      d.final_verify += s.final_verify;
      d.excluded += s.excluded;
      d.eq_equal += s.eq_equal;
      d.eq_unknown += s.eq_unknown;
      d.jit_bailouts += s.jit_bailouts;
    }
  return out;
}

double span_cost_s() {
  // Records spans on a private, unregistered thread record.
  ThreadData scratch;
  scratch.job = 0;
  scratch.keep_raw = false;
  ThreadData* saved = tl;
  tl = &scratch;
  constexpr int kN = 100'000;
  int64_t start = now_ns();
  for (int i = 0; i < kN; ++i) Span s(i % 2 ? kPropose : kEvaluate);
  int64_t end = now_ns();
  tl = saved;
  return double(end - start) * 1e-9 / kN;
}

uint64_t spans_recorded() {
  uint64_t n = 0;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& t : g_threads)
    for (const JobLedger& j : t->jobs)
      for (int l = 0; l < kNumLayers; ++l) n += j.calls[l];
  return n;
}

bool write_spans(const std::string& path, std::string* err) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    *err = "cannot open " + path;
    return false;
  }
  std::fprintf(f, "{\"schema\":\"k2perf-spans/v1\",\"dropped\":%llu,",
               (unsigned long long)g_dropped.load());
  std::fprintf(f, "\"fields\":[\"id\",\"parent\",\"job\",\"name\","
                  "\"start_ns\",\"end_ns\"],\"spans\":[");
  bool first = true;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& t : g_threads)
    for (const Raw& r : t->raw) {
      std::fprintf(f, "%s\n[%llu,%llu,%d,\"%s\",%lld,%lld]", first ? "" : ",",
                   (unsigned long long)r.id, (unsigned long long)r.parent,
                   r.job, kLayerNames[r.layer], (long long)r.start,
                   (long long)r.end);
      first = false;
    }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) {
    *err = "write failed: " + path;
    return false;
  }
  return true;
}

}  // namespace k2perf::trace
