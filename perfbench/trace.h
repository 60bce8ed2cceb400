// Span recorder of the traced benchmark binary (k2perf_traced).
//
// The program under test is not modified. trace.cc defines link-time
// wrappers (ld --wrap) around the public entry points of each layer:
// core::compile, core::run_chain, core::ProposalGen::propose,
// pipeline::EvalPipeline::evaluate, jit::BackendRunner::prepare/run_suite,
// sim::make_perf_model (whose result is decorated so every
// PerfModel::absolute/relative call is timed), scenario::expand,
// safety::check_safety, kernel::kernel_check, verify::solve_query_local and
// verify::check_equivalence. Every wrapper delegates to the real function
// with the same arguments and returns its result unchanged, so decisions
// and outputs stay bit-identical to the plain binary; k2perf checks
// that through its cross-run determinism record.
//
// A span is recorded only on a thread bound to a job (bind_job, called from
// the job's RUNNING event, which the service emits on the thread that then
// runs the compile). Each span has a name (its layer), start, end, parent
// and job id; spans are aggregated online into per-job totals and self
// times (duration minus the time covered by child spans), and the first
// kMaxRawSpans are also kept verbatim and written out at exit.
//
// The fast interpreter's prepare/run_suite calls are shadowed by the x86-64
// JIT on the same candidate and the same number of tests, so both
// execution backends are timed on identical work. Shadow time is excluded
// from every enclosing span and from the job's wall time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace k2perf::trace {

enum Layer : uint8_t {
  kCompile,        // core.compile
  kChain,          // core.chain
  kPropose,        // core.propose
  kEvaluate,       // pipeline.evaluate
  kPrepare,        // exec.prepare (the job's own execution backend)
  kFastSuite,      // exec.fast.run_suite
  kJitSuite,       // exec.jit.run_suite (shadow, excluded time)
  kJitPrepare,     // exec.jit.prepare (shadow, excluded time)
  kSimCost,        // sim.cost
  kScenario,       // scenario.expand
  kSafety,         // safety.check
  kKernel,         // kernel.check
  kEq,             // verify.eq
  kTestDiff,       // pipeline.test_diff (run_suite's per-test callback)
  kNumLayers,
};

struct JobLedger {
  double dur[kNumLayers] = {};   // seconds, net of excluded shadow time
  double self[kNumLayers] = {};  // dur minus time covered by child spans
  uint64_t calls[kNumLayers] = {};
  // safety/verify/kernel spans whose parent is core.compile itself, i.e.
  // the final re-verification after the chains have finished.
  double final_verify = 0;
  double excluded = 0;  // shadow JIT time spent on the job's thread
  uint64_t eq_equal = 0;
  uint64_t eq_unknown = 0;
  uint64_t jit_bailouts = 0;  // shadow candidates the JIT could not run
};

// Binds the calling thread to job `job` (>= 0), or unbinds it (-1).
void bind_job(int job);

// Merges every thread's per-job totals. Call only while no job runs.
std::vector<JobLedger> collect(size_t jobs);

// Measured cost of recording one span on this host, in seconds.
double span_cost_s();

uint64_t spans_recorded();

// Writes the verbatim spans as JSON. Call only while no job runs.
bool write_spans(const std::string& path, std::string* err);

}  // namespace k2perf::trace
