// The oocc benchmark's workloads and the types they report in.
//
// jacobi and gaxpy run one compiled program job at a time (compile → stage
// → execute → gather) against one simulated machine; serve drives an
// in-process serve::Server from two closed-loop client threads. Every
// workload checks each output against an oracle computed in a child process
// before timing starts, and checks that the deterministic counters repeat
// exactly from job to job.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "oocc/compiler/plan.hpp"
#include "oocc/runtime/bufferpool.hpp"
#include "oocc/sim/machine.hpp"
#include "trace.hpp"

namespace perfbench {

namespace runtime = oocc::runtime;
namespace sim = oocc::sim;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run prints.
struct Report {
  std::vector<Metric> end_to_end;  ///< printed by untraced runs
  std::vector<Metric> per_layer;   ///< printed by traced runs
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Deterministic counters of one job (or one serve round); they must
  /// repeat exactly across jobs, runs and seeds.
  std::map<std::string, double> counters;
  std::vector<std::string> lines;  ///< human-readable report lines

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path workdir;    ///< scratch for LAF trees (inside the checkout)
  std::filesystem::path trace_out;  ///< Chrome trace file of a traced run
};

/// Set-ups timed per run; setup_s is their median.
inline constexpr int kSetups = 5;

/// Input generator f(array name, global row, global column).
using InputFn =
    std::function<double(const std::string&, std::int64_t, std::int64_t)>;

/// One program job: compile → stage → execute → gather.
struct ProgramJob {
  std::string source;
  int sweeps = 1;  ///< stencil programs: Jacobi sweeps per job
  InputFn input;
};

/// Counters of one job that must repeat exactly for a given program.
struct JobCounters {
  double sim_makespan_s = 0.0;
  double flops = 0.0;
  double io_requests = 0.0;
  double io_read_bytes = 0.0;
  double io_write_bytes = 0.0;
  double messages = 0.0;
  double bytes_sent = 0.0;
  double retries = 0.0;
  double plans = 0.0;
  double plan_steps = 0.0;
  runtime::SlabCacheStats pool;

  bool operator==(const JobCounters& o) const;
  /// Named view, for the report and the cross-run comparison.
  std::map<std::string, double> named() const;
};

struct JobResult {
  double wall_s = 0.0;     ///< compile → stage → execute → gather
  double compile_s = 0.0;  ///< source text to verified plans
  JobCounters counters;
  /// Simulated per-processor breakdown after execute (max over ranks).
  double sim_compute_s = 0.0;
  double sim_comm_s = 0.0;
  double sim_io_s = 0.0;
  sim::AsyncIoReport async;
  std::int64_t output_elements = 0;  ///< elements produced (× sweeps)
  /// Gathered result arrays in name order: the live array of a stencil
  /// program, every output array otherwise.
  std::vector<std::pair<std::string, std::vector<double>>> outputs;
};

/// Runs one job on `machine` (whose nprocs must match the program) with LAF
/// files under a fresh subdirectory of `dir`. Spans go to `tracer` under
/// `job_id` when it is non-null.
JobResult run_program_job(sim::Machine& machine, const ProgramJob& job,
                          const std::filesystem::path& dir, Tracer* tracer,
                          std::int64_t job_id);

/// Runs `fn` in a forked child process and returns the bytes it produced.
/// Oracles run this way so that their memory stays out of the benchmark's
/// peak RSS. Must be called before the process starts any thread.
std::string run_in_child(const std::function<std::string()>& fn);

/// Sizes of the array workloads.
struct ArraySpec {
  std::string name;  ///< "jacobi" or "gaxpy"
  std::int64_t n = 0;
  int nprocs = 0;
  int sweeps = 1;
};

ArraySpec jacobi_spec();
ArraySpec gaxpy_spec();

/// Reference output of an array workload, produced by the serial oracle.
struct ArrayReference {
  std::uint64_t hash = 0;     ///< jacobi: bit-exact fingerprint
  std::vector<double> data;   ///< gaxpy: C = A*B, column-major
};

/// Serial oracle (apps::serial_jacobi / gaxpy::serial_matmul) for the job.
ArrayReference array_reference(const ArraySpec& spec, std::uint64_t seed);

/// Untraced jobs give the end-to-end metrics; a traced run alternates
/// traced and untraced jobs and gives the per-layer metrics.
Report run_array_workload(const ArraySpec& spec, const RunConfig& config,
                          const ArrayReference& ref);

/// Oracle of the serve workload: the expected result fingerprints of its
/// run ops, serialized for run_in_child.
std::string serve_reference(std::uint64_t seed);

/// The serve workload: two closed-loop tenants driving handle_line.
Report run_serve_workload(const RunConfig& config, const std::string& reference);

/// Compiler phase split and plan search, timed outside the jobs on each
/// distinct program: fills hpf.* and compiler.* per-layer metrics.
void probe_compiler(const std::vector<std::string>& sources, Report& report);

/// serve.* per-layer metrics for an array workload: its program sent to a
/// fresh Server as a miss, repeated hits and one run op.
void probe_serve(const std::string& source, int sweeps,
                 const std::filesystem::path& dir, Report& report);

/// Median/aggregate per-layer metrics of traced jobs (exec, runtime, io,
/// sim) plus their deterministic counters.
void report_job_layers(const std::vector<JobResult>& traced,
                       const std::vector<Span>& spans,
                       const std::vector<std::int64_t>& job_ids,
                       Report& report);

/// Adds bench.span_coverage (the share of root-span wall covered by child
/// spans) and a per-span self-time table to the report.
void trace_summary(const std::vector<Span>& spans, Report& report);

/// Steps in a step tree, structural steps included.
std::int64_t count_steps(const std::vector<oocc::compiler::Step>& steps);

/// Peak resident set size of this process in MB.
double peak_rss_mb();

}  // namespace perfbench
