// The jacobi and gaxpy workloads: one compiled program job at a time.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "oocc/apps/jacobi.hpp"
#include "oocc/gaxpy/gaxpy.hpp"
#include "oocc/hpf/programs.hpp"
#include "oocc/serve/hash.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Deterministic value in [0, 1) for (seed, array, row, column).
double seeded_value(std::uint64_t seed, const std::string& array,
                    std::int64_t r, std::int64_t c) {
  std::uint64_t x = oocc::serve::fnv1a64(array, seed) ^
                    (static_cast<std::uint64_t>(r) << 32) ^
                    static_cast<std::uint64_t>(c);
  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Bit-exact fingerprint of an array: a word-at-a-time multiplicative
/// hash, fast enough that checking every job's 4M-element output costs a
/// few milliseconds.
std::uint64_t fingerprint(const std::vector<double>& data) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ data.size();
  for (const double v : data) {
    std::uint64_t w = 0;
    std::memcpy(&w, &v, sizeof(w));
    h = (h ^ w) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h;
}

/// Name of the array holding a stencil job's state after `sweeps` sweeps:
/// the ping-pong pair swaps roles every sweep.
std::string jacobi_result_name(int sweeps) { return sweeps % 2 == 0 ? "a" : "b"; }

}  // namespace

ArraySpec jacobi_spec() { return {"jacobi", 2048, 4, 4}; }
ArraySpec gaxpy_spec() { return {"gaxpy", 1024, 4, 1}; }

namespace {

/// The seeded program job of an array workload.
ProgramJob array_job(const ArraySpec& spec, std::uint64_t seed) {
  ProgramJob job;
  job.source = spec.name == "jacobi" ? oocc::hpf::stencil_source(spec.n, spec.nprocs)
                                     : oocc::hpf::gaxpy_source(spec.n, spec.nprocs);
  job.sweeps = spec.sweeps;
  job.input = [seed](const std::string& array, std::int64_t r, std::int64_t c) {
    return seeded_value(seed, array, r, c);
  };
  return job;
}

}  // namespace

ArrayReference array_reference(const ArraySpec& spec, std::uint64_t seed) {
  ArrayReference ref;
  const std::int64_t n = spec.n;
  if (spec.name == "jacobi") {
    const std::vector<double> state = oocc::apps::serial_jacobi(
        n, spec.sweeps, [seed](std::int64_t r, std::int64_t c) {
          return seeded_value(seed, "a", r, c);
        });
    ref.hash = fingerprint(state);
    return ref;
  }
  std::vector<double> a(static_cast<std::size_t>(n * n));
  std::vector<double> b(a.size());
  for (std::int64_t c = 0; c < n; ++c) {
    for (std::int64_t r = 0; r < n; ++r) {
      a[static_cast<std::size_t>(c * n + r)] = seeded_value(seed, "a", r, c);
      b[static_cast<std::size_t>(c * n + r)] = seeded_value(seed, "b", r, c);
    }
  }
  ref.data = oocc::gaxpy::serial_matmul(a, b, n);
  return ref;
}

namespace {

/// True when the job's outputs match the reference.
bool array_output_ok(const ArraySpec& spec, const JobResult& result,
                     const ArrayReference& ref) {
  if (result.outputs.size() != 1) {
    return false;
  }
  const auto& [name, data] = result.outputs.front();
  if (spec.name == "jacobi") {
    // The compiled stencil performs serial_jacobi's arithmetic element for
    // element, so the comparison is bit-exact.
    return name == jacobi_result_name(spec.sweeps) && fingerprint(data) == ref.hash;
  }
  // GAXPY sums partial products across ranks in a different order than the
  // serial loop, so compare with a relative tolerance.
  if (name != "c" || data.size() != ref.data.size()) {
    return false;
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (!(std::abs(data[i] - ref.data[i]) <= 1e-9 * std::max(1.0, std::abs(ref.data[i])))) {
      return false;
    }
  }
  return true;
}

}  // namespace

Report run_array_workload(const ArraySpec& spec, const RunConfig& config,
                          const ArrayReference& ref) {
  Report rep;
  const ProgramJob job = array_job(spec, config.seed);
  std::filesystem::create_directories(config.workdir);

  // Set-up: bring up the simulated machine and run one warm-up job, which
  // pays the lazy costs (async engine threads, allocator growth, first file
  // creation). Repeated; setup_s is the median.
  std::vector<double> setups;
  std::unique_ptr<sim::Machine> machine;
  JobCounters expected;
  for (int i = 0; i < kSetups; ++i) {
    machine.reset();
    const auto t0 = std::chrono::steady_clock::now();
    machine = std::make_unique<sim::Machine>(
        spec.nprocs, oocc::sim::MachineCostModel::touchstone_delta());
    JobResult warm = run_program_job(*machine, job, config.workdir, nullptr, -1);
    setups.push_back(seconds_since(t0));
    ++rep.attempted;
    if (!array_output_ok(spec, warm, ref) || (i > 0 && !(warm.counters == expected))) {
      ++rep.failed;
    }
    expected = warm.counters;
  }

  // Timed jobs. A traced run alternates traced and untraced jobs so that
  // the tracing overhead is measured under identical conditions.
  Tracer tracer;
  std::vector<double> job_s, compile_s, traced_job_s;
  std::vector<JobResult> traced;
  std::vector<std::int64_t> traced_ids;
  double check_s = 0.0;
  std::int64_t elements_per_job = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; seconds_since(start) < config.seconds || i < 3; ++i) {
    const bool trace = config.trace && i % 2 == 0;
    JobResult r = run_program_job(*machine, job, config.workdir,
                                  trace ? &tracer : nullptr, i);
    const auto c0 = std::chrono::steady_clock::now();
    ++rep.attempted;
    if (!array_output_ok(spec, r, ref) || !(r.counters == expected)) {
      ++rep.failed;
    }
    r.outputs.clear();
    check_s += seconds_since(c0);
    if (trace) {
      traced_job_s.push_back(r.wall_s);
      traced_ids.push_back(i);
      traced.push_back(std::move(r));
      continue;
    }
    job_s.push_back(r.wall_s);
    compile_s.push_back(r.compile_s);
    elements_per_job = r.output_elements;
  }
  machine.reset();

  const double ok_frac =
      static_cast<double>(rep.attempted - rep.failed) / static_cast<double>(rep.attempted);
  const auto n = static_cast<std::int64_t>(job_s.size());
  const double job_p50 = median(job_s);
  // p75 has ten jobs beyond it from 40 jobs on; a run makes about 80. The
  // tail is printed but is not an end-to-end metric: it does not repeat
  // within the bounds from run to run (NOTES.md).
  const double tail_p = tail_percentile(n, 75.0);
  rep.e2e("setup_s", median(setups), "s");
  rep.e2e("job_s_p50", job_p50, "s");
  rep.e2e("jobs_per_s", 1.0 / job_p50, "1/s");
  rep.e2e("melem_per_s", static_cast<double>(elements_per_job) / 1e6 / job_p50, "Melem/s");
  rep.e2e("compile_ms_p50", median(compile_s) * 1e3, "ms");
  rep.e2e("sim_makespan_s", expected.sim_makespan_s, "sim_s");
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  rep.e2e("ok_frac", ok_frac, "ratio");
  rep.counters = expected.named();
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: %lld untraced jobs, job_s tail p%.0f = %.4f s, setup_s = median of %zu",
                spec.name.c_str(), static_cast<long long>(n), tail_p,
                percentile(job_s, tail_p), setups.size());
  rep.lines.push_back(line);

  if (config.trace) {
    const std::vector<Span> spans = tracer.spans();
    report_job_layers(traced, spans, traced_ids, rep);
    probe_compiler({job.source}, rep);
    probe_serve(job.source, job.sweeps, config.workdir, rep);
    rep.layer("bench.check_s", check_s, "s");
    rep.layer("bench.trace_overhead", median(traced_job_s) / median(job_s) - 1.0, "ratio");
    trace_summary(spans, rep);
    tracer.write_chrome_json(config.trace_out);
  }
  return rep;
}

}  // namespace perfbench
