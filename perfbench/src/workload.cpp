#include "workload.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <span>
#include <stdexcept>

#include "oocc/compiler/lower.hpp"
#include "oocc/exec/interp.hpp"
#include "oocc/hpf/parser.hpp"
#include "oocc/serve/hash.hpp"
#include "oocc/serve/plan_cache.hpp"
#include "oocc/sim/collectives.hpp"

namespace perfbench {

namespace {

void write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      _exit(3);
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

std::int64_t count_steps(const std::vector<oocc::compiler::Step>& steps) {
  std::int64_t n = 0;
  for (const oocc::compiler::Step& s : steps) {
    n += 1 + count_steps(s.body);
  }
  return n;
}

bool JobCounters::operator==(const JobCounters& o) const {
  return named() == o.named();
}

std::map<std::string, double> JobCounters::named() const {
  return {
      {"sim_makespan_s", sim_makespan_s},
      {"exec.flops", flops},
      {"io.requests", io_requests},
      {"io.read_bytes", io_read_bytes},
      {"io.write_bytes", io_write_bytes},
      {"io.retries", retries},
      {"sim.messages", messages},
      {"sim.bytes_sent", bytes_sent},
      {"compiler.plans", plans},
      {"compiler.plan_steps", plan_steps},
      {"runtime.pool_hits", static_cast<double>(pool.hits)},
      {"runtime.pool_misses", static_cast<double>(pool.misses)},
      {"runtime.pool_evictions", static_cast<double>(pool.evictions)},
      {"runtime.pool_writebacks", static_cast<double>(pool.writebacks)},
  };
}

JobResult run_program_job(sim::Machine& machine, const ProgramJob& job,
                          const std::filesystem::path& dir, Tracer* tracer,
                          std::int64_t job_id) {
  namespace compiler = oocc::compiler;
  namespace exec = oocc::exec;
  static std::atomic<std::uint64_t> job_seq{0};
  const std::filesystem::path job_dir =
      dir / ("job-" + std::to_string(job_seq.fetch_add(1)));
  std::filesystem::create_directories(job_dir);

  JobResult res;
  std::vector<compiler::NodeProgram> plans;
  std::int64_t budget = 0;
  std::vector<std::string> outputs;
  std::mutex mu;
  std::vector<oocc::sim::ProcStats> after_exec;
  std::vector<double> clock_after_exec;
  runtime::SlabCacheStats pool;
  sim::RunReport report;

  const auto t0 = std::chrono::steady_clock::now();
  {
    Tracer::Scope root(tracer, "bench.job", -1, job_id);
    {
      Tracer::Scope compile(tracer, "compiler.front_to_plans", root.id(),
                            job_id);
      oocc::hpf::Program ast = [&] {
        Tracer::Scope s(tracer, "hpf.parse", compile.id(), job_id);
        return oocc::hpf::parse(job.source);
      }();
      const oocc::hpf::BoundProgram bound = [&] {
        Tracer::Scope s(tracer, "hpf.analyze", compile.id(), job_id);
        return oocc::hpf::analyze(std::move(ast));
      }();
      compiler::CompileOptions options;
      budget = oocc::serve::default_memory_budget(bound);
      options.memory_budget_elements = budget;
      Tracer::Scope s(tracer, "compiler.compile_sequence", compile.id(),
                      job_id);
      plans = compiler::compile_sequence(bound, options);
    }
    res.compile_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    const std::span<const compiler::NodeProgram> seq(plans.data(),
                                                     plans.size());
    const compiler::NodeProgram& front = plans.front();
    outputs = oocc::serve::collect_output_arrays(seq);
    after_exec.resize(static_cast<std::size_t>(front.nprocs));
    clock_after_exec.resize(static_cast<std::size_t>(front.nprocs));
    exec::ExecOptions base = exec::default_exec_options();
    base.max_iters = job.sweeps;

    Tracer::Scope region(tracer, "sim.machine_run", root.id(), job_id);
    report = machine.run([&](sim::SpmdContext& ctx) {
      std::map<std::string, std::unique_ptr<runtime::OutOfCoreArray>> arrays;
      {
        Tracer::Scope stage(tracer, "runtime.stage", region.id(), job_id);
        {
          Tracer::Scope s(tracer, "exec.create_sequence_arrays", stage.id(),
                          job_id);
          arrays = exec::create_sequence_arrays(
              ctx, seq, job_dir, oocc::io::DiskModel::touchstone_delta_cfs());
        }
        Tracer::Scope s(tracer, "runtime.initialize", stage.id(), job_id);
        for (auto& [name, arr] : arrays) {
          if (std::find(outputs.begin(), outputs.end(), name) ==
              outputs.end()) {
            const std::string& array_name = name;
            arr->initialize(
                ctx,
                [&](std::int64_t r, std::int64_t c) {
                  return job.input(array_name, r, c);
                },
                budget);
          }
        }
      }
      oocc::sim::barrier(ctx);
      ctx.reset_accounting();

      exec::ArrayBindings bindings;
      for (auto& [name, arr] : arrays) {
        bindings[name] = arr.get();
      }
      exec::ExecOptions options = base;
      runtime::SlabCacheStats local_pool;
      exec::StencilRunInfo info;
      options.cache_stats = &local_pool;
      options.stencil_info = &info;
      {
        Tracer::Scope s(tracer, "exec.execute_sequence", region.id(), job_id);
        exec::execute_sequence(ctx, seq, bindings, options);
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        pool.merge(local_pool);
        after_exec[static_cast<std::size_t>(ctx.rank())] = ctx.stats();
        clock_after_exec[static_cast<std::size_t>(ctx.rank())] =
            ctx.clock().now();
      }

      Tracer::Scope s(tracer, "runtime.gather_global", region.id(), job_id);
      const std::vector<std::string> to_gather =
          front.kind == compiler::ProgramKind::kStencil
              ? std::vector<std::string>{info.result}
              : outputs;
      for (const std::string& name : to_gather) {
        std::vector<double> data = arrays.at(name)->gather_global(ctx, budget);
        if (ctx.rank() == 0) {
          std::lock_guard<std::mutex> lock(mu);
          res.outputs.emplace_back(name, std::move(data));
        }
      }
    });
  }
  res.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  JobCounters& c = res.counters;
  c.plans = static_cast<double>(plans.size());
  for (const compiler::NodeProgram& p : plans) {
    c.plan_steps += static_cast<double>(count_steps(p.steps));
  }
  c.pool = pool;
  for (std::size_t r = 0; r < after_exec.size(); ++r) {
    const oocc::sim::ProcStats& ps = after_exec[r];
    c.sim_makespan_s = std::max(c.sim_makespan_s, clock_after_exec[r]);
    c.flops += ps.flops;
    c.io_requests += static_cast<double>(ps.io_requests);
    c.io_read_bytes += static_cast<double>(ps.io_bytes_read);
    c.io_write_bytes += static_cast<double>(ps.io_bytes_written);
    c.messages += static_cast<double>(ps.messages_sent);
    c.bytes_sent += static_cast<double>(ps.bytes_sent);
    c.retries += static_cast<double>(ps.retries);
    res.sim_compute_s = std::max(res.sim_compute_s, ps.compute_time_s);
    res.sim_comm_s = std::max(res.sim_comm_s, ps.comm_time_s);
    res.sim_io_s = std::max(res.sim_io_s, ps.io_time_s);
  }
  res.async = report.async;
  // A stencil job produces one array's worth of elements per sweep.
  const std::int64_t sweeps =
      plans.front().kind == compiler::ProgramKind::kStencil ? job.sweeps : 1;
  for (const auto& [name, data] : res.outputs) {
    res.output_elements += static_cast<std::int64_t>(data.size()) * sweeps;
  }
  std::error_code ec;
  std::filesystem::remove_all(job_dir, ec);
  return res;
}

std::string run_in_child(const std::function<std::string()>& fn) {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      write_all(fds[1], fn());
    } catch (...) {
      code = 2;
    }
    ::close(fds[1]);
    _exit(code);
  }
  ::close(fds[1]);
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("oracle child process failed");
  }
  return out;
}

void report_job_layers(const std::vector<JobResult>& traced,
                       const std::vector<Span>& spans,
                       const std::vector<std::int64_t>& job_ids,
                       Report& report) {
  std::vector<double> execute, stage, gather, region_self, async_jobs,
      async_busy, async_blocked, async_overlap, async_queue;
  const std::vector<double> self = self_times(spans);
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const std::int64_t job = job_ids[i];
    execute.push_back(slowest_rank_s(spans, job, "exec.execute_sequence"));
    stage.push_back(slowest_rank_s(spans, job, "runtime.stage"));
    gather.push_back(slowest_rank_s(spans, job, "runtime.gather_global"));
    double region = 0.0;
    for (std::size_t s = 0; s < spans.size(); ++s) {
      if (spans[s].job == job && spans[s].name == "sim.machine_run") {
        region += self[s];
      }
    }
    region_self.push_back(region);
    const sim::AsyncIoReport& a = traced[i].async;
    async_jobs.push_back(static_cast<double>(a.jobs));
    async_busy.push_back(a.busy_s);
    async_blocked.push_back(a.blocked_s);
    // Signed, unlike AsyncIoReport::overlap_s (clamped at 0): negative when
    // compute threads waited longer than the workers spent on I/O.
    async_overlap.push_back(a.busy_s - a.blocked_s);
    async_queue.push_back(static_cast<double>(a.max_queue_depth));
  }
  const JobResult& first = traced.front();
  const JobCounters& c = first.counters;
  const double lookups = static_cast<double>(c.pool.hits + c.pool.misses);
  report.layer("exec.execute_s", median(execute), "s");
  report.layer("exec.flops", c.flops, "count");
  report.layer("runtime.stage_s", median(stage), "s");
  report.layer("runtime.gather_s", median(gather), "s");
  report.layer("runtime.pool_hits", static_cast<double>(c.pool.hits), "count");
  report.layer("runtime.pool_misses", static_cast<double>(c.pool.misses),
               "count");
  report.layer("runtime.pool_hit_ratio",
               lookups > 0 ? static_cast<double>(c.pool.hits) / lookups : 0.0,
               "ratio");
  report.layer("runtime.pool_evictions", static_cast<double>(c.pool.evictions),
               "count");
  report.layer("runtime.pool_writebacks",
               static_cast<double>(c.pool.writebacks), "count");
  report.layer("io.requests", c.io_requests, "count");
  report.layer("io.read_bytes", c.io_read_bytes, "bytes");
  report.layer("io.write_bytes", c.io_write_bytes, "bytes");
  report.layer("io.async_jobs", median(async_jobs), "count");
  report.layer("io.async_busy_s", median(async_busy), "s");
  report.layer("io.async_blocked_s", median(async_blocked), "s");
  report.layer("io.async_overlap_s", median(async_overlap), "s");
  report.layer("io.async_max_queue", median(async_queue), "count");
  report.layer("io.retries", c.retries, "count");
  report.layer("sim.messages", c.messages, "count");
  report.layer("sim.bytes_sent", c.bytes_sent, "bytes");
  report.layer("sim.compute_s", first.sim_compute_s, "sim_s");
  report.layer("sim.comm_s", first.sim_comm_s, "sim_s");
  report.layer("sim.io_s", first.sim_io_s, "sim_s");
  report.layer("sim.region_s", median(region_self), "s");
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
