// Layer probes: timings taken outside the timed jobs, once per distinct
// program, for layers whose calls are not separately visible inside a job.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <span>
#include <thread>

#include "oocc/compiler/cost.hpp"
#include "oocc/compiler/search.hpp"
#include "oocc/compiler/verify.hpp"
#include "oocc/hpf/parser.hpp"
#include "oocc/serve/hash.hpp"
#include "oocc/serve/server.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

constexpr int kReps = 3;

template <typename F>
double time_call(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

void probe_compiler(const std::vector<std::string>& sources, Report& report) {
  namespace compiler = oocc::compiler;
  namespace hpf = oocc::hpf;
  double parse_s = 0, analyze_s = 0, lower_s = 0, verify_s = 0, price_s = 0,
         search_s = 0;
  double plans = 0, steps = 0, priced = 0;
  for (const std::string& src : sources) {
    std::vector<double> parse, analyze, lower, verify, price;
    for (int rep = 0; rep < kReps; ++rep) {
      hpf::Program ast;
      parse.push_back(time_call([&] { ast = hpf::parse(src); }));
      hpf::BoundProgram bound;
      analyze.push_back(time_call([&] { bound = hpf::analyze(std::move(ast)); }));
      compiler::CompileOptions options;
      options.memory_budget_elements = oocc::serve::default_memory_budget(bound);
      options.verify = false;
      std::vector<compiler::NodeProgram> seq;
      lower.push_back(time_call([&] { seq = compiler::compile_sequence(bound, options); }));
      const std::span<const compiler::NodeProgram> view(seq.data(), seq.size());
      compiler::VerifyReport vr;
      verify.push_back(time_call([&] { vr = compiler::verify_sequence(view); }));
      if (!vr.ok()) {
        ++report.failed;
      }
      compiler::PriceOptions po;
      po.model_cache = true;
      price.push_back(time_call([&] { (void)compiler::price_sequence(view, 0, po); }));
      if (rep == 0) {
        plans += static_cast<double>(seq.size());
        for (const compiler::NodeProgram& p : seq) {
          steps += static_cast<double>(count_steps(p.steps));
        }
        compiler::SearchResult sr;
        options.verify = true;
        search_s += time_call([&] { sr = compiler::search_sequence(bound, options); });
        priced += sr.report.priced;
      }
    }
    report.attempted += 1;
    parse_s += median(parse);
    analyze_s += median(analyze);
    lower_s += median(lower);
    verify_s += median(verify);
    price_s += median(price);
  }
  report.layer("hpf.parse_ms", parse_s * 1e3, "ms");
  report.layer("hpf.analyze_ms", analyze_s * 1e3, "ms");
  report.layer("compiler.lower_ms", lower_s * 1e3, "ms");
  report.layer("compiler.verify_ms", verify_s * 1e3, "ms");
  report.layer("compiler.price_ms", price_s * 1e3, "ms");
  report.layer("compiler.search_ms", search_s * 1e3, "ms");
  report.layer("compiler.search_priced", priced, "count");
  report.layer("compiler.plans", plans, "count");
  report.layer("compiler.plan_steps", steps, "count");
}

void probe_serve(const std::string& source, int sweeps,
                 const std::filesystem::path& dir, Report& report) {
  namespace serve = oocc::serve;
  const oocc::hpf::BoundProgram bound =
      oocc::hpf::analyze(oocc::hpf::parse(source));
  serve::ServerOptions options;
  // Room for one run at a time, so the second of two concurrent run ops
  // queues in admission control.
  options.total_budget_elements =
      bound.nprocs * serve::default_memory_budget(bound);
  options.work_root = dir / "probe-serve";
  serve::Server server(options);

  auto request = [&](const char* op) {
    serve::Json req = serve::Json::object();
    req.set("tenant", "probe");
    req.set("op", op);
    req.set("program", source);
    req.set("iters", sweeps);
    return req.dump();
  };
  std::int64_t failed = 0;
  auto send = [&](const std::string& line, bool want_hit) {
    const auto t0 = std::chrono::steady_clock::now();
    const serve::Json resp = server.handle_line(line);
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (!resp.get_bool("ok", false) || resp.get_bool("cache_hit", false) != want_hit) {
      ++failed;
    }
    return dt;
  };
  const std::string compile = request("compile");
  send(compile, false);
  std::vector<double> hits;
  for (int i = 0; i < 5; ++i) {
    hits.push_back(send(compile, true));
  }
  const std::string run = request("run");
  double run_a = 0.0;
  double run_b = 0.0;
  std::thread other([&] { run_b = send(run, true); });
  run_a = send(run, true);
  other.join();

  const serve::PlanCache::Stats cs = server.cache().stats();
  const serve::AdmissionController::Stats as = server.admission().stats();
  report.attempted += 8;
  report.failed += failed;
  report.layer("serve.hit_ratio",
               static_cast<double>(cs.hits) / static_cast<double>(cs.hits + cs.misses),
               "ratio");
  report.layer("serve.misses", static_cast<double>(cs.misses), "count");
  report.layer("serve.joins", static_cast<double>(cs.inflight_waits), "count");
  report.layer("serve.hit_ms_p50", median(hits) * 1e3, "ms");
  report.layer("serve.run_ms_p50", std::min(run_a, run_b) * 1e3, "ms");
  report.layer("serve.admission_wait_ms",
               as.wait_time_s * 1e3 / std::max<double>(1.0, static_cast<double>(as.admitted)),
               "ms");
  report.layer("serve.failed", static_cast<double>(failed), "count");
}

void trace_summary(const std::vector<Span>& spans, Report& report) {
  const std::vector<double> self = self_times(spans);
  struct Row {
    int calls = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  double roots = 0.0;
  double root_self = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Row& row = rows[spans[i].name];
    ++row.calls;
    row.total += spans[i].duration();
    row.self += self[i];
    if (spans[i].parent < 0) {
      roots += spans[i].duration();
      root_self += self[i];
    }
  }
  const double coverage = roots > 0.0 ? 1.0 - root_self / roots : 0.0;
  report.layer("bench.span_coverage", coverage, "ratio");
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second.self > b.second.self; });
  char line[256];
  std::snprintf(line, sizeof(line),
                "self time of traced spans (summed over threads; %% of traced "
                "wall %.3f s):",
                roots);
  report.lines.push_back(line);
  std::snprintf(line, sizeof(line), "  %-32s %8s %10s %10s %7s", "span", "calls",
                "total_s", "self_s", "self%");
  report.lines.push_back(line);
  for (const auto& [name, row] : sorted) {
    std::snprintf(line, sizeof(line), "  %-32s %8d %10.4f %10.4f %6.1f%%",
                  name.c_str(), row.calls, row.total, row.self,
                  roots > 0.0 ? 100.0 * row.self / roots : 0.0);
    report.lines.push_back(line);
  }
  std::snprintf(line, sizeof(line), "span coverage of traced wall: %.2f%%",
                100.0 * coverage);
  report.lines.push_back(line);
}

}  // namespace perfbench
